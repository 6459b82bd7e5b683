#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <utility>

#include "common/check.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace bis {
namespace {

/// Set while a pool worker (or a caller draining a parallel_for) is inside
/// user code, so nested parallel_for calls degrade to inline execution
/// instead of deadlocking on the pool's own queue.
thread_local bool t_in_parallel_region = false;

}  // namespace

/// A loop state is either on the spare list or held by a running
/// parallel_for; while worker lanes may still claim it, it is also queued on
/// the pending FIFO. Both lists link through `next_loop` under the pool mutex.
struct ThreadPool::Loop {
  // Set by the caller before the loop is published; read-only afterwards.
  const std::function<void(std::size_t)>* fn = nullptr;
  std::size_t end = 0;
  std::size_t grain = 1;
  std::uint64_t enqueue_ns = 0;  ///< Telemetry dispatch stamp; 0 when off.
  std::atomic<std::size_t> next{0};

  // Under the pool mutex.
  Loop* next_loop = nullptr;
  std::size_t wanted = 0;   ///< Worker lanes that may still claim the loop.
  std::size_t claimed = 0;  ///< Worker lanes that did.

  // Under mu.
  std::mutex mu;
  std::condition_variable done_cv;
  std::size_t finished = 0;  ///< Claiming lanes done draining.
  std::exception_ptr error;  ///< First exception thrown by fn.

  void drain() {
    t_in_parallel_region = true;
    for (;;) {
      const std::size_t i0 = next.fetch_add(grain);
      if (i0 >= end) break;
      const std::size_t i1 = std::min(end, i0 + grain);
      try {
        for (std::size_t i = i0; i < i1; ++i) (*fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!error) error = std::current_exception();
        // Poison the counter so remaining chunks are skipped quickly.
        next.store(end);
      }
    }
    t_in_parallel_region = false;
  }
};

ThreadPool::ThreadPool(std::size_t n_threads,
                       const std::function<void()>& lane_init) {
  BIS_CHECK(n_threads >= 1);
  workers_.reserve(n_threads - 1);
  std::size_t started = 0;       // under mu_
  std::exception_ptr init_error;  // under mu_
  for (std::size_t i = 0; i + 1 < n_threads; ++i)
    workers_.emplace_back([this, &lane_init, &started, &init_error] {
      std::exception_ptr error;
      try {
        if (lane_init) lane_init();
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        ++started;
        if (error && !init_error) init_error = error;
      }
      work_cv_.notify_all();
      worker_loop();
    });
  std::unique_lock<std::mutex> lock(mu_);
  work_cv_.wait(lock, [&] { return started == workers_.size(); });
  if (init_error) {
    // No destructor runs for a throwing constructor: join the workers here.
    lock.unlock();
    shutdown();
    std::rethrow_exception(init_error);
  }
}

ThreadPool::~ThreadPool() {
  shutdown();
  // Every caller has returned, so every loop state is back on the spare list.
  while (spare_ != nullptr) delete std::exchange(spare_, spare_->next_loop);
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;  // already shut down
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
  workers_.clear();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Loop* loop = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return stop_ || pending_ != nullptr; });
      if (pending_ == nullptr) return;  // stop_ and drained
      loop = pending_;
      ++loop->claimed;
      if (--loop->wanted == 0) pending_ = loop->next_loop;
    }
    if (loop->enqueue_ns != 0) {
      static obs::Histogram& latency = obs::Registry::instance().histogram(
          "bis.pool.task_latency_us",
          obs::Histogram::exponential_bounds(1.0, 1e6, 25));
      static obs::Counter& executed =
          obs::Registry::instance().counter("bis.pool.tasks_executed");
      latency.observe(static_cast<double>(obs::now_ns() - loop->enqueue_ns) / 1e3);
      executed.add();
    }
    loop->drain();
    std::lock_guard<std::mutex> lock(loop->mu);
    ++loop->finished;
    loop->done_cv.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& fn) {
  if (end <= begin) return;
  const std::size_t n = end - begin;
  if (workers_.empty() || n == 1 || t_in_parallel_region) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }

  BIS_TRACE_SPAN("pool.parallel_for");
  Loop* loop = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A stopped pool's workers have exited (or will exit without draining
    // new work), so a loop published now would never be claimed: run the
    // whole loop inline instead (outside the lock — fn may re-enter).
    if (!stop_) {
      loop = spare_ != nullptr ? std::exchange(spare_, spare_->next_loop)
                               : new Loop;
      loop->fn = &fn;
      loop->end = end;
      // Small chunks keep the lanes balanced when per-item cost varies (range
      // bins near clutter cost more) and when items are coarse (a LinkServer
      // item is a whole link's round): lanes finish at most one chunk, 1/16
      // of a lane's share, apart. Floor of 1 keeps tiny loops correct.
      loop->grain = std::max<std::size_t>(1, n / (16 * size()));
      loop->next.store(begin, std::memory_order_relaxed);
      loop->enqueue_ns = obs::enabled() ? obs::now_ns() : 0;
      loop->next_loop = nullptr;
      loop->wanted = std::min(workers_.size(), n - 1);
      loop->claimed = 0;
      loop->finished = 0;
      std::size_t depth = 1;
      Loop** tail = &pending_;
      for (; *tail != nullptr; tail = &(*tail)->next_loop) ++depth;
      *tail = loop;
      if (loop->enqueue_ns != 0) {
        static obs::Gauge& gauge =
            obs::Registry::instance().gauge("bis.pool.queue_depth");
        gauge.set(static_cast<double>(depth));
      }
    }
  }
  if (loop == nullptr) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  work_cv_.notify_all();

  loop->drain();  // the caller is a lane too
  std::size_t claimed = 0;
  {
    // Withdraw the loop from the FIFO: once the caller has drained it, lanes
    // that have not woken yet have nothing to do and are not waited for.
    std::lock_guard<std::mutex> lock(mu_);
    if (loop->wanted != 0) {
      Loop** p = &pending_;
      while (*p != loop) p = &(*p)->next_loop;
      *p = loop->next_loop;
      loop->wanted = 0;
    }
    claimed = loop->claimed;
  }
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(loop->mu);
    loop->done_cv.wait(lock, [&] { return loop->finished == claimed; });
    error = std::exchange(loop->error, nullptr);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    loop->next_loop = spare_;
    spare_ = loop;
  }
  if (error) std::rethrow_exception(error);
}

ThreadPool& global_pool() {
  static ThreadPool pool(
      std::max<std::size_t>(1, std::thread::hardware_concurrency()));
  return pool;
}

}  // namespace bis
