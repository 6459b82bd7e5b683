#pragma once

/// @file thread_pool.hpp
/// Minimal fixed-size thread pool and a deterministic parallel_for built on
/// it. The DSP engine fans pure per-item maps (per-chirp range FFTs,
/// per-profile regridding, per-range-bin slow-time scoring) across threads;
/// every item writes only its own preallocated output slot, so results are
/// bit-identical regardless of thread count or scheduling order. No work
/// stealing, no task futures — one blocking parallel_for is all the radar
/// pipeline needs.

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace bis {

class ThreadPool {
 public:
  /// A pool with @p n_threads total lanes of concurrency. The calling thread
  /// participates in parallel_for, so n_threads == 1 spawns no workers and
  /// runs everything inline. @p lane_init, when set, runs once on each
  /// worker thread before it takes any work (e.g. sizing thread_local
  /// scratch); the constructor returns only after every worker has run it,
  /// and rethrows the first exception lane_init threw.
  explicit ThreadPool(std::size_t n_threads,
                      const std::function<void()>& lane_init = {});
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total concurrency (worker threads + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  /// Stop accepting queued work and join every worker. parallel_for remains
  /// usable afterwards: with the queue closed it deterministically runs the
  /// whole loop inline on the caller (no task is ever enqueued against
  /// joined workers, so nothing can race the join). Idempotent; the
  /// destructor calls it.
  void shutdown();

  /// Run fn(i) for every i in [begin, end), blocking until all complete.
  /// Items are claimed in chunks from a shared counter; since each item is
  /// independent and writes its own slot, output is deterministic. The first
  /// exception thrown by any item is rethrown on the caller after the loop
  /// drains. Nested calls from inside a worker run inline (no deadlock).
  /// Allocation-free once warm: loop states are pool-owned and recycled.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& fn);

 private:
  /// One parallel_for in flight (defined in thread_pool.cpp).
  struct Loop;

  void worker_loop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  Loop* pending_ = nullptr;  ///< FIFO of loops still wanting worker lanes.
  Loop* spare_ = nullptr;    ///< Recycled loop states, ready for reuse.
  bool stop_ = false;
};

/// Process-wide pool sized to the hardware (min 1 lane), created on first
/// use. With one hardware thread it has no workers and parallel_for runs
/// inline, so defaulting to it is always safe.
ThreadPool& global_pool();

/// Convenience wrapper: run fn(i) over [begin, end) on @p pool, or inline
/// when @p pool is null or has a single lane. Templated on the callable so
/// the inline path never materializes a std::function — the streaming
/// engine's zero-allocation steady state depends on this: a capturing
/// lambda larger than the small-buffer optimization would otherwise heap-
/// allocate on every call even when the loop runs inline. On the pool path
/// the callable is passed by reference_wrapper, which always fits the SBO.
template <typename Fn>
void parallel_for(ThreadPool* pool, std::size_t begin, std::size_t end,
                  Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
    return;
  }
  pool->parallel_for(begin, end, std::function<void(std::size_t)>(std::ref(fn)));
}

}  // namespace bis
