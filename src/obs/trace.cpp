#include "obs/trace.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

namespace bis::obs {
namespace {

/// obs::now_ns() at the first instrumented event.
std::uint64_t trace_epoch_ns() {
  static const std::uint64_t epoch = now_ns();
  return epoch;
}

/// Nanoseconds since the trace epoch (read first, so the very first event
/// never precedes it).
std::uint64_t trace_now_ns() {
  const std::uint64_t epoch = trace_epoch_ns();
  return now_ns() - epoch;
}

/// Events are appended by exactly one thread (the owner) under the buffer's
/// own mutex — uncontended in steady state; collect_trace() takes the same
/// mutex to copy, which keeps concurrent collection TSan-clean.
struct ThreadBuffer {
  std::mutex mu;
  std::vector<TraceEvent> events;
  std::uint64_t dropped = 0;
  std::uint32_t tid = 0;
};

struct Collector {
  std::mutex mu;
  std::vector<std::shared_ptr<ThreadBuffer>> buffers;
  std::uint32_t next_tid = 0;
};

Collector& collector() {
  static Collector* c = new Collector();  // outlives thread-local dtors
  return *c;
}

ThreadBuffer& thread_buffer() {
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    b->tid = c.next_tid++;
    c.buffers.push_back(b);
    return b;
  }();
  return *buf;
}

thread_local std::uint32_t t_depth = 0;

}  // namespace

namespace detail {

std::uint64_t span_begin() {
  ++t_depth;
  return trace_now_ns();
}

void span_end(const char* name, std::uint64_t start_ns) {
  const std::uint64_t end_ns = trace_now_ns();
  --t_depth;
  ThreadBuffer& buf = thread_buffer();
  std::lock_guard<std::mutex> lock(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  TraceEvent e;
  e.name = name;
  e.tid = buf.tid;
  e.depth = t_depth;  // post-decrement value = depth at entry
  e.start_ns = start_ns;
  e.dur_ns = end_ns - start_ns;
  buf.events.push_back(e);
}

}  // namespace detail

std::vector<TraceEvent> collect_trace() {
  std::vector<std::shared_ptr<ThreadBuffer>> bufs;
  {
    Collector& c = collector();
    std::lock_guard<std::mutex> lock(c.mu);
    bufs = c.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lock(b->mu);
    out.insert(out.end(), b->events.begin(), b->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;  // parent (longer) before child at same start
  });
  return out;
}

void clear_trace() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  std::size_t recorded = 0;
  for (const auto& b : c.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    recorded += b->events.size();
  }
  recorded = std::min(recorded, kMaxEventsPerThread);
  for (const auto& b : c.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    b->events.clear();
    b->dropped = 0;
    // Only the collector holds a finished thread's buffer; it records no
    // more, so leave its capacity alone.
    if (b.use_count() > 1) b->events.reserve(recorded);
  }
}

std::uint64_t trace_dropped_events() {
  Collector& c = collector();
  std::lock_guard<std::mutex> lock(c.mu);
  std::uint64_t total = 0;
  for (const auto& b : c.buffers) {
    std::lock_guard<std::mutex> bl(b->mu);
    total += b->dropped;
  }
  return total;
}

void write_chrome_trace(std::ostream& os) {
  const auto events = collect_trace();
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (i) os << ",";
    os << "\n  {\"name\": \"" << json_escape(e.name)
       << "\", \"cat\": \"bis\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << e.tid
       << ", \"ts\": " << static_cast<double>(e.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(e.dur_ns) / 1e3 << "}";
  }
  os << "\n]}\n";
}

bool write_chrome_trace_file(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out);
  return static_cast<bool>(out);
}

std::vector<SpanStats> trace_summary() {
  const auto events = collect_trace();
  // Key by name *content*: the same stage instrumented from two translation
  // units must aggregate together even if the literal pointers differ.
  std::map<std::string, SpanStats> by_name;
  for (const TraceEvent& e : events) {
    SpanStats& s = by_name[e.name];
    if (s.count == 0) s.name = e.name;
    ++s.count;
    const double ms = static_cast<double>(e.dur_ns) / 1e6;
    s.total_ms += ms;
    s.max_ms = std::max(s.max_ms, ms);
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (auto& [name, s] : by_name) {
    s.mean_ms = s.total_ms / static_cast<double>(s.count);
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_ms > b.total_ms;
  });
  return out;
}

void write_trace_summary(std::ostream& os) {
  const auto summary = trace_summary();
  os << "span                               count   total ms    mean ms     max ms\n";
  for (const auto& s : summary) {
    os.width(32);
    os.setf(std::ios::left, std::ios::adjustfield);
    os << s.name;
    os.setf(std::ios::right, std::ios::adjustfield);
    os.width(9);
    os << s.count;
    os.precision(3);
    os.setf(std::ios::fixed, std::ios::floatfield);
    os.width(11);
    os << s.total_ms;
    os.width(11);
    os << s.mean_ms;
    os.width(11);
    os << s.max_ms;
    os << "\n";
  }
  const std::uint64_t dropped = trace_dropped_events();
  if (dropped > 0) os << "(" << dropped << " events dropped)\n";
}

void write_trace_summary_json(std::ostream& os) {
  const auto summary = trace_summary();
  os << "[";
  for (std::size_t i = 0; i < summary.size(); ++i) {
    const auto& s = summary[i];
    if (i) os << ",";
    os << "\n  {\"name\": \"" << json_escape(s.name)
       << "\", \"count\": " << s.count << ", \"total_ms\": " << s.total_ms
       << ", \"mean_ms\": " << s.mean_ms << ", \"max_ms\": " << s.max_ms << "}";
  }
  os << "\n]\n";
}

}  // namespace bis::obs
