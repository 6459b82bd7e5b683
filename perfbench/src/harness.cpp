#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "common/thread_pool.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/precision.hpp"
#include "obs/telemetry.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace perfbench {

double quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

Tail tail_quantile(std::vector<double> samples, double target,
                   std::size_t min_beyond) {
  Tail t;
  t.count = samples.size();
  if (samples.empty()) return t;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank k (1-based) of quantile q is ceil(q·n); k ≤ n − min_beyond
  // leaves min_beyond samples above it. The floor is the upper median rank,
  // so a short run's tail never reads below its (interpolated) median.
  const auto wanted = static_cast<std::size_t>(
      std::ceil(std::clamp(target, 0.0, 1.0) * static_cast<double>(n)));
  const std::size_t cap = n > min_beyond ? n - min_beyond : 0;
  const std::size_t rank = std::max(n / 2 + 1, std::min(wanted, cap));
  t.q = static_cast<double>(rank) / static_cast<double>(n);
  t.value = samples[rank - 1];
  t.beyond = n - rank;
  return t;
}

// ---------------------------------------------------------------------------

void Digest::bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h_ ^= p[i];
    h_ *= 0x100000001b3ull;
  }
}

void Digest::u64(std::uint64_t v) {
  unsigned char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<unsigned char>(v >> (8 * i));
  bytes(b, sizeof b);
}

void Digest::f64(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  u64(bits);
}

void Digest::str(std::string_view s) {
  u64(s.size());
  bytes(s.data(), s.size());
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

// ---------------------------------------------------------------------------

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      const double kib = std::strtod(line.c_str() + 6, nullptr);
      return kib * 1024.0 / 1e6;
    }
  }
  return 0.0;
}

double host_probe_ms(std::size_t lanes) {
  constexpr std::size_t kN = 4096, kTasks = 16, kFftsPerTask = 128, kReps = 15;
  constexpr double kWarmMs = 1500.0;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i)
    signal[i] = std::sin(0.001 * static_cast<double>(i * i));
  bis::ThreadPool pool(lanes);
  std::vector<bis::dsp::CVec> out(kTasks);
  const auto rep_ms = [&] {
    const auto t0 = std::chrono::steady_clock::now();
    bis::parallel_for(&pool, 0, kTasks, [&](std::size_t t) {
      for (std::size_t k = 0; k < kFftsPerTask; ++k) bis::dsp::rfft_into(signal, out[t]);
    });
    return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
        .count();
  };
  // Warm-up: the plan and the scratch, and a host that has been idle: on a
  // 4-vCPU virtual machine the first second of 4-lane work after a pause
  // ran 3-4x slower than the rest.
  for (double warm_ms = 0.0; warm_ms < kWarmMs;) warm_ms += rep_ms();
  std::vector<double> ms;
  for (std::size_t rep = 0; rep < kReps; ++rep) ms.push_back(rep_ms());
  return median(std::move(ms));
}

namespace {

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string host_fingerprint_json(const std::string& commit,
                                  const std::vector<double>& probe_ms) {
  using bis::obs::json_escape;
  namespace k = bis::dsp::kernels;
  std::string s = "{\"cpu_model\": \"" + json_escape(cpu_model()) + "\"";
  s += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  s += ", \"simd_target\": \"";
  s += k::target_name(k::active_target());
  s += "\", \"precision\": \"";
  s += bis::dsp::precision_name(bis::dsp::Precision::kDoubleStrict);
  s += "\", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) + "\"";
  s += ", \"cxx_flags\": \"" + json_escape(PERFBENCH_CXX_FLAGS) + "\"";
  s += ", \"git_commit\": \"" + json_escape(commit) + "\"";
  if (!probe_ms.empty()) {
    s += ", \"probe_ms\": [";
    for (std::size_t i = 0; i < probe_ms.size(); ++i) {
      char value[32];
      std::snprintf(value, sizeof value, "%.6g", probe_ms[i]);
      s += (i ? ", " : "") + std::string(value);
    }
    s += "]";
  }
  s += "}";
  return s;
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed, const std::vector<Metric>& metrics) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    s += (i ? ", \"" : "\"") + bis::obs::json_escape(metrics[i].name) +
         "\": {\"value\": " + (std::isfinite(metrics[i].value) ? value : "null") +
         ", \"unit\": \"" + bis::obs::json_escape(metrics[i].unit) + "\"}";
  }
  s += "}}";
  return s;
}

}  // namespace perfbench
