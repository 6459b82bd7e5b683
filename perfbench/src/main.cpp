/// Repository benchmark: runs one named workload through the public engine
/// APIs for a fixed time and prints, as its last stdout line, one JSON
/// object with the correctness verdict and the metrics.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--reference FILE] [--commit SHA] [--trace-out FILE]
///
/// --trace 0 prints the end-to-end metrics; --trace 1 measures untraced and
/// traced halves, prints the per-layer metrics and table, and writes the
/// recorded spans to --trace-out. perfbench/run.py builds this program and
/// supplies the optional arguments.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common/json.hpp"
#include "obs/trace.hpp"
#include "harness.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--reference FILE] [--commit SHA] "
               "[--trace-out FILE]\n",
               why);
  return 2;
}

/// The digest perfbench/reference.json records for (workload, seed), or "".
std::string recorded_digest(const std::string& path, const char* workload,
                            std::uint64_t seed, bool& ok) {
  ok = true;
  if (path.empty()) return "";
  const bis::JsonParseResult parsed = bis::json_parse_file(path);
  if (!parsed.ok()) {
    ok = false;
    std::fprintf(stderr, "perfbench: %s: %s\n", path.c_str(), parsed.error.c_str());
    return "";
  }
  const bis::JsonValue* digests = parsed.value.find("digests");
  const bis::JsonValue* per_seed = digests ? digests->find(workload) : nullptr;
  if (per_seed == nullptr) return "";
  return per_seed->string_or(std::to_string(seed), "");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, reference_path, commit = "unknown", trace_out;
  std::string seed_arg, seconds_arg, trace_arg;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") workload = value;
    else if (flag == "--seed") seed_arg = value;
    else if (flag == "--seconds") seconds_arg = value;
    else if (flag == "--trace") trace_arg = value;
    else if (flag == "--reference") reference_path = value;
    else if (flag == "--commit") commit = value;
    else if (flag == "--trace-out") trace_out = value;
    else return usage(("unknown flag " + flag).c_str());
  }

  perfbench::RunOptions options;
  if (!perfbench::parse_workload(workload, options.workload))
    return usage(("unknown workload '" + workload + "'").c_str());
  char* end = nullptr;
  options.seed = std::strtoull(seed_arg.c_str(), &end, 10);
  if (seed_arg.empty() || *end != '\0') return usage("--seed takes an unsigned integer");
  options.seconds = std::strtod(seconds_arg.c_str(), &end);
  if (seconds_arg.empty() || *end != '\0' || !(options.seconds > 0.0) ||
      options.seconds > 600.0)
    return usage("--seconds takes a number in (0, 600]");
  if (trace_arg != "0" && trace_arg != "1") return usage("--trace takes 0 or 1");
  options.trace = trace_arg == "1";

  const unsigned nproc = std::thread::hardware_concurrency();
  if (perfbench::kLanes > nproc) {
    std::fprintf(stderr,
                 "perfbench: refusing to record: %zu busy threads configured, "
                 "host has %u\n",
                 perfbench::kLanes, nproc);
    return 3;
  }
  bool reference_ok = true;
  options.recorded_digest = recorded_digest(reference_path, workload.c_str(),
                                            options.seed, reference_ok);
  if (!reference_ok) return 4;

  const perfbench::RunResult result = perfbench::run_workload(options);
  std::printf("host: %s\n",
              perfbench::host_fingerprint_json(commit, result.probe_ms).c_str());
  for (const std::string& line : result.notes) std::printf("%s\n", line.c_str());
  if (options.trace) {
    std::printf("%-40s %14s  %s\n", "per-layer metric", "value", "unit");
    for (const perfbench::Metric& m : result.metrics)
      std::printf("%-40s %14.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    if (!trace_out.empty() && !bis::obs::write_chrome_trace_file(trace_out))
      std::fprintf(stderr, "perfbench: could not write %s\n", trace_out.c_str());
  }
  std::printf("reference digest: %s%s\n", result.reference_digest.c_str(),
              options.recorded_digest.empty() ? " (seed not recorded)"
                                              : " (recorded for this seed)");
  std::printf("%s\n", perfbench::result_json(result.correct, result.attempted,
                                             result.failed, result.metrics)
                          .c_str());
  return 0;
}
