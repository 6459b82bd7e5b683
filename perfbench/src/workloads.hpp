#pragma once

/// @file workloads.hpp
/// The four workloads of the repository benchmark, their seed-generated
/// inputs, and the digests that check their outputs. perfbench/README.md
/// gives each workload's reason and the layer → end-to-end map.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/inventory.hpp"
#include "core/link_server.hpp"
#include "core/sweep_runner.hpp"
#include "harness.hpp"

namespace perfbench {

/// Busy threads every workload runs with (engine lanes, pool size).
inline constexpr std::size_t kLanes = 4;

enum class Workload {
  kFleetUplink,
  kSingleLinkLatency,
  kInventoryDrain,
  kDownlinkBerSweep,
};

bool parse_workload(std::string_view name, Workload& out);

// ---- Inputs, all derived from the workload seed ----

/// bench_server's link: OOK uplink at 2 bits/frame and 16 chirps/symbol,
/// tag at 4 m, CSSK downlink active.
bis::core::LinkServerConfig link_server_config(std::uint64_t seed,
                                               std::size_t links,
                                               std::size_t workers);
/// make_inventory_population with @p tags tags.
bis::core::NetworkConfig inventory_population(std::uint64_t seed,
                                              std::size_t tags,
                                              std::size_t dsp_threads);
/// The Fig. 13 grid: 4/5/6 bits/symbol × 8 distances.
std::vector<bis::core::SweepPoint> downlink_sweep_grid();
bis::core::SweepOptions downlink_sweep_options(std::uint64_t seed,
                                               std::size_t threads,
                                               std::size_t min_bits);

// ---- Output digests (equal across lane counts by the engines' contracts) ----

/// Per link: decoded bits, then RunReport::outcome_key().
std::string link_server_digest(const bis::core::LinkServer& server);
std::string link_results_digest(
    const std::vector<bis::core::SequentialLinkResult>& links);
/// inventoried_set() and every InventoryRound field except `seconds`.
std::string inventory_digest(const bis::core::InventoryEngine& engine);
/// sweep_to_json.
std::string sweep_digest(const bis::core::SweepResult& result);

// ---- Runs ----

struct RunOptions {
  Workload workload = Workload::kFleetUplink;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Digest recorded for this seed in perfbench/reference.json; empty when
  /// the seed has none.
  std::string recorded_digest;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// End-to-end metrics untraced, per-layer metrics traced.
  std::vector<Metric> metrics;
  std::string reference_digest;
  /// host_probe_ms before the run and at the end of its untraced timed
  /// part: the host's speed state around the recorded timings.
  std::vector<double> probe_ms;
  std::vector<std::string> notes;  ///< Human-readable lines (sample counts,
                                   ///< the per-layer table).
};

/// Measure @p options.workload for about options.seconds (set-ups
/// included), then compute the single-lane reference and count every
/// operation whose output digest differs from it.
RunResult run_workload(const RunOptions& options);

}  // namespace perfbench
