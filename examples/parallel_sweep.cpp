/// Parallel Monte-Carlo sweep with reproducible RNG substreams.
///
/// Runs a small uplink sweep over tag range through core::SweepRunner —
/// one experiment point per thread-pool task, each on its own
/// jump-separated substream of the master seed — then runs the same grid
/// strictly sequentially and checks the results are bit-identical. It then
/// prints the parallel sweep's cache effectiveness — FFT-plan and
/// regrid-plan hit rates and the number of batched AWGN samples drawn, read
/// from the process-wide counters before and after the sweep — and the
/// merged run report of every point's simulator.

#include <cstdint>
#include <cstdio>
#include <string>

#include "core/sweep_runner.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "rf/noise.hpp"

int main() {
  using namespace bis;

  core::SystemConfig base;
  base.tag.node.uplink.chirps_per_symbol = 32;

  core::SweepOptions opts;
  opts.mode = core::SweepMode::kUplink;
  opts.master_seed = 42;
  opts.workload.frames = 2;
  opts.workload.bits_per_frame = 4;
  opts.workload.downlink_active = true;

  const std::vector<double> ranges = {1.0, 2.0, 4.0};
  const auto grid = core::range_sweep_grid(base, ranges, /*repeats=*/2);

  opts.threads = 0;  // shared hardware-sized pool
  const auto fft0 = dsp::fft_plan_cache_stats();
  const auto regrid0 = dsp::regrid_plan_cache_stats();
  const std::uint64_t awgn0 = rf::awgn_samples_added();
  const auto parallel = core::SweepRunner(opts).run(grid);
  const auto fft1 = dsp::fft_plan_cache_stats();
  const auto regrid1 = dsp::regrid_plan_cache_stats();
  const std::uint64_t awgn1 = rf::awgn_samples_added();
  opts.threads = 1;  // strictly sequential
  const auto sequential = core::SweepRunner(opts).run(grid);

  std::printf("uplink sweep: %zu points on %zu thread(s)\n",
              parallel.points.size(), parallel.threads_used);
  for (const auto& p : parallel.points) {
    std::printf("  r=%4.1f m  seed=%020llu  detect=%.2f  BER=%.3f  SNR=%6.2f dB\n",
                p.axis, static_cast<unsigned long long>(p.point_seed),
                p.uplink.detection_rate, p.uplink.ber,
                p.uplink.mean_snr_processed_db);
  }

  const bool identical =
      core::sweep_to_json(parallel) == core::sweep_to_json(sequential);
  std::printf("parallel == sequential: %s\n", identical ? "yes" : "NO");

  // Hit/miss splits can vary with thread interleaving (two lanes racing
  // the same cold key both miss), so they are printed, not compared.
  std::printf("\nparallel sweep caches: FFT plans %llu hits / %llu misses, "
              "regrid plans %llu hits / %llu misses, %llu AWGN samples\n",
              static_cast<unsigned long long>(fft1.hits - fft0.hits),
              static_cast<unsigned long long>(fft1.misses - fft0.misses),
              static_cast<unsigned long long>(regrid1.hits - regrid0.hits),
              static_cast<unsigned long long>(regrid1.misses - regrid0.misses),
              static_cast<unsigned long long>(awgn1 - awgn0));

  std::printf("\nmerged sweep report:\n%s\n", parallel.report.to_json().c_str());
  return identical ? 0 : 1;
}
