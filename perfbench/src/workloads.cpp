#include "workloads.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <map>
#include <memory>
#include <span>

#include "common/thread_pool.hpp"
#include "dsp/fft.hpp"
#include "dsp/resample.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "phy/packet.hpp"

namespace perfbench {

namespace core = bis::core;
namespace obs = bis::obs;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Workload sizes. A run repeats epochs — set up an engine, warm it, then
// time operations on it — until its seconds are spent. Epochs cycle through
// a fixed number of input sets generated from the seed; each epoch must
// reproduce the digest of its set's single-lane reference, computed after
// the timed part. The link and sweep workloads use several sets so that
// their error rate is measured over enough bits to repeat closely from seed
// to seed.
constexpr std::size_t kFleetLinks = 64;
constexpr std::size_t kFleetFramesPerCall = 4;  // run(F)
constexpr std::size_t kFleetCallsPerEpoch = 4;
constexpr std::size_t kFleetInputSets = 4;
constexpr std::size_t kSingleCallsPerEpoch = 300;  // run(1) each
constexpr std::size_t kSingleInputSets = 8;
constexpr std::size_t kInventoryTags = 3000;
constexpr std::size_t kSweepMinBits = 6000;  // as bench_fig13
constexpr std::size_t kSweepInputSets = 4;

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t x = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Seed of input set @p set of a run seeded with @p seed.
std::uint64_t set_seed(std::uint64_t seed, std::size_t set) {
  return derive_seed(seed, 16 + set);
}

/// One group of operations checked by a single digest.
struct Epoch {
  std::size_t set = 0;      ///< Input set, the index of its reference.
  std::uint64_t items = 0;  ///< Operations the digest covers.
  std::string digest;       ///< Empty when the epoch threw.
  bool finite = true;       ///< No NaN/Inf in the outputs.
};

struct Samples {
  std::vector<double> setup_s;
  std::vector<double> latency_ms;  ///< One per request.
  std::vector<double> throughput;  ///< Items per second, one per request.
};

/// FFT-plan and regrid-plan cache lookups over an interval.
struct CacheDelta {
  bis::dsp::FftPlanCacheStats fft0 = bis::dsp::fft_plan_cache_stats();
  bis::dsp::RegridPlanCacheStats regrid0 = bis::dsp::regrid_plan_cache_stats();
  double fft_hits = 0, fft_lookups = 0, regrid_hits = 0, regrid_lookups = 0;

  void stop() {
    const auto fft1 = bis::dsp::fft_plan_cache_stats();
    const auto regrid1 = bis::dsp::regrid_plan_cache_stats();
    fft_hits += static_cast<double>(fft1.hits - fft0.hits);
    fft_lookups += static_cast<double>(fft1.hits + fft1.misses - fft0.hits - fft0.misses);
    regrid_hits += static_cast<double>(regrid1.hits - regrid0.hits);
    regrid_lookups += static_cast<double>(regrid1.hits + regrid1.misses -
                                          regrid0.hits - regrid0.misses);
  }
  void restart() {
    fft0 = bis::dsp::fft_plan_cache_stats();
    regrid0 = bis::dsp::regrid_plan_cache_stats();
  }
};

/// With @p on, the program's telemetry (its trace spans, stage timers and
/// LinkServer stats clocks) is on inside the scope and off again on every
/// exit path, and the scope's plan-cache lookups accumulate into @p cache
/// when one is given. With @p on false the section is a no-op (untraced
/// epochs). Spans stay in the program's trace buffer until the run ends.
class TracedSection {
 public:
  explicit TracedSection(bool on, CacheDelta* cache = nullptr)
      : on_(on), cache_(on ? cache : nullptr) {
    if (cache_) cache_->restart();
    if (on_) obs::set_enabled(true);
  }
  ~TracedSection() {
    if (on_) obs::set_enabled(false);
    if (cache_) cache_->stop();
  }
  TracedSection(const TracedSection&) = delete;
  TracedSection& operator=(const TracedSection&) = delete;

 private:
  bool on_;
  CacheDelta* cache_;
};

/// Durations of the recorded spans named @p name, microseconds.
std::vector<double> span_us(const std::vector<obs::TraceEvent>& events,
                            std::string_view name) {
  std::vector<double> out;
  for (const auto& e : events)
    if (name == e.name) out.push_back(static_cast<double>(e.dur_ns) / 1e3);
  return out;
}

/// The program's per-name aggregate of the spans named @p name (zero when
/// none was recorded).
obs::SpanStats span_stats(std::string_view name) {
  for (obs::SpanStats& s : obs::trace_summary())
    if (s.name == name) return s;
  return {};
}

double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Tags read, and responses (tags pending at the start of each round),
/// over the rounds of the engine's last drain.
void count_reads(const core::InventoryEngine& engine, double& reads, double& responses) {
  reads = responses = 0.0;
  double pending = static_cast<double>(engine.population());
  for (const auto& r : engine.rounds()) {
    reads += static_cast<double>(r.reads);
    responses += pending;
    pending = static_cast<double>(r.pending_after);
  }
}

/// State shared by one run of one workload.
struct Run {
  explicit Run(const RunOptions& options) : opt(options) {}

  const RunOptions& opt;
  Samples plain;   ///< Untraced epochs (the end-to-end numbers).
  Samples traced;  ///< Traced epochs (trace mode only).
  std::vector<Epoch> epochs;
  std::vector<std::string> references;  ///< Single-lane digest per input set.
  double error_rate = 0.0;
  std::map<std::string, double> layer;
  std::vector<std::string> notes;
  CacheDelta cache;  ///< Accumulated over traced epochs only.
  double peak_rss = 0.0;        ///< VmHWM at the end of the untraced timed part.
  double probe_before_ms = host_probe_ms(kLanes);  ///< Before the run,
  double probe_after_ms = 0.0;  ///< and at the end of the untraced timed part.

  double measure_s() const { return opt.trace ? opt.seconds / 2 : opt.seconds; }

  /// Run @p epoch repeatedly for @p seconds (at least once), cycling through
  /// @p sets input sets and recording each epoch; an exception fails the
  /// epoch's operations and the run goes on.
  template <typename Fn>
  void repeat(double seconds, std::size_t sets, std::uint64_t items, Fn&& epoch) {
    const auto t0 = Clock::now();
    std::size_t n = 0;
    do {
      Epoch e;
      e.set = n++ % sets;
      e.items = items;
      try {
        epoch(e);
      } catch (const std::exception& ex) {
        e.digest.clear();
        notes.push_back(std::string("epoch threw: ") + ex.what());
      }
      epochs.push_back(std::move(e));
    } while (seconds_since(t0) < seconds);
  }

  /// Close the untraced timed part: the workload's own peak RSS, read before
  /// any checking code runs, and the host probe at its end.
  void end_timed_part() {
    peak_rss = peak_rss_mb();
    probe_after_ms = host_probe_ms(kLanes);
  }
};

std::string note(const char* fmt, double a, double b = 0, double c = 0) {
  char buf[256];
  std::snprintf(buf, sizeof buf, fmt, a, b, c);
  return buf;
}

// ---------------------------------------------------------------------------
// LinkServer workloads: fleet_uplink and single_link_latency.

struct LinkPlan {
  std::size_t links;
  std::size_t frames_per_call;
  std::size_t calls_per_epoch;
  std::size_t sets;

  /// One warm-up frame, then the timed calls.
  std::size_t frames_per_link() const { return 1 + frames_per_call * calls_per_epoch; }
};

/// LinkServer::stats() accumulated over traced epochs.
struct ServerTrace {
  std::array<double, obs::kServerStages> busy_s{};
  double lane_s = 0.0;  ///< Lanes × timed wall time.
  obs::LatencyHistogram queue_wait_ns;
  double detections = 0.0, detection_attempts = 0.0;
};

const std::array<const char*, obs::kServerStages> kStageLayer = {
    "radar.synthesize", "radar.range_fft", "radar.if_correct", "radar.detect",
    "radar.decode"};
/// The staged pass's span around each stage, in kStageLayer order.
const std::array<const char*, obs::kServerStages> kStageSpan = {
    "perfbench.stage.synthesize", "perfbench.stage.range_fft",
    "perfbench.stage.if_correct", "perfbench.stage.detect",
    "perfbench.stage.decode"};

void link_epoch(const LinkPlan& plan, std::uint64_t seed, Samples& s,
                ServerTrace* trace, CacheDelta* cache, Epoch& e) {
  const auto t0 = Clock::now();
  const core::LinkServerConfig cfg =
      link_server_config(set_seed(seed, e.set), plan.links, kLanes);
  const bis::phy::SlopeAlphabet alphabet = cfg.base.make_alphabet();
  core::LinkServer server(cfg, alphabet);
  server.run(1);  // warm-up: plan caches, lane scratch, buffer capacities
  s.setup_s.push_back(seconds_since(t0));

  const auto t1 = Clock::now();
  {
    const TracedSection section(trace != nullptr, cache);
    for (std::size_t c = 0; c < plan.calls_per_epoch; ++c) {
      BIS_TRACE_SPAN("perfbench.link_server.run");
      const auto tc = Clock::now();
      server.run(plan.frames_per_call);
      const double dt = seconds_since(tc);
      s.latency_ms.push_back(dt * 1e3);
      s.throughput.push_back(static_cast<double>(plan.links * plan.frames_per_call) / dt);
    }
  }
  const double wall = seconds_since(t1);
  if (trace) {
    for (std::size_t k = 0; k < obs::kServerStages; ++k) {
      const auto stage = static_cast<obs::ServerStage>(k);
      trace->busy_s[k] += static_cast<double>(server.stats().snapshot(stage).busy_ns) / 1e9;
      trace->queue_wait_ns.merge(server.stats().wait_latency(stage));
    }
    trace->lane_s += static_cast<double>(kLanes) * wall;
    const obs::RunReport report = server.merged_report();
    trace->detections += static_cast<double>(report.detections);
    trace->detection_attempts += static_cast<double>(report.detection_attempts);
  }
  e.digest = link_server_digest(server);
  for (std::size_t i = 0; i < server.n_links(); ++i)
    e.finite = e.finite && std::isfinite(server.link(i).report().detector_snr_sum_db);
}

/// Input set 0's links frame by frame on the calling thread through the
/// public LinkSimulator stage calls, with a span around each frame and each
/// stage: the per-stage service times and the single-lane frame cost behind
/// the scaling efficiency. Returns the digest, which must equal the set's
/// reference.
std::string staged_pass(const LinkPlan& plan, std::uint64_t seed) {
  const TracedSection section(true);
  const core::LinkServerConfig cfg = link_server_config(set_seed(seed, 0), plan.links, 1);
  const bis::phy::SlopeAlphabet alphabet = cfg.base.make_alphabet();
  const std::size_t frames = plan.frames_per_link();
  std::vector<core::SequentialLinkResult> out(plan.links);
  core::UplinkFrameJob job;
  bis::phy::Bits bits;
  for (std::size_t i = 0; i < plan.links; ++i) {
    core::LinkSimulator sim(core::link_config(cfg, i, alphabet), alphabet);
    sim.warm_caches();
    bis::Rng payload_rng(cfg.payload_seed ^ core::link_seed(cfg, i));
    for (std::size_t f = 0; f < frames; ++f) {
      bits.clear();
      for (std::size_t b = 0; b < cfg.bits_per_frame; ++b)
        bits.push_back(payload_rng.coin() ? 1 : 0);
      {
        BIS_TRACE_SPAN("perfbench.link.frame");
        job.reset_result();
        sim.prepare_uplink_frame(bits, cfg.downlink_active, job);
        {
          BIS_TRACE_SPAN("perfbench.stage.synthesize");
          sim.stage_synthesize(job);
        }
        {
          BIS_TRACE_SPAN("perfbench.stage.range_fft");
          sim.stage_range_fft(job, nullptr);
        }
        {
          BIS_TRACE_SPAN("perfbench.stage.if_correct");
          sim.stage_if_correct(job, nullptr);
        }
        {
          BIS_TRACE_SPAN("perfbench.stage.detect");
          sim.stage_detect(job, nullptr);
        }
        {
          BIS_TRACE_SPAN("perfbench.stage.decode");
          sim.stage_decode(job);
        }
        sim.fold_uplink_frame(job);
      }
      const auto& decoded = job.result.decode.bits;
      out[i].decoded_bits.insert(out[i].decoded_bits.end(), decoded.begin(), decoded.end());
    }
    out[i].report = sim.report();
  }
  return link_results_digest(out);
}

void run_links(const LinkPlan& plan, Run& run) {
  const std::uint64_t seed = run.opt.seed;
  const std::uint64_t items = plan.links * plan.frames_per_link();
  run.repeat(run.measure_s(), plan.sets, items, [&](Epoch& e) {
    link_epoch(plan, seed, run.plain, nullptr, nullptr, e);
  });
  run.end_timed_part();

  if (run.opt.trace) {
    ServerTrace trace;
    obs::clear_trace();
    run.repeat(run.measure_s(), plan.sets, items, [&](Epoch& e) {
      link_epoch(plan, seed, run.traced, &trace, &run.cache, e);
    });
    Epoch staged;
    staged.items = items;
    try {
      staged.digest = staged_pass(plan, seed);
    } catch (const std::exception& ex) {
      run.notes.push_back(std::string("staged pass threw: ") + ex.what());
    }
    run.epochs.push_back(staged);

    const std::vector<obs::TraceEvent> events = obs::collect_trace();
    double busy_share = 0.0;
    for (std::size_t k = 0; k < obs::kServerStages; ++k) {
      const std::string name = kStageLayer[k];
      const double share = ratio(trace.busy_s[k], trace.lane_s);
      run.layer[name + ".share"] = share;
      run.layer[name + ".busy_us_p50"] = median(span_us(events, kStageSpan[k]));
      busy_share += share;
    }
    run.layer["radar.detect.hit_ratio"] =
        ratio(trace.detections, trace.detection_attempts);
    run.layer["core.link_server.wait_share"] = 1.0 - busy_share;
    run.layer["core.link_server.queue_wait_us_p50"] = trace.queue_wait_ns.p50() / 1e3;
    // Scaling efficiency: the staged pass's single-lane seconds per frame
    // (frame loop only, set-up excluded) over lanes × the untraced engine's
    // seconds per frame.
    const std::vector<double> frame_us = span_us(events, "perfbench.link.frame");
    const double staged_frame_s =
        ratio(sum(frame_us) / 1e6, static_cast<double>(frame_us.size()));
    const double engine_frame_s = 1.0 / median(run.plain.throughput);
    run.layer["core.link_server.scaling_eff"] =
        ratio(staged_frame_s, static_cast<double>(kLanes) * engine_frame_s);
    run.layer["trace.unattributed_share"] = 1.0 - busy_share;
  }

  // The sets' references are independent single-lane runs; compute them
  // side by side.
  std::vector<std::vector<core::SequentialLinkResult>> reference(plan.sets);
  bis::ThreadPool pool(kLanes);
  bis::parallel_for(&pool, 0, plan.sets, [&](std::size_t k) {
    reference[k] = core::run_links_sequential(
        link_server_config(set_seed(seed, k), plan.links, 1), plan.frames_per_link());
  });
  obs::RunReport merged;
  for (const auto& set : reference) {
    run.references.push_back(link_results_digest(set));
    for (const auto& link : set) merged.merge(link.report);
  }
  run.error_rate = merged.uplink_ber();
}

// ---------------------------------------------------------------------------
// inventory_drain.

/// Drain times and MAC counters accumulated over traced drains.
struct InventoryTrace {
  double drain_ms = 0.0;
  double reads = 0.0, responses = 0.0, slots = 0.0, collisions = 0.0, idles = 0.0;
  double detections = 0.0, detection_attempts = 0.0;
  std::vector<double> rounds_to_drain;
  double read_frac = 0.0;
};

void inventory_epoch(std::uint64_t seed, std::size_t threads, Samples& s,
                     InventoryTrace* trace, CacheDelta* cache, Epoch& e) {
  const auto t0 = Clock::now();
  core::InventoryEngine engine(inventory_population(set_seed(seed, 0), kInventoryTags, threads),
                               core::InventoryConfig{});
  engine.run_round();  // warm-up round: pool, plan caches, detector bank
  engine.reset();
  s.setup_s.push_back(seconds_since(t0));

  const obs::RunReport before = engine.report();
  const auto t1 = Clock::now();
  {
    const TracedSection section(trace != nullptr, cache);
    engine.run_until_drained();
  }
  const double dt = seconds_since(t1);

  double reads = 0.0, responses = 0.0;
  count_reads(engine, reads, responses);
  for (const auto& r : engine.rounds()) e.finite = e.finite && std::isfinite(r.q_fp_after);
  s.latency_ms.push_back(dt * 1e3);
  s.throughput.push_back(reads / dt);

  if (trace) {
    trace->drain_ms += dt * 1e3;
    trace->reads += reads;
    trace->responses += responses;
    for (const auto& r : engine.rounds()) {
      trace->slots += static_cast<double>(r.slots);
      trace->collisions += static_cast<double>(r.collision_slots);
      trace->idles += static_cast<double>(r.idle_slots);
    }
    const obs::RunReport after = engine.report();
    trace->detections += static_cast<double>(after.detections - before.detections);
    trace->detection_attempts +=
        static_cast<double>(after.detection_attempts - before.detection_attempts);
    trace->rounds_to_drain.push_back(static_cast<double>(engine.rounds().size()));
    trace->read_frac = reads / static_cast<double>(engine.population());
  }
  e.digest = inventory_digest(engine);
}

void run_inventory(Run& run) {
  const std::uint64_t seed = run.opt.seed;
  run.repeat(run.measure_s(), 1, kInventoryTags, [&](Epoch& e) {
    inventory_epoch(seed, kLanes, run.plain, nullptr, nullptr, e);
  });
  run.end_timed_part();

  if (run.opt.trace) {
    InventoryTrace trace;
    obs::clear_trace();
    run.repeat(run.measure_s(), 1, kInventoryTags, [&](Epoch& e) {
      inventory_epoch(seed, kLanes, run.traced, &trace, &run.cache, e);
    });
    // The program's own spans: one per Query round, and the assemble/detect
    // split inside InventoryEngine::run_round.
    const obs::SpanStats rounds = span_stats("core.inventory_round");
    const obs::SpanStats assemble = span_stats("core.slot_frame_assemble");
    const obs::SpanStats detect_slots = span_stats("radar.detect_slots");
    const double assembly = ratio(assemble.total_ms, trace.drain_ms);
    const double detect = ratio(detect_slots.total_ms, trace.drain_ms);
    const double mac =
        ratio(rounds.total_ms - assemble.total_ms - detect_slots.total_ms, trace.drain_ms);
    run.layer["core.slot_assembly.share"] = assembly;
    run.layer["core.slot_assembly.busy_ms_per_batch"] =
        ratio(assemble.total_ms, static_cast<double>(assemble.count));
    run.layer["radar.detect.share"] = detect;
    run.layer["radar.detect.busy_us_p50"] =
        median(span_us(obs::collect_trace(), "radar.detect_slots"));
    run.layer["radar.detect.hit_ratio"] = ratio(trace.detections, trace.detection_attempts);
    run.layer["core.mac.share"] = mac;
    run.layer["core.mac.read_ratio"] = ratio(trace.reads, trace.responses);
    run.layer["core.mac.collision_frac"] = ratio(trace.collisions, trace.slots);
    run.layer["core.mac.idle_frac"] = ratio(trace.idles, trace.slots);
    run.layer["core.mac.rounds_to_drain"] = median(trace.rounds_to_drain);
    run.layer["core.mac.read_frac"] = trace.read_frac;
    run.layer["trace.unattributed_share"] = 1.0 - assembly - detect - mac;
  }

  core::InventoryEngine reference(inventory_population(set_seed(seed, 0), kInventoryTags, 1),
                                  core::InventoryConfig{});
  reference.run_round();
  reference.reset();
  reference.run_until_drained();
  run.references.push_back(inventory_digest(reference));
  double reads = 0.0, responses = 0.0;
  count_reads(reference, reads, responses);
  run.error_rate = 1.0 - ratio(reads, responses);
  run.notes.push_back(note("reference drain: %.0f rounds, %.0f of %.0f tags read",
                           static_cast<double>(reference.rounds().size()), reads,
                           static_cast<double>(reference.population())));
}

// ---------------------------------------------------------------------------
// downlink_ber_sweep.

void sweep_epoch(std::uint64_t seed, Samples& s, CacheDelta* cache, Epoch& e) {
  const auto t0 = Clock::now();
  const std::vector<core::SweepPoint> grid = downlink_sweep_grid();
  const core::SweepRunner runner(
      downlink_sweep_options(set_seed(seed, e.set), kLanes, kSweepMinBits));
  // Warm-up: one single-packet point per symbol size (calibration, frontend
  // and decoder caches, the pool's thread-local scratch).
  std::vector<core::SweepPoint> warm;
  for (const auto& p : grid)
    if (p.axis == grid.front().axis) warm.push_back(p);
  core::SweepOptions warm_opts = runner.options();
  warm_opts.workload.min_bits = warm_opts.workload.payload_bits;
  core::SweepRunner(warm_opts).run(warm);
  s.setup_s.push_back(seconds_since(t0));

  const auto t1 = Clock::now();
  core::SweepResult result;
  {
    const TracedSection section(cache != nullptr, cache);
    BIS_TRACE_SPAN("perfbench.sweep_runner.run");
    result = runner.run(grid);
  }
  const double dt = seconds_since(t1);
  s.latency_ms.push_back(dt * 1e3);
  s.throughput.push_back(static_cast<double>(grid.size()) / dt);
  for (const auto& p : result.points)
    e.finite = e.finite && std::isfinite(p.downlink.ber) &&
               std::isfinite(p.downlink.envelope_snr_db);
  e.digest = sweep_digest(result);
}

/// One downlink packet as LinkSimulator::run_downlink sends it, through the
/// public tag calls, with a span around the frontend and the decoder.
void traced_packet(core::LinkSimulator& sim, const bis::phy::Bits& payload,
                   core::BerMeasurement& m) {
  const core::SystemConfig& cfg = sim.config();
  const bis::phy::DownlinkPacket packet(cfg.packet, payload);
  const bis::rf::ChirpFrame frame = packet.to_frame(sim.alphabet());
  const auto paths = sim.incident_paths(cfg.tag_range_m);
  bis::tag::TagNode& tag = sim.tag_node();
  tag.frontend().auto_gain(paths);
  const std::unique_ptr<bool[]> absorptive(new bool[frame.size()]);
  std::fill_n(absorptive.get(), frame.size(), true);
  bis::dsp::RVec stream;
  {
    BIS_TRACE_SPAN("perfbench.tag.frontend");
    stream = tag.frontend().receive_frame(
        frame.chirps(), paths,
        std::span<const bool>(absorptive.get(), frame.size()));
  }
  bis::tag::TagNode::DownlinkReception rx;
  {
    BIS_TRACE_SPAN("perfbench.tag.decode");
    rx = tag.receive_downlink(stream, cfg.packet);
  }
  const auto& sent = packet.framed_bits();
  ++m.packets;
  m.bits += sent.size();
  if (!rx.decode.locked) {
    m.errors += sent.size();
    return;
  }
  ++m.packets_locked;
  const auto& got = rx.decode.bits;
  for (std::size_t i = 0; i < sent.size(); ++i)
    if (i >= got.size() || got[i] != sent[i]) ++m.errors;
}

/// The sweep's points on a kLanes pool, each point's measure_downlink_ber
/// spelled out in public calls with spans around calibration, frontend and
/// decoder. Returns how many points disagree with @p reference.
std::size_t traced_sweep(std::uint64_t seed, const core::SweepResult& reference,
                         double& wall_s) {
  const std::vector<core::SweepPoint> grid = downlink_sweep_grid();
  const core::SweepOptions opts =
      downlink_sweep_options(set_seed(seed, 0), kLanes, kSweepMinBits);
  std::map<std::size_t, bis::phy::SlopeAlphabet> alphabets;
  for (const auto& p : grid)
    if (!alphabets.count(p.config.bits_per_symbol))
      alphabets.emplace(p.config.bits_per_symbol, p.config.make_alphabet());
  std::vector<bis::Rng> streams;  // SweepRunner's substreams: one jump per point
  bis::Rng walker(opts.master_seed);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    streams.push_back(walker);
    walker.jump();
  }
  std::vector<core::BerMeasurement> out(grid.size());
  bis::ThreadPool pool(kLanes);
  const TracedSection section(true);
  const auto t0 = Clock::now();
  bis::parallel_for(&pool, 0, grid.size(), [&](std::size_t i) {
    core::SystemConfig cfg = grid[i].config;
    bis::Rng rng = streams[i];
    cfg.seed = rng.next_u64();
    cfg.dsp_threads = 1;
    BIS_TRACE_SPAN("perfbench.sweep.point");
    core::LinkSimulator sim(cfg, alphabets.at(cfg.bits_per_symbol));
    {
      BIS_TRACE_SPAN("perfbench.tag.calibrate");
      sim.calibrate_tag();
    }
    while (out[i].bits < opts.workload.min_bits)
      traced_packet(sim, rng.bits(opts.workload.payload_bits), out[i]);
  });
  wall_s = seconds_since(t0);
  std::size_t mismatched = 0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const core::BerMeasurement& want = reference.points[i].downlink;
    if (out[i].bits != want.bits || out[i].errors != want.errors ||
        out[i].packets != want.packets || out[i].packets_locked != want.packets_locked)
      ++mismatched;
  }
  return mismatched;
}

void run_sweep(Run& run) {
  const std::uint64_t seed = run.opt.seed;
  const std::uint64_t points = downlink_sweep_grid().size();
  run.repeat(run.measure_s(), kSweepInputSets, points, [&](Epoch& e) {
    sweep_epoch(seed, run.plain, nullptr, e);
  });
  run.end_timed_part();

  // Single-lane sweeps, one per input set, side by side.
  std::vector<core::SweepResult> references(kSweepInputSets);
  bis::ThreadPool pool(kLanes);
  bis::parallel_for(&pool, 0, kSweepInputSets, [&](std::size_t k) {
    references[k] =
        core::SweepRunner(downlink_sweep_options(set_seed(seed, k), 1, kSweepMinBits))
            .run(downlink_sweep_grid());
  });
  obs::RunReport merged;
  for (const auto& r : references) {
    run.references.push_back(sweep_digest(r));
    merged.merge(r.report);
  }
  run.error_rate = merged.downlink_ber();
  const core::SweepResult& reference = references.front();

  if (run.opt.trace) {
    obs::clear_trace();
    run.repeat(run.measure_s(), kSweepInputSets, points, [&](Epoch& e) {
      sweep_epoch(seed, run.traced, &run.cache, e);
    });
    // The replay is checked point by point: matching points pass under the
    // reference digest, mismatched ones fail as an epoch without one.
    double wall_s = 0.0;
    Epoch replica;
    replica.items = points;
    try {
      const std::size_t bad = traced_sweep(seed, reference, wall_s);
      replica.items = points - bad;
      replica.digest = run.references.front();
      Epoch mismatched;
      mismatched.items = bad;
      run.epochs.push_back(mismatched);
    } catch (const std::exception& ex) {
      run.notes.push_back(std::string("traced sweep threw: ") + ex.what());
    }
    run.epochs.push_back(replica);

    const std::vector<obs::TraceEvent> events = obs::collect_trace();
    const double lane_us = static_cast<double>(kLanes) * wall_s * 1e6;
    double attributed = 0.0;
    const auto layer_share = [&](const char* name) {
      const double share = ratio(sum(span_us(events, name)), lane_us);
      attributed += share;
      return share;
    };
    run.layer["tag.calibrate.share"] = layer_share("perfbench.tag.calibrate");
    run.layer["tag.frontend.share"] = layer_share("perfbench.tag.frontend");
    run.layer["tag.decode.share"] = layer_share("perfbench.tag.decode");
    const auto mean = [](const std::vector<double>& v) {
      return ratio(sum(v), static_cast<double>(v.size()));
    };
    run.layer["tag.calibrate.ms_per_point"] =
        mean(span_us(events, "perfbench.tag.calibrate")) / 1e3;
    run.layer["tag.frontend.us_per_packet"] = mean(span_us(events, "perfbench.tag.frontend"));
    run.layer["tag.decode.us_per_packet"] = mean(span_us(events, "perfbench.tag.decode"));
    double packets = 0.0, locked = 0.0;
    for (const auto& p : reference.points) {
      packets += static_cast<double>(p.downlink.packets);
      locked += static_cast<double>(p.downlink.packets_locked);
    }
    run.layer["tag.decode.lock_ratio"] = ratio(locked, packets);
    std::vector<double> point_s = span_us(events, "perfbench.sweep.point");
    for (double& v : point_s) v /= 1e6;
    run.layer["core.sweep_runner.point_s_p50"] = median(point_s);
    run.layer["core.sweep_runner.point_s_max"] = quantile(point_s, 1.0);
    run.layer["trace.unattributed_share"] = 1.0 - attributed;
  }
}

}  // namespace

// ---------------------------------------------------------------------------

namespace {

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kFleetUplink: return "fleet_uplink";
    case Workload::kSingleLinkLatency: return "single_link_latency";
    case Workload::kInventoryDrain: return "inventory_drain";
    case Workload::kDownlinkBerSweep: return "downlink_ber_sweep";
  }
  return "?";
}

}  // namespace

bool parse_workload(std::string_view name, Workload& out) {
  for (Workload w : {Workload::kFleetUplink, Workload::kSingleLinkLatency,
                     Workload::kInventoryDrain, Workload::kDownlinkBerSweep}) {
    if (name == workload_name(w)) {
      out = w;
      return true;
    }
  }
  return false;
}

core::LinkServerConfig link_server_config(std::uint64_t seed, std::size_t links,
                                          std::size_t workers) {
  core::LinkServerConfig cfg;
  cfg.base.seed = derive_seed(seed, 1);
  cfg.base.tag_range_m = 4.0;
  cfg.base.tag.node.uplink.scheme = bis::phy::UplinkScheme::kOok;
  cfg.base.tag.node.uplink.mod_frequencies_hz = {2000.0};
  cfg.base.tag.node.uplink.chirps_per_symbol = 16;
  cfg.n_links = links;
  cfg.workers = workers;
  cfg.bits_per_frame = 2;
  cfg.payload_seed = derive_seed(seed, 2);
  cfg.downlink_active = true;
  cfg.collect_bits = true;
  return cfg;
}

core::NetworkConfig inventory_population(std::uint64_t seed, std::size_t tags,
                                         std::size_t dsp_threads) {
  core::SystemConfig base;
  base.seed = derive_seed(seed, 3);
  core::NetworkConfig net = core::make_inventory_population(tags, base);
  net.base.dsp_threads = dsp_threads;
  return net;
}

std::vector<core::SweepPoint> downlink_sweep_grid() {
  const std::vector<double> distances = {0.5, 1.0, 2.0, 3.0, 5.0, 7.0, 9.0, 11.0};
  std::vector<core::SweepPoint> grid;
  for (std::size_t bits : {4u, 5u, 6u}) {
    core::SystemConfig base;
    base.bits_per_symbol = bits;
    for (const auto& p : core::range_sweep_grid(base, distances)) grid.push_back(p);
  }
  return grid;
}

core::SweepOptions downlink_sweep_options(std::uint64_t seed, std::size_t threads,
                                          std::size_t min_bits) {
  core::SweepOptions opts;
  opts.mode = core::SweepMode::kDownlinkBer;
  opts.master_seed = derive_seed(seed, 4);
  opts.threads = threads;
  opts.workload.min_bits = min_bits;
  opts.workload.payload_bits = 120;
  return opts;
}

namespace {

void add_link(Digest& d, const bis::phy::Bits& bits, const std::string& outcome_key) {
  d.u64(bits.size());
  for (int b : bits) d.u64(static_cast<std::uint64_t>(b));
  d.str(outcome_key);
}

}  // namespace

std::string link_server_digest(const core::LinkServer& server) {
  Digest d;
  for (std::size_t i = 0; i < server.n_links(); ++i)
    add_link(d, server.decoded_bits(i), server.link(i).report().outcome_key());
  return d.hex();
}

std::string link_results_digest(const std::vector<core::SequentialLinkResult>& links) {
  Digest d;
  for (const auto& link : links) add_link(d, link.decoded_bits, link.report.outcome_key());
  return d.hex();
}

std::string inventory_digest(const core::InventoryEngine& engine) {
  Digest d;
  const std::vector<std::uint8_t> set = engine.inventoried_set();
  d.u64(set.size());
  d.bytes(set.data(), set.size());
  for (const core::InventoryRound& r : engine.rounds()) {
    d.u64(r.round);
    d.u64(r.q);
    d.u64(r.slots);
    d.u64(r.idle_slots);
    d.u64(r.singleton_slots);
    d.u64(r.collision_slots);
    d.u64(r.reads);
    d.u64(r.pending_after);
    d.f64(r.q_fp_after);
  }
  return d.hex();
}

std::string sweep_digest(const core::SweepResult& result) {
  Digest d;
  d.str(core::sweep_to_json(result));
  return d.hex();
}

namespace {

/// Names and units of the end-to-end and per-layer metrics, in output order.
const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics = {
      {"setup_s", 0.0, "s"},           {"peak_rss_mb", 0.0, "MB"},
      {"throughput_per_s", 0.0, "1/s"}, {"latency_p50_ms", 0.0, "ms"},
      {"latency_tail_ms", 0.0, "ms"},  {"error_rate", 0.0, "ratio"},
  };
  return metrics;
}

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics = {
      {"radar.synthesize.busy_us_p50", 0.0, "us"},
      {"radar.synthesize.share", 0.0, "ratio"},
      {"radar.range_fft.busy_us_p50", 0.0, "us"},
      {"radar.range_fft.share", 0.0, "ratio"},
      {"radar.if_correct.busy_us_p50", 0.0, "us"},
      {"radar.if_correct.share", 0.0, "ratio"},
      {"radar.if_correct.regrid_hit_ratio", 0.0, "ratio"},
      {"radar.detect.busy_us_p50", 0.0, "us"},
      {"radar.detect.share", 0.0, "ratio"},
      {"radar.detect.hit_ratio", 0.0, "ratio"},
      {"radar.decode.busy_us_p50", 0.0, "us"},
      {"radar.decode.share", 0.0, "ratio"},
      {"core.link_server.wait_share", 0.0, "ratio"},
      {"core.link_server.queue_wait_us_p50", 0.0, "us"},
      {"core.link_server.scaling_eff", 0.0, "ratio"},
      {"core.slot_assembly.busy_ms_per_batch", 0.0, "ms"},
      {"core.slot_assembly.share", 0.0, "ratio"},
      {"core.mac.share", 0.0, "ratio"},
      {"core.mac.read_ratio", 0.0, "ratio"},
      {"core.mac.collision_frac", 0.0, "ratio"},
      {"core.mac.idle_frac", 0.0, "ratio"},
      {"core.mac.rounds_to_drain", 0.0, "count"},
      {"core.mac.read_frac", 0.0, "ratio"},
      {"tag.calibrate.ms_per_point", 0.0, "ms"},
      {"tag.calibrate.share", 0.0, "ratio"},
      {"tag.frontend.us_per_packet", 0.0, "us"},
      {"tag.frontend.share", 0.0, "ratio"},
      {"tag.decode.us_per_packet", 0.0, "us"},
      {"tag.decode.share", 0.0, "ratio"},
      {"tag.decode.lock_ratio", 0.0, "ratio"},
      {"core.sweep_runner.point_s_p50", 0.0, "s"},
      {"core.sweep_runner.point_s_max", 0.0, "s"},
      {"dsp.fft.plan_hit_ratio", 0.0, "ratio"},
      {"trace.overhead_frac", 0.0, "ratio"},
      {"trace.unattributed_share", 0.0, "ratio"},
  };
  return metrics;
}

}  // namespace

RunResult run_workload(const RunOptions& options) {
  Run run(options);
  RunResult result;
  try {
    switch (options.workload) {
      case Workload::kFleetUplink:
        run_links({kFleetLinks, kFleetFramesPerCall, kFleetCallsPerEpoch,
                   kFleetInputSets},
                  run);
        break;
      case Workload::kSingleLinkLatency:
        run_links({1, 1, kSingleCallsPerEpoch, kSingleInputSets}, run);
        break;
      case Workload::kInventoryDrain:
        run_inventory(run);
        break;
      case Workload::kDownlinkBerSweep:
        run_sweep(run);
        break;
    }
  } catch (const std::exception& ex) {
    // The reference itself failed: nothing measured can be vouched for.
    run.notes.push_back(std::string("reference threw: ") + ex.what());
    run.references.clear();
  }
  // One digest for the run: its sets' reference digests in order.
  if (!run.references.empty()) {
    Digest combined;
    for (const std::string& d : run.references) combined.str(d);
    result.reference_digest = combined.hex();
  }
  result.probe_ms = {run.probe_before_ms, run.probe_after_ms};
  result.notes = std::move(run.notes);

  const bool recorded_ok = options.recorded_digest.empty() ||
                           options.recorded_digest == result.reference_digest;
  if (!recorded_ok)
    result.notes.push_back("reference digest " + result.reference_digest +
                           " differs from the recorded " + options.recorded_digest);
  for (const Epoch& e : run.epochs) {
    result.attempted += e.items;
    const bool matches =
        e.set < run.references.size() && e.digest == run.references[e.set];
    if (!recorded_ok || !matches || !e.finite) result.failed += e.items;
  }
  result.attempted = std::max<std::uint64_t>(result.attempted, 1);

  if (!options.trace) {
    const Samples& s = run.plain;
    const Tail tail = tail_quantile(s.latency_ms);
    result.notes.push_back(note("latency: %.0f requests, tail at p%.2f with %.0f beyond",
                                static_cast<double>(tail.count), 100.0 * tail.q,
                                static_cast<double>(tail.beyond)));
    result.notes.push_back(note("set-ups: %.0f", static_cast<double>(s.setup_s.size())));
    result.metrics = end_to_end_metrics();
    for (Metric& m : result.metrics) {
      if (m.name == "setup_s") m.value = median(s.setup_s);
      else if (m.name == "peak_rss_mb") m.value = run.peak_rss;
      else if (m.name == "throughput_per_s") m.value = median(s.throughput);
      else if (m.name == "latency_p50_ms") m.value = median(s.latency_ms);
      else if (m.name == "latency_tail_ms") m.value = tail.value;
      else if (m.name == "error_rate") m.value = run.error_rate;
    }
  } else {
    run.layer["dsp.fft.plan_hit_ratio"] = ratio(run.cache.fft_hits, run.cache.fft_lookups);
    run.layer["radar.if_correct.regrid_hit_ratio"] =
        ratio(run.cache.regrid_hits, run.cache.regrid_lookups);
    run.layer["trace.overhead_frac"] =
        std::abs(ratio(median(run.plain.throughput), median(run.traced.throughput)) - 1.0);
    result.metrics = per_layer_metrics();
    for (Metric& m : result.metrics) {
      const auto it = run.layer.find(m.name);
      if (it != run.layer.end()) m.value = it->second;
    }
  }
  result.correct = result.failed == 0;
  for (const Metric& m : result.metrics) result.correct = result.correct && std::isfinite(m.value);
  return result;
}

}  // namespace perfbench
