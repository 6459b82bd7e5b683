#include "obs/report.hpp"

#include <cstdio>
#include <ostream>
#include <sstream>

#include "common/json.hpp"
#include "obs/server_stats.hpp"
#include "obs/telemetry.hpp"

namespace bis::obs {
namespace {

double rate(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kSynthesize: return "synthesize";
    case Stage::kRangeFft: return "range_fft";
    case Stage::kIfCorrect: return "if_correct";
    case Stage::kDetect: return "detect";
    case Stage::kDecode: return "decode";
    case Stage::kTagFrontend: return "tag_frontend";
    case Stage::kTagDecode: return "tag_decode";
  }
  return "?";
}

double RunReport::sync_lock_rate() const { return rate(sync_locks, sync_attempts); }
double RunReport::crc_pass_rate() const { return rate(crc_passes, crc_attempts); }
double RunReport::downlink_ber() const {
  return rate(downlink_bit_errors, downlink_bits);
}
double RunReport::uplink_ber() const { return rate(uplink_bit_errors, uplink_bits); }
double RunReport::mean_detector_snr_db() const {
  return detection_attempts == 0
             ? 0.0
             : detector_snr_sum_db / static_cast<double>(detection_attempts);
}

void RunReport::merge(const RunReport& other) {
  if (config.empty()) config = other.config;
  downlink_frames += other.downlink_frames;
  uplink_frames += other.uplink_frames;
  integrated_frames += other.integrated_frames;
  chirps_processed += other.chirps_processed;
  sync_attempts += other.sync_attempts;
  sync_locks += other.sync_locks;
  crc_attempts += other.crc_attempts;
  crc_passes += other.crc_passes;
  downlink_bits += other.downlink_bits;
  downlink_bit_errors += other.downlink_bit_errors;
  detection_attempts += other.detection_attempts;
  detections += other.detections;
  mod_freq_collisions += other.mod_freq_collisions;
  uplink_bits += other.uplink_bits;
  uplink_bit_errors += other.uplink_bit_errors;
  uplink_bits_dropped += other.uplink_bits_dropped;
  inventory_rounds += other.inventory_rounds;
  inventory_slots += other.inventory_slots;
  inventory_singletons += other.inventory_singletons;
  inventory_collisions += other.inventory_collisions;
  inventory_idles += other.inventory_idles;
  inventory_reads += other.inventory_reads;
  detector_snr_sum_db += other.detector_snr_sum_db;
  last_detector_snr_db = other.last_detector_snr_db;
  for (std::size_t i = 0; i < kStages; ++i) stage_s[i] += other.stage_s[i];
}

void RunReport::append_json(std::string& out) const {
  // Rates/SNRs can be NaN (no attempts yet) or ±Inf (zero-noise SNR); the
  // writer maps non-finite doubles to null so the report always parses.
  JsonWriter w(out);
  w.begin_object();
  w.key("config").value(config);
  w.key("frames").begin_object();
  w.key("downlink").value(downlink_frames);
  w.key("uplink").value(uplink_frames);
  w.key("integrated").value(integrated_frames);
  w.end_object();
  w.key("chirps_processed").value(chirps_processed);
  w.key("downlink").begin_object();
  w.key("sync_attempts").value(sync_attempts);
  w.key("sync_locks").value(sync_locks);
  w.key("sync_lock_rate").value(sync_lock_rate());
  w.key("crc_attempts").value(crc_attempts);
  w.key("crc_passes").value(crc_passes);
  w.key("crc_pass_rate").value(crc_pass_rate());
  w.key("bits").value(downlink_bits);
  w.key("bit_errors").value(downlink_bit_errors);
  w.key("ber").value(downlink_ber());
  w.end_object();
  w.key("uplink").begin_object();
  w.key("detection_attempts").value(detection_attempts);
  w.key("detections").value(detections);
  w.key("mod_freq_collisions").value(mod_freq_collisions);
  w.key("bits").value(uplink_bits);
  w.key("bit_errors").value(uplink_bit_errors);
  w.key("bits_dropped").value(uplink_bits_dropped);
  w.key("ber").value(uplink_ber());
  w.key("detector_snr_db").value(last_detector_snr_db);
  w.key("mean_detector_snr_db").value(mean_detector_snr_db());
  w.end_object();
  w.key("inventory").begin_object();
  w.key("rounds").value(inventory_rounds);
  w.key("slots").value(inventory_slots);
  w.key("singletons").value(inventory_singletons);
  w.key("collisions").value(inventory_collisions);
  w.key("idles").value(inventory_idles);
  w.key("reads").value(inventory_reads);
  w.key("collision_rate").value(rate(inventory_collisions, inventory_slots));
  w.key("empty_slot_rate").value(rate(inventory_idles, inventory_slots));
  w.end_object();
  w.key("stage_seconds").begin_object();
  for (std::size_t i = 0; i < kStages; ++i)
    w.key(stage_name(static_cast<Stage>(i))).value(stage_s[i]);
  w.end_object();
  w.end_object();
}

void RunReport::write_json(std::ostream& os) const { os << to_json(); }

std::string RunReport::to_json() const {
  std::string out;
  out.reserve(768);
  append_json(out);
  return out;
}

std::string RunReport::outcome_key() const {
  char snr[64];
  std::snprintf(snr, sizeof snr, "%.17g|%.17g", detector_snr_sum_db,
                last_detector_snr_db);
  std::ostringstream oss;
  oss << downlink_frames << '|' << uplink_frames << '|' << integrated_frames
      << '|' << chirps_processed << '|' << sync_attempts << '|' << sync_locks
      << '|' << crc_attempts << '|' << crc_passes << '|' << downlink_bits
      << '|' << downlink_bit_errors << '|' << detection_attempts << '|'
      << detections << '|' << uplink_bits << '|' << uplink_bit_errors << '|'
      << snr;
  return oss.str();
}

StageScope::StageScope(Stage stage, RunReport& report,
                       ServerStatsCollector* server)
    : stage_(stage), report_(report), server_(server), timed_(enabled()) {
  if (timed_) start_ns_ = now_ns();
}

StageScope::~StageScope() {
  std::uint64_t busy_ns = 0;
  if (timed_) {
    busy_ns = now_ns() - start_ns_;
    report_.stage_s[static_cast<std::size_t>(stage_)] +=
        static_cast<double>(busy_ns) / 1e9;
  }
  if (server_ != nullptr) server_->record(stage_, 0, busy_ns);
}

}  // namespace bis::obs
