#pragma once

/// @file tag_modulator.hpp
/// Uplink modulation controller (paper §3.2.3): drives the RF switch so the
/// retro-reflection follows the uplink square wave, and reports which chirps
/// are absorptive (available for downlink decoding) — the scheduling hook
/// the integrated ISAC protocol relies on.

#include <vector>

#include "phy/bits.hpp"
#include "phy/uplink.hpp"

namespace bis::tag {

class TagModulator {
 public:
  explicit TagModulator(phy::UplinkConfig config);

  /// Queue data bits for transmission.
  void queue_bits(const phy::Bits& bits);

  /// Per-chirp switch states for the next @p n_chirps chirps
  /// (1 = reflective, 0 = absorptive). When the queue is empty the tag
  /// idles at its assigned modulation frequency so the radar can keep
  /// localizing it (localization beacon behaviour, paper §3.3).
  std::vector<int> next_states(std::size_t n_chirps);

  /// Buffer-reusing variant for the streaming engine: identical states,
  /// written into @p out (cleared first) with no per-call allocation once
  /// capacities are warm.
  void next_states(std::size_t n_chirps, std::vector<int>& out);

  /// Bits still queued.
  std::size_t pending_bits() const { return queue_.size(); }

  /// Drop every queued bit and the unemitted states of a partly sent
  /// symbol: the frame carrying them has ended. The beacon phase carries
  /// on.
  void discard_pending();

  const phy::UplinkConfig& config() const { return config_; }

 private:
  phy::UplinkConfig config_;
  phy::Bits queue_;
  std::vector<int> pending_states_;  ///< Modulated but not yet emitted.
  std::size_t beacon_chirp_index_ = 0;
};

}  // namespace bis::tag
