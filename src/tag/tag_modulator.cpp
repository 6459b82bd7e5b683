#include "tag/tag_modulator.hpp"

#include <cmath>

#include "common/check.hpp"

namespace bis::tag {

TagModulator::TagModulator(phy::UplinkConfig config) : config_(std::move(config)) {
  phy::validate_uplink_config(config_);
}

void TagModulator::queue_bits(const phy::Bits& bits) {
  BIS_CHECK(phy::is_bit_vector(bits));
  queue_.insert(queue_.end(), bits.begin(), bits.end());
}

void TagModulator::discard_pending() {
  queue_.clear();
  pending_states_.clear();
}

std::vector<int> TagModulator::next_states(std::size_t n_chirps) {
  std::vector<int> out;
  next_states(n_chirps, out);
  return out;
}

void TagModulator::next_states(std::size_t n_chirps, std::vector<int>& out) {
  out.clear();
  out.reserve(n_chirps);

  while (out.size() < n_chirps) {
    if (!pending_states_.empty()) {
      const std::size_t take =
          std::min(n_chirps - out.size(), pending_states_.size());
      out.insert(out.end(), pending_states_.begin(),
                 pending_states_.begin() + static_cast<long>(take));
      pending_states_.erase(pending_states_.begin(),
                            pending_states_.begin() + static_cast<long>(take));
      continue;
    }
    const std::size_t bps = phy::uplink_bits_per_symbol(config_);
    if (queue_.size() >= bps) {
      // Modulate the next whole symbol: pack it MSB-first (exactly what
      // bits_to_symbols does for a whole symbol) and append its states into
      // the retained buffer — no temporaries on the streaming path. The
      // config was validated in the constructor, the bits in queue_bits.
      std::size_t sym = 0;
      for (std::size_t b = 0; b < bps; ++b)
        sym = (sym << 1) | static_cast<std::size_t>(queue_[b]);
      queue_.erase(queue_.begin(), queue_.begin() + static_cast<long>(bps));
      pending_states_.clear();
      phy::uplink_append_symbol_states(config_, sym, pending_states_);
    } else {
      // Beacon: keep toggling at the assigned frequency so the radar can
      // localize the tag between messages.
      const double f = config_.mod_frequencies_hz.front();
      const double t =
          static_cast<double>(beacon_chirp_index_++) * config_.chirp_period_s;
      const double phase = t * f - std::floor(t * f);
      out.push_back(phase < config_.duty_cycle ? 1 : 0);
    }
  }
}

}  // namespace bis::tag
