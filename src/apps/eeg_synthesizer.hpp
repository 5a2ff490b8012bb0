// Synthetic multi-channel EEG generator.
//
// The platform monitors up to 24 EEG channels (Section 3); this source
// provides per-channel waveforms built from the classic EEG rhythm bands —
// alpha (8-13 Hz), beta (13-30 Hz), theta (4-8 Hz) — with per-channel
// random phases/weights plus 1/f-ish background activity.  Deterministic
// per (seed, channel), so both fidelity runs and the base-station checks
// see identical signals.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bansim::apps {

struct EegConfig {
  std::uint32_t channels{8};
  double baseline_volts{1.25};
  double amplitude_volts{0.20};  ///< peak rhythm amplitude after front-end gain
  double noise_volts{0.01};
};

class EegSynthesizer {
 public:
  EegSynthesizer(const EegConfig& config, std::uint64_t seed);

  /// Channel voltage at simulated time `t`.
  [[nodiscard]] double sample(std::uint32_t channel, sim::TimePoint t) const;

  [[nodiscard]] const EegConfig& config() const { return config_; }

 private:
  struct Component {
    double amplitude;  ///< fraction of amplitude_volts
    double hz;
    double phase;
  };

  EegConfig config_;
  std::vector<std::vector<Component>> per_channel_;
};

}  // namespace bansim::apps
