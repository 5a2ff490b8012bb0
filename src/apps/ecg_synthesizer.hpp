// Synthetic ECG waveform generator.
//
// Substitutes the live electrodes of the physical platform (see DESIGN.md):
// a sum-of-Gaussians PQRST morphology repeated at a configurable heart rate
// with beat-to-beat RR variability, plus small deterministic noise.  The
// paper's validation drives the Rpeak application with a 75 beats/min ECG;
// this generator reproduces that stimulus and, because it is seeded, both
// fidelity runs of an experiment see bit-identical signals.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace bansim::apps {

struct EcgConfig {
  double heart_rate_bpm{75.0};
  double rr_variability{0.03};   ///< stddev of RR as a fraction of the mean
  double baseline_volts{1.25};   ///< mid-scale of the front-end output
  double r_amplitude_volts{0.6}; ///< R-peak height above baseline
  double noise_volts{0.005};     ///< broadband noise amplitude
};

class EcgSynthesizer {
 public:
  EcgSynthesizer(const EcgConfig& config, sim::Rng rng);

  /// Front-end output voltage at simulated time `t`.
  [[nodiscard]] double sample(sim::TimePoint t);

  /// True R-peak instants generated so far up to `until` (ground truth for
  /// detector accuracy tests).  Extends the beat train as needed.
  [[nodiscard]] std::vector<sim::TimePoint> beats_until(sim::TimePoint until);

  [[nodiscard]] const EcgConfig& config() const { return config_; }

 private:
  /// Ensures the beat train covers `t` plus one beat of lookahead.
  void extend(sim::TimePoint t);

  /// Morphology around one R peak; `dt` in seconds relative to the peak.
  [[nodiscard]] double pqrst(double dt) const;

  EcgConfig config_;
  sim::Rng rng_;
  std::vector<sim::TimePoint> beats_;  ///< R-peak times, ascending
  sim::TimePoint horizon_{sim::TimePoint::zero()};
};

}  // namespace bansim::apps
