// Streaming R-peak detection algorithm.
//
// Reproduces the paper's application contract (Section 5.2): the main loop
// feeds one sample per call; the algorithm returns 0 when the sample train
// contains no new beat, or a positive value N meaning "the sample submitted
// N calls ago was an R peak".  Internally this is a compact Pan-Tompkins
// pipeline — derivative, squaring, moving-window integration, adaptive
// threshold with a refractory period — sized for a 200 Hz input.
//
// step() also reports the *cycle cost* of this invocation, because the real
// code path is data dependent: quiet samples exit early, threshold
// crossings run the peak-confirmation logic.  The reference scheduler
// charges these actual cycles; the estimation model charges the calibrated
// average — the paper's µC estimation-error mechanism.
#pragma once

#include <cstdint>
#include <deque>

namespace bansim::apps {

struct RpeakResult {
  /// 0: no beat; N>0: the sample N calls ago was an R peak.
  std::uint32_t beat_samples_ago{0};
  /// Actual MCU cycles this invocation would cost on the platform.
  std::uint32_t work_cycles{0};
};

class RpeakDetector {
 public:
  explicit RpeakDetector(double sample_rate_hz = 200.0);

  /// Feeds one ADC code (12-bit, baseline-centered input expected).
  RpeakResult step(std::uint16_t adc_code);

  [[nodiscard]] std::uint64_t beats_detected() const { return beats_; }
  [[nodiscard]] double threshold() const { return threshold_; }

 private:
  double fs_;
  std::size_t integration_window_;  ///< ~150 ms of samples
  std::size_t refractory_samples_;  ///< ~250 ms lockout
  std::size_t confirm_lag_;         ///< samples to wait before confirming

  std::deque<double> window_;       ///< squared-derivative history
  double integral_{0.0};
  double prev_sample_{0.0};
  bool have_prev_{false};

  double signal_level_{0.0};
  double noise_level_{0.0};
  double threshold_{0.0};

  std::uint64_t index_{0};          ///< samples consumed
  std::uint64_t last_beat_index_{0};
  bool in_peak_{false};
  double peak_value_{0.0};
  std::uint64_t peak_index_{0};
  std::uint64_t beats_{0};
};

}  // namespace bansim::apps
