// On-chip 12-bit SAR ADC of the MSP430 (ADC12 block).
//
// A conversion samples an analog input and completes after the converter's
// fixed conversion time, delivering a 12-bit code.  The MCU stays active
// while a conversion runs (the drivers of this platform poll/interrupt at
// the sample rate), so the ADC contributes latency to the sampling path but
// is powered from the MCU rail and folded into its current, as the paper's
// model does.
#pragma once

#include <cstdint>
#include <functional>

#include "hw/params.hpp"
#include "sim/simulator.hpp"

namespace bansim::hw {

class Adc12 {
 public:
  /// Maps a channel index to the instantaneous input voltage (0..vref).
  using AnalogInput = std::function<double(std::uint32_t channel)>;

  Adc12(sim::Simulator& simulator, const AdcParams& params, double vref = 2.5);

  void set_input(AnalogInput input) { input_ = std::move(input); }

  /// Starts a conversion; `done` fires after the conversion time with the
  /// 12-bit code.  One conversion at a time (matches single-channel mode).
  void convert(std::uint32_t channel, std::function<void(std::uint16_t)> done);

  [[nodiscard]] bool busy() const { return busy_; }
  [[nodiscard]] const AdcParams& params() const { return params_; }
  [[nodiscard]] std::uint64_t conversions() const { return conversions_; }

  /// Quantizes `volts` to the ADC's code range (clamping).
  [[nodiscard]] std::uint16_t quantize(double volts) const;

 private:
  sim::Simulator& simulator_;
  AdcParams params_;
  double vref_;
  AnalogInput input_;
  bool busy_{false};
  std::uint64_t conversions_{0};
};

}  // namespace bansim::hw
