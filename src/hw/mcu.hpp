// MSP430-like microcontroller model.
//
// The MCU is modelled at the power-state level, exactly the abstraction the
// paper argues is sufficient (Section 4.1): an active mode and the low-power
// modes, with energy = I * Vdd * t per state.  What the model adds beyond
// the estimator — and what creates the realistic "Real vs Sim" gap — are the
// second-order effects of physical silicon: a per-node DCO clock skew, a
// 6 us wake-up latency on every LPM exit, and interrupt entry/exit overhead
// cycles.
#pragma once

#include <cstdint>
#include <string>

#include "energy/energy_meter.hpp"
#include "hw/params.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::hw {

/// Power modes; the TinyOS scheduler of the paper only ever uses kLpm1
/// ("the first low power mode ... referred as the power saving mode").
enum class McuMode : int {
  kActive = 0,
  kLpm1 = 1,
  kLpm3 = 2,
  kLpm4 = 3,
};

[[nodiscard]] const char* to_string(McuMode m);

class Mcu {
 public:
  Mcu(sim::SimContext& context, std::string node_name, const McuParams& params,
      double clock_skew);

  /// Converts a nominal cycle count into wall time on *this* device's
  /// (skewed) clock.
  [[nodiscard]] sim::Duration cycles_to_time(std::uint64_t cycles) const;

  /// Converts a nominal duration measured on this device's clock (e.g. a
  /// timer programmed for D) into true simulated time.
  [[nodiscard]] sim::Duration local_to_true(sim::Duration local) const;

  /// Inverse of local_to_true (true simulated time -> this device's clock).
  [[nodiscard]] sim::Duration true_to_local(sim::Duration true_time) const;

  /// Absolute local-clock reading (ns since boot on this device's crystal)
  /// at true instant `t`.  Piecewise-affine: a clock-skew step rebases the
  /// mapping so the reading stays continuous across the step instead of
  /// rescaling the whole past.
  [[nodiscard]] sim::Duration local_clock(sim::TimePoint t) const;

  /// Fault injection: steps the DCO frequency error to `skew` (temperature
  /// shock, supply sag).  The local clock is rebased at the current instant,
  /// so already-armed absolute local deadlines keep their meaning and only
  /// tick by at the new rate.
  void set_clock_skew(double skew);

  /// Enters a power mode at the current simulation time.  Transitions from
  /// an LPM to kActive incur the wake-up latency: the mode becomes kActive
  /// immediately for energy purposes (the core draws active current while
  /// the clocks restart) but useful work can only begin after
  /// wakeup_latency; the caller receives that penalty as the return value.
  sim::Duration enter(McuMode mode);

  [[nodiscard]] McuMode mode() const { return mode_; }
  [[nodiscard]] const McuParams& params() const { return params_; }
  [[nodiscard]] double clock_skew() const { return clock_skew_; }
  [[nodiscard]] std::uint64_t wakeups() const { return wakeups_; }

  /// Cycle cost of an interrupt beyond its handler body.
  [[nodiscard]] std::uint64_t isr_overhead_cycles() const {
    return params_.isr_overhead_cycles;
  }

  /// Energy metering.
  [[nodiscard]] const energy::EnergyMeter& meter() const { return meter_; }
  [[nodiscard]] energy::EnergyMeter& meter() { return meter_; }

 private:
  sim::SimContext& context_;
  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  std::string node_;
  sim::TraceNodeId trace_node_;
  McuParams params_;
  double clock_skew_;
  /// local_clock() affine pieces: reading at `true_base_` is
  /// `local_clock_base_`; both stay zero until the first skew step, which
  /// keeps the default mapping bit-identical to a pure scaling.
  sim::Duration local_clock_base_{sim::Duration::zero()};
  sim::TimePoint true_base_{};
  McuMode mode_{McuMode::kActive};
  std::uint64_t wakeups_{0};
  energy::EnergyMeter meter_;
};

}  // namespace bansim::hw
