// Hardware compare timer (Timer_A-style).
//
// The OS timer service virtualizes many software timers over this single
// compare unit.  Crucially, the unit counts the node's *local* clock: the
// MCU's DCO skew stretches or shrinks every programmed interval, which is
// the physical source of beacon drift between BAN nodes and the reason the
// TDMA MAC needs guard times.
#pragma once

#include <cstdint>
#include <functional>

#include "hw/mcu.hpp"
#include "sim/simulator.hpp"

namespace bansim::hw {

class TimerUnit {
 public:
  TimerUnit(sim::Simulator& simulator, Mcu& mcu);

  /// Programs the compare register to fire `isr` after `local_delay`
  /// measured on this node's clock.  Re-arming replaces any pending alarm.
  void set_alarm(sim::Duration local_delay, std::function<void()> isr);

  /// Clears the pending alarm, if any.
  void cancel();

  [[nodiscard]] bool armed() const { return handle_.pending(); }
  [[nodiscard]] std::uint64_t fired() const { return fired_; }

 private:
  sim::Simulator& simulator_;
  Mcu& mcu_;
  sim::EventHandle handle_;
  std::uint64_t fired_{0};
};

}  // namespace bansim::hw
