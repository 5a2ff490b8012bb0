// Virtualized timers (the TinyOS Timer component).
//
// Applications and the MAC ask for many logical timers; the service
// multiplexes them onto the single hardware compare unit.  All intervals
// are specified in *local* node time: a node with a fast DCO fires early in
// true time, which is how two nodes programmed with the same TDMA cycle
// drift apart between beacons.  Each expiry is delivered as a hardware
// interrupt through the task scheduler, so timers wake the MCU and pay ISR
// overhead like the real platform.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "hw/mcu.hpp"
#include "hw/timer_unit.hpp"
#include "os/power_manager.hpp"
#include "os/task_scheduler.hpp"
#include "sim/simulator.hpp"

namespace bansim::os {

class TimerService {
 public:
  using TimerId = std::size_t;
  static constexpr TimerId kInvalidTimer = static_cast<TimerId>(-1);

  TimerService(sim::Simulator& simulator, hw::Mcu& mcu, hw::TimerUnit& unit,
               TaskScheduler& scheduler, PowerManager& power);

  /// Fires `handler` every `period` of local time until stopped.
  TimerId start_periodic(std::string name, sim::Duration period,
                         std::function<void()> handler);

  /// Fires `handler` once after `delay` of local time.
  TimerId start_oneshot(std::string name, sim::Duration delay,
                        std::function<void()> handler);

  /// Stops a timer; its pending expiry (if any) is discarded.  Ids of
  /// stopped timers are recycled by later start_* calls, so callers must
  /// not stop an id twice after restarting timers.
  void stop(TimerId id);

  [[nodiscard]] bool active(TimerId id) const;
  [[nodiscard]] std::size_t active_count() const;

  /// Cycle cost charged for servicing one expiry interrupt.
  static constexpr std::uint64_t kServiceCycles = 90;

 private:
  struct Entry {
    std::string name;
    std::int64_t deadline_local_ns;
    std::int64_t period_local_ns;  ///< 0 for one-shot
    std::function<void()> handler;
    bool active{false};
  };

  /// Local clock reading (ns since boot on this node's crystal).
  [[nodiscard]] std::int64_t local_now_ns() const;

  /// Places an entry into the table, reusing dead slots.
  TimerId insert(Entry entry);

  /// Programs the hardware alarm for the earliest active deadline.
  void arm();

  /// Hardware compare fired: dispatch every due entry, re-arm.
  void on_compare();

  sim::Simulator& simulator_;
  hw::Mcu& mcu_;
  hw::TimerUnit& unit_;
  TaskScheduler& scheduler_;
  std::vector<Entry> entries_;
  std::size_t power_handle_;
  PowerManager& power_;
};

}  // namespace bansim::os
