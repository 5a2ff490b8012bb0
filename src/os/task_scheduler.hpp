// TinyOS-style task scheduler.
//
// TinyOS executes posted tasks from a FIFO queue, run-to-completion, and
// drops the MCU into a low-power mode when the queue drains.  Interrupts
// (radio data-ready, timer compare, ADC done) wake the MCU, run their
// handler, and usually post tasks.  This scheduler reproduces that
// behaviour on the event kernel and is the single place where MCU power
// states are switched, so the Board's MCU meter sees exactly the residency
// a real node would have:
//   * every LPM exit costs the 6 us wake-up latency in active mode,
//   * every interrupt pays the hardware entry/RETI overhead cycles,
//   * task bodies cost their *actual*, data-dependent cycle counts,
// while the ModelProbe only learns "task X ran", which is all the paper's
// estimator gets from TOSSIM.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "hw/mcu.hpp"
#include "os/cycle_cost_model.hpp"
#include "os/power_manager.hpp"
#include "os/probe.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::os {

class TaskScheduler {
 public:
  /// `nominal_costs` switches the scheduler into estimation-model mode:
  /// when non-null, every task is charged the table's nominal cycles
  /// instead of the caller-supplied actual count (PowerTOSSIM-style
  /// basic-block accounting).  Pass nullptr for the reference platform.
  TaskScheduler(sim::SimContext& context, hw::Mcu& mcu, PowerManager& power,
                std::string node_name, ModelProbe& probe,
                const CycleCostModel* nominal_costs = nullptr);

  /// Posts a task.  `cycles` is the actual cost of this execution (may be
  /// data dependent); `body` runs when the task completes.
  void post(std::string name, std::uint64_t cycles, std::function<void()> body);

  /// Raises a hardware interrupt: jumps the queue, pays the ISR
  /// entry/exit overhead on top of `cycles`, wakes the MCU if asleep.
  void raise_interrupt(std::string name, std::uint64_t cycles,
                       std::function<void()> handler);

  [[nodiscard]] bool idle() const { return !running_ && queue_.empty(); }
  [[nodiscard]] std::uint64_t tasks_run() const { return tasks_run_; }
  [[nodiscard]] std::uint64_t interrupts_run() const { return interrupts_run_; }

 private:
  struct Entry {
    std::string name;
    std::uint64_t cycles;
    std::function<void()> body;
    bool is_interrupt;
  };

  void dispatch_next();

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  hw::Mcu& mcu_;
  PowerManager& power_;
  std::string node_;
  sim::TraceNodeId trace_node_;
  ModelProbe& probe_;
  const CycleCostModel* nominal_costs_;
  std::deque<Entry> queue_;
  bool running_{false};
  std::uint64_t tasks_run_{0};
  std::uint64_t interrupts_run_{0};
};

}  // namespace bansim::os
