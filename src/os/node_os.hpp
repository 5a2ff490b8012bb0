// The embedded OS instance of one node: TinyOS kernel (task scheduler +
// power manager), virtual timers and the radio driver, bound to a Board.
// Everything above this facade (MAC, applications) is hardware-independent,
// mirroring the layered architecture of Figure 1.
#pragma once

#include <string>

#include "hw/board.hpp"
#include "os/cycle_cost_model.hpp"
#include "os/power_manager.hpp"
#include "os/probe.hpp"
#include "os/radio_driver.hpp"
#include "os/task_scheduler.hpp"
#include "os/timer_service.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::os {

class NodeOs {
 public:
  /// `nominal_costs` non-null selects estimation-model task accounting
  /// (see TaskScheduler); null is the reference platform.
  NodeOs(sim::SimContext& context, hw::Board& board, ModelProbe& probe,
         const CycleCostModel* nominal_costs = nullptr);

  [[nodiscard]] hw::Board& board() { return board_; }
  [[nodiscard]] TaskScheduler& scheduler() { return scheduler_; }
  [[nodiscard]] TimerService& timers() { return timers_; }
  [[nodiscard]] RadioDriver& radio() { return radio_driver_; }
  [[nodiscard]] PowerManager& power() { return power_; }
  [[nodiscard]] const std::string& node_name() const { return board_.name(); }

 private:
  hw::Board& board_;
  PowerManager power_;
  TaskScheduler scheduler_;
  TimerService timers_;
  RadioDriver radio_driver_;
};

}  // namespace bansim::os
