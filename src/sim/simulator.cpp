#include "sim/simulator.hpp"

namespace bansim::sim {

void Simulator::run_until(TimePoint until) {
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty() && queue_.next_time() <= until) {
    auto [when, action] = queue_.pop();
    now_ = when;
    ++executed_;
    action();
  }
  if (!stop_requested_ && now_ < until) now_ = until;
}

void Simulator::run() {
  stop_requested_ = false;
  while (!stop_requested_ && !queue_.empty()) {
    auto [when, action] = queue_.pop();
    now_ = when;
    ++executed_;
    action();
  }
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  auto [when, action] = queue_.pop();
  now_ = when;
  ++executed_;
  action();
  return true;
}

}  // namespace bansim::sim
