#include "energy/energy_meter.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

#include "sim/check_hooks.hpp"

namespace bansim::energy {

EnergyMeter::EnergyMeter(std::string component, double supply_volts,
                         std::vector<PowerState> states, sim::TimePoint start)
    : component_{std::move(component)}, supply_volts_{supply_volts},
      states_{std::move(states)}, transient_joules_(states_.size(), 0.0),
      residency_{states_.size(), 0, start}, start_{start} {
  assert(!states_.empty());
  assert(supply_volts_ > 0.0);
}

std::size_t EnergyMeter::checked_state(int state, const char* what) const {
  if (state < 0 || static_cast<std::size_t>(state) >= states_.size()) {
    throw std::out_of_range("EnergyMeter(" + component_ + ")::" + what +
                            ": state " + std::to_string(state) +
                            " outside [0, " + std::to_string(states_.size()) +
                            ")");
  }
  return static_cast<std::size_t>(state);
}

void EnergyMeter::transition(int state, sim::TimePoint when) {
  checked_state(state, "transition");
  residency_.transition(state, when);
  if (check_hooks_) check_hooks_->on_meter_transition(this, state, when);
}

void EnergyMeter::end_state(sim::TimePoint when) {
  residency_.close(when);
}

double EnergyMeter::energy_in(int state, sim::TimePoint now) const {
  const std::size_t i = checked_state(state, "energy_in");
  const double t = residency_.time_in(state, now).to_seconds();
  return states_[i].current_amps * supply_volts_ * t + transient_joules_[i];
}

double EnergyMeter::total_energy(sim::TimePoint now) const {
  double e = 0.0;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    e += energy_in(static_cast<int>(i), now);
  }
  return e;
}

double EnergyMeter::average_power(sim::TimePoint now) const {
  const double t = (now - start_).to_seconds();
  return t > 0.0 ? total_energy(now) / t : 0.0;
}

void EnergyMeter::add_transient(int state, double joules) {
  transient_joules_[checked_state(state, "add_transient")] += joules;
  if (check_hooks_) check_hooks_->on_meter_transient(this, state, joules);
}

std::size_t EnergyLedger::add_meter(EnergyMeter meter) {
  meters_.push_back(std::move(meter));
  return meters_.size() - 1;
}

void EnergyLedger::add_constant_load(std::string name, double watts) {
  constant_loads_.emplace_back(std::move(name), watts);
}

const EnergyMeter* EnergyLedger::find(const std::string& component) const {
  for (const auto& m : meters_) {
    if (m.component() == component) return &m;
  }
  return nullptr;
}

std::vector<ComponentEnergy> EnergyLedger::breakdown(sim::TimePoint now) const {
  std::vector<ComponentEnergy> rows;
  rows.reserve(meters_.size() + constant_loads_.size());
  for (const auto& m : meters_) {
    ComponentEnergy row;
    row.component = m.component();
    row.joules = m.total_energy(now);
    for (std::size_t s = 0; s < m.num_states(); ++s) {
      row.per_state.emplace_back(m.state(s).name,
                                 m.energy_in(static_cast<int>(s), now));
    }
    rows.push_back(std::move(row));
  }
  for (const auto& [name, watts] : constant_loads_) {
    ComponentEnergy row;
    row.component = name;
    row.joules = watts * now.to_seconds();
    row.per_state.emplace_back("constant", row.joules);
    rows.push_back(std::move(row));
  }
  return rows;
}

double EnergyLedger::total_energy(sim::TimePoint now) const {
  double e = 0.0;
  for (const auto& m : meters_) e += m.total_energy(now);
  for (const auto& [name, watts] : constant_loads_) e += watts * now.to_seconds();
  return e;
}

}  // namespace bansim::energy
