// State-residency energy metering.
//
// The paper's estimation model computes E = I * Vdd * t_state for every
// power state of every component (Section 4).  EnergyMeter is that formula
// as a reusable object: a component registers its states with measured
// currents, reports transitions, and the meter integrates charge over time.
// Both the high-fidelity reference stack and the OS-level estimator are
// built on this primitive; they differ only in *when* they report
// transitions and how many states they distinguish.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hpp"
#include "sim/time.hpp"

namespace bansim::sim {
class CheckHooks;
}

namespace bansim::energy {

/// Static description of one power state of a component.
struct PowerState {
  std::string name;       ///< e.g. "rx", "tx", "active", "lpm1"
  double current_amps{0};  ///< measured supply current while in this state
};

/// Integrates I*V*t across the declared power states of one component.
class EnergyMeter {
 public:
  /// `states` must be non-empty; the component starts in state 0 at `start`.
  EnergyMeter(std::string component, double supply_volts,
              std::vector<PowerState> states,
              sim::TimePoint start = sim::TimePoint::zero());

  /// Reports that the component entered `state` at time `when`.
  /// Throws std::out_of_range for a state outside [0, num_states()), as do
  /// all other state-addressed accessors — a silent out-of-bounds write
  /// here would skew every validation table downstream.
  void transition(int state, sim::TimePoint when);

  /// Closes the books at `when` without entering a new state: the
  /// in-progress stretch is flushed into the residency accumulator and the
  /// entry counters are untouched.  Idempotent — a teardown path that
  /// closes every meter "at sim end" may run twice (e.g. an explicit
  /// end-of-measurement close followed by a destructor sweep) without
  /// double-counting entries, which a plain transition(current_state(), t)
  /// would do.
  void end_state(sim::TimePoint when);

  [[nodiscard]] int current_state() const { return residency_.current_state(); }
  [[nodiscard]] const std::string& component() const { return component_; }
  [[nodiscard]] double supply_volts() const { return supply_volts_; }
  [[nodiscard]] std::size_t num_states() const { return states_.size(); }
  [[nodiscard]] const PowerState& state(std::size_t i) const { return states_[i]; }

  /// Time spent in `state` up to `now` (includes the in-progress stretch).
  [[nodiscard]] sim::Duration time_in(int state, sim::TimePoint now) const {
    checked_state(state, "time_in");
    return residency_.time_in(state, now);
  }

  /// Number of entries into `state` (diagnostics: wakeups, TX bursts, ...).
  [[nodiscard]] std::uint64_t entries(int state) const {
    checked_state(state, "entries");
    return residency_.entries(state);
  }

  /// Energy consumed in `state` up to `now`, in joules.
  [[nodiscard]] double energy_in(int state, sim::TimePoint now) const;

  /// Total energy across all states up to `now`, in joules.
  [[nodiscard]] double total_energy(sim::TimePoint now) const;

  /// Average power over [start, now], in watts.
  [[nodiscard]] double average_power(sim::TimePoint now) const;

  /// Adds a lump of energy not tied to state residency (e.g. a fixed-cost
  /// transient such as an oscillator start-up).  Attributed to `state`.
  void add_transient(int state, double joules);

  /// Metering start instant (residency baseline for conservation checks).
  [[nodiscard]] sim::TimePoint start() const { return start_; }

  /// Attaches a checking-layer observer notified of every transition and
  /// transient (nullptr detaches).  Observers are pure readers; attaching
  /// one never changes metered energies.
  void set_check_hooks(sim::CheckHooks* hooks) { check_hooks_ = hooks; }

 private:
  /// Validates a caller-supplied state index; returns it widened.  Throws
  /// std::out_of_range naming the component and call site.
  std::size_t checked_state(int state, const char* what) const;

  std::string component_;
  double supply_volts_;
  std::vector<PowerState> states_;
  std::vector<double> transient_joules_;
  sim::StateResidency residency_;
  sim::TimePoint start_;
  sim::CheckHooks* check_hooks_{nullptr};
};

/// Per-component breakdown row extracted from a meter.
struct ComponentEnergy {
  std::string component;
  double joules{0};
  std::vector<std::pair<std::string, double>> per_state;  ///< (state, joules)
};

/// The named meters of one node, plus constant loads (the 25-ch ASIC is a
/// constant 10.5 mW that the paper excludes from validation but documents).
class EnergyLedger {
 public:
  /// Registers a meter and returns a stable index to address it.
  std::size_t add_meter(EnergyMeter meter);

  /// Registers a constant power draw present from t=0 (watts).
  void add_constant_load(std::string name, double watts);

  [[nodiscard]] EnergyMeter& meter(std::size_t idx) { return meters_[idx]; }
  [[nodiscard]] const EnergyMeter& meter(std::size_t idx) const { return meters_[idx]; }
  [[nodiscard]] std::size_t num_meters() const { return meters_.size(); }

  /// Looks a meter up by component name; returns nullptr if absent.
  [[nodiscard]] const EnergyMeter* find(const std::string& component) const;

  /// Snapshot of every component's energy up to `now`.
  [[nodiscard]] std::vector<ComponentEnergy> breakdown(sim::TimePoint now) const;

  /// Sum over all meters and constant loads, joules.
  [[nodiscard]] double total_energy(sim::TimePoint now) const;

 private:
  std::vector<EnergyMeter> meters_;
  std::vector<std::pair<std::string, double>> constant_loads_;
};

}  // namespace bansim::energy
