// Drives each node's EnergyStore live from its metered consumption.
//
// The driver is the online counterpart of the post-hoc lifetime math: at a
// fixed per-node cadence it samples the board's cumulative energy
// breakdown, charges the delta to the node's hw::EnergyStore, integrates
// the analytic harvest profile over the same window, and routes depletion
// through the MAC's crash()/reboot() fault interface — a node that runs
// its store dry dies exactly like a crashed one (same resync/rejoin
// bookkeeping, same recovery hardening).  Battery depletion is permanent;
// a capacitor-backed node boots again once harvest lifts the voltage to
// the turn-on threshold.
//
// Everything here is deterministic: no RNG streams, only the simulator's
// event queue and the stores' pure arithmetic, so a storage campaign
// replays bit-identically from its config, serial or parallel.  Dead nodes
// keep being sampled (sleep leakage still meters) so the energy books
// close; check::InvariantMonitor audits the closure through status().
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "hw/board.hpp"
#include "hw/energy_store.hpp"
#include "mac/mac_base.hpp"
#include "sim/context.hpp"

namespace bansim::fault {

struct StorageDriverStats {
  std::uint64_t depletion_deaths{0};   ///< stores that ran dry
  std::uint64_t recharge_reboots{0};   ///< capacitor nodes that came back
  std::uint64_t zombie_recrashes{0};   ///< foreign reboots of a dead node undone
};

/// Snapshot of one node's storage accounting (for monitors and reports).
struct NodeStorageStatus {
  std::string node;            ///< board name
  bool dead{false};
  sim::TimePoint died_at{};    ///< last depletion instant (valid when dead
                               ///< or deaths > 0)
  std::uint64_t deaths{0};     ///< times this node's store went dry
  double requested_joules{0};  ///< metered draw handed to the store
  double drawn_joules{0};      ///< portion the store could supply
  double income_joules{0};     ///< harvest profile integral
  double stored_joules{0};     ///< harvest the store absorbed
  double overflow_joules{0};   ///< harvest clamped off at full
  double remaining_joules{0};
  double initial_joules{0};
  double capacity_joules{0};
  double state_of_charge{0};
  double sampled_joules{0};    ///< cumulative board meter at last sample
  double baseline_joules{0};   ///< board meter when the driver started
};

class StorageDriver {
 public:
  explicit StorageDriver(sim::SimContext& context);

  /// Registers one sensor node, in roster order.  The store is owned by
  /// the node's stack and must outlive the driver.
  void add_node(mac::NodeMacBase& mac, hw::Board& board, hw::EnergyStore& store);

  /// Records the bench-supply baselines and arms the per-node sampling
  /// events (call once, after add_node calls, when the cell starts).
  void start();

  /// Stops the sampling events re-arming themselves so the queue drains.
  void stop();

  [[nodiscard]] std::size_t node_count() const { return nodes_.size(); }
  [[nodiscard]] const StorageDriverStats& stats() const { return stats_; }

  /// Accounting snapshot per node, in roster order.
  [[nodiscard]] std::vector<NodeStorageStatus> status() const;

  /// Earliest depletion instant, or TimePoint::max() when every store is
  /// still above its cutoff.
  [[nodiscard]] sim::TimePoint first_death() const;

 private:
  struct NodeRec {
    mac::NodeMacBase* mac{nullptr};
    hw::Board* board{nullptr};
    hw::EnergyStore* store{nullptr};
    double baseline_joules{0.0};  ///< paid by the bench supply pre-start
    double sampled_joules{0.0};   ///< cumulative meter at last sample
    sim::TimePoint last_sample{};
    bool dead{false};
    sim::TimePoint died_at{};
    std::uint64_t deaths{0};
  };

  void step(std::size_t i);
  [[nodiscard]] double board_joules(const NodeRec& rec) const;

  sim::SimContext& context_;
  std::vector<NodeRec> nodes_;
  bool started_{false};
  bool stopped_{false};
  sim::TimePoint first_death_{sim::TimePoint::max()};
  StorageDriverStats stats_;
};

}  // namespace bansim::fault
