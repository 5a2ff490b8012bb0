// BAN construction: one or more cells — a base station plus N biopotential
// sensor nodes each — on one shared wireless channel.  The paper's 5-node
// validation network is one cell; co-located cells (two monitored patients
// side by side) share the channel, so beacons and data of one cell are
// overheard by, and collide with, the other while the MAC's PAN filter
// keeps them logically separate.  This is the primary entry point of the
// library's public API.
//
// Each cell is composed by core::NetworkBuilder from its BanConfig and
// gets the same wiring (data handler, EEG collectors, R-peak beat
// decoding, storage-driver registration).  The single-cell accessors
// (node(i), base_station*(), energy_snapshot(), config(), ...) address
// cell 0; cell(c) reaches every cell.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "apps/base_station_app.hpp"
#include "core/ban_config.hpp"
#include "core/network_builder.hpp"
#include "core/node_stack.hpp"
#include "energy/energy_report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/storage_driver.hpp"
#include "phy/channel.hpp"
#include "phy/link_model.hpp"
#include "sim/context.hpp"

namespace bansim::core {

/// A sensor node is one NodeStack; the historical name remains the public
/// alias.
using SensorNode = NodeStack;

class BanNetwork {
 public:
  /// One cell.  `probe` may be null (no estimator attached).
  explicit BanNetwork(const BanConfig& config, os::ModelProbe* probe = nullptr);
  /// Co-located cells on one channel; the first cell's seed seeds the
  /// shared context.  Throws std::invalid_argument for an empty list and,
  /// with more than one cell, for shared pan() values, overlapping radio
  /// addresses, or a cell that enables the link model or a fault plan.
  explicit BanNetwork(std::vector<BanConfig> cells,
                      os::ModelProbe* probe = nullptr);

  /// Boots every base station and all nodes (staggered).
  void start();

  /// Advances the simulation to absolute time `until`.
  void run_until(sim::TimePoint until);

  /// True when every node of every cell is associated.
  [[nodiscard]] bool all_joined() const;

  /// Runs until all_joined() plus `settle`, polling every poll interval;
  /// returns false if `deadline` passes first.
  bool run_until_joined(sim::Duration settle, sim::TimePoint deadline);

  [[nodiscard]] sim::SimContext& context() { return context_; }
  [[nodiscard]] sim::Simulator& simulator() { return context_.simulator; }
  [[nodiscard]] sim::Tracer& tracer() { return context_.tracer; }
  [[nodiscard]] phy::Channel& channel() { return channel_; }

  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] BanCell& cell(std::size_t c) { return cells_[c]; }

  // Cell 0.
  [[nodiscard]] const BanConfig& config() const { return cells_[0].config(); }
  [[nodiscard]] std::size_t num_nodes() const { return cells_[0].num_nodes(); }
  [[nodiscard]] SensorNode& node(std::size_t i) { return cells_[0].node(i); }
  [[nodiscard]] const SensorNode& node(std::size_t i) const {
    return cells_[0].node(i);
  }
  /// TDMA base station (asserts when the cell runs another protocol);
  /// protocol-agnostic callers use base_station().
  [[nodiscard]] mac::BaseStationMac& base_station_mac() {
    return cells_[0].base_station_mac();
  }
  [[nodiscard]] BaseStationStack& base_station() {
    return cells_[0].base_station();
  }
  [[nodiscard]] apps::BaseStationApp& base_station_app() {
    return cells_[0].base_station_app();
  }
  [[nodiscard]] hw::Board& base_station_board() {
    return cells_[0].base_station_board();
  }
  /// Per-node component energy snapshot at the current instant.
  [[nodiscard]] std::vector<energy::NodeEnergy> energy_snapshot() const {
    return cells_[0].energy_snapshot(context_.simulator.now());
  }

  /// Per-node EEG reassembly/decoding (kEegMonitoring nodes of any cell).
  [[nodiscard]] apps::EegCollector* eeg_collector(net::NodeId node);
  /// Non-null when the config enabled the body-area link model.
  [[nodiscard]] const phy::LinkModel* link_model() const {
    return link_model_.get();
  }
  /// Non-null when the config carries an active fault plan.
  [[nodiscard]] fault::FaultInjector* fault_injector() {
    return injector_.get();
  }
  /// Non-null when at least one node carries an enabled energy store.
  [[nodiscard]] fault::StorageDriver* storage_driver() {
    return storage_driver_.get();
  }
  [[nodiscard]] const fault::StorageDriver* storage_driver() const {
    return storage_driver_.get();
  }

 private:
  /// Per-cell glue: data handler, EEG collectors, beat decoding and
  /// storage-driver registration.
  void wire_cell(BanCell& cell);
  /// Network-wide glue of a lone cell: link model and fault injector.
  void wire_channel();

  sim::SimContext context_;
  phy::Channel channel_;
  os::NullProbe null_probe_;
  os::ModelProbe* probe_;
  os::CycleCostModel nominal_costs_;
  std::unique_ptr<phy::LinkModel> link_model_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::StorageDriver> storage_driver_;
  std::vector<BanCell> cells_;
  std::map<net::NodeId, apps::EegCollector> eeg_collectors_;
};

}  // namespace bansim::core
