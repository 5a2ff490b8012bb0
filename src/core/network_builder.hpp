// Per-cell assembly: the one place a BanConfig becomes device stacks.
//
// core::BanNetwork is the only network assembly: N cells (one base station
// plus its sensor nodes each) on one shared SimContext and Channel, where
// the paper's ward is N = 1.  NetworkBuilder builds and boots one cell of
// that list; BanNetwork adds the per-cell and network-wide glue (data
// handlers, EEG collectors, link model, fault injector, storage driver).
//
// Determinism contract: for a given BanConfig, cell index and cell count
// the builder
//  * attaches devices to the channel in base-station-first, then node
//    index order (for a lone cell, channel ids: bs = 0, node i = i + 1);
//  * draws one clock-skew value per device from the cell's skew stream
//    (base station first) and one boot offset per node from its stagger
//    stream, in index order, REGARDLESS of per-spec overrides — pinning
//    node k's skew never shifts node k+1's draw;
//  * derives the MAC and signal streams from per-node names, so they are
//    independent of node count and position.
// Stream names are a fixed function of (cell, cell count), see
// cell_stream_name(); a homogeneous roster therefore reproduces the
// pre-builder networks bit-for-bit (locked by test_golden_energy).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ban_config.hpp"
#include "core/node_stack.hpp"
#include "os/cycle_cost_model.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"

namespace bansim::core {

/// The named per-cell RNG streams, plus the base station's device name.
enum class CellStream { kSkew, kStagger, kMac, kSignal, kBaseStation };

/// Name of `stream` for cell `cell` of `cells` (`address` keys the per-node
/// kMac/kSignal streams).  A lone cell keeps the single-ward names
/// ("skew", "mac/node3", "bs"); co-located cells suffix the cell index
/// ("skew/cell1", "mac/cell1/103", "bs1") so cells sharing a seed still
/// draw independently.
[[nodiscard]] std::string cell_stream_name(CellStream stream, std::size_t cell,
                                           std::size_t cells,
                                           net::NodeId address = 0);

/// Radio address of roster entry `i`: the spec's pinned address, else the
/// positional default address_offset + i + 1.
[[nodiscard]] net::NodeId node_address(const BanConfig& config, std::size_t i);

/// Radio address the cell's base station listens on.
[[nodiscard]] inline net::NodeId base_station_address(const BanConfig& config) {
  return mac::TdmaConfig::bs_address(config.pan());
}

/// One assembled cell: its config, base station and sensor nodes.
class BanCell {
 public:
  [[nodiscard]] const BanConfig& config() const { return config_; }

  [[nodiscard]] std::size_t num_nodes() const { return nodes_.size(); }
  [[nodiscard]] NodeStack& node(std::size_t i) { return *nodes_[i]; }
  [[nodiscard]] const NodeStack& node(std::size_t i) const {
    return *nodes_[i];
  }

  [[nodiscard]] BaseStationStack& base_station() { return *bs_; }
  /// TDMA base station (asserts when the cell runs another protocol).
  [[nodiscard]] mac::BaseStationMac& base_station_mac() {
    return bs_->tdma_mac();
  }
  [[nodiscard]] apps::BaseStationApp& base_station_app() { return bs_->app(); }
  [[nodiscard]] hw::Board& base_station_board() { return bs_->board(); }

  /// True when every node is associated with the base station.
  [[nodiscard]] bool all_joined() const;
  /// Per-node component energy snapshot (nodes in order, then the bs).
  [[nodiscard]] std::vector<energy::NodeEnergy> energy_snapshot(
      sim::TimePoint now) const;

 private:
  friend class NetworkBuilder;

  explicit BanCell(BanConfig config) : config_{std::move(config)} {}

  BanConfig config_;
  std::unique_ptr<BaseStationStack> bs_;
  std::vector<std::unique_ptr<NodeStack>> nodes_;
};

class NetworkBuilder {
 public:
  /// Builds the base station and every node of cell `cell` (of `cells` on
  /// the channel), attaching them to `channel` in the canonical order.
  /// `nominal_costs` is handed to each stack whose resolved fidelity is
  /// kModel.  Throws std::invalid_argument on an unbuildable cell.
  [[nodiscard]] static BanCell build_cell(
      sim::SimContext& context, phy::Channel& channel, BanConfig config,
      std::size_t cell, std::size_t cells, os::ModelProbe& probe,
      const os::CycleCostModel& nominal_costs);

  /// Starts the base station now and every node at its boot offset,
  /// drawing the cell's stagger stream in node order.
  static void start_cell(sim::SimContext& context, BanCell& built,
                         std::size_t cell, std::size_t cells);
};

}  // namespace bansim::core
