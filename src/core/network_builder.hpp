// Shared assembly logic for every network topology in the repo.
//
// All three public assemblies — BanNetwork (one TDMA cell), MultiBan
// (co-located TDMA cells), AlohaNetwork (random-access baseline) — used to
// triplicate the same wiring: derive the per-node RNG streams, build a
// base station, build N sensor stacks in address order, boot everything
// staggered.  NetworkBuilder owns that wiring once; the assemblies shrink
// to a CellPlan (defaults + NodeSpec roster + stream naming) and their
// topology-specific glue (data handlers, link model, traffic generators).
//
// Determinism contract: for a given CellPlan the builder
//  * attaches devices to the channel in base-station-first, then node
//    index order (channel ids: bs = 0, node i = i + 1);
//  * draws one clock-skew value per device from the `streams.skew` stream
//    (base station first) and one boot offset per node from the
//    `streams.stagger` stream, in index order, REGARDLESS of per-spec
//    overrides — pinning node k's skew never shifts node k+1's draw;
//  * derives the MAC and signal streams from per-node names, so they are
//    independent of node count and position.
// A homogeneous roster therefore reproduces the pre-builder networks
// bit-for-bit (locked by test_golden_energy).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/node_spec.hpp"
#include "core/node_stack.hpp"
#include "os/cycle_cost_model.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"

namespace bansim::core {

/// RNG-stream naming scheme for one cell.  Single-cell networks use the
/// defaults; MultiBan suffixes the cell index so co-located cells draw
/// from independent streams even when they share a seed.
struct StreamNames {
  std::string skew{"skew"};
  std::string stagger{"stagger"};
  std::string mac_prefix{"mac/"};
  std::string signal_prefix{"ecg/"};
  /// Key the mac/signal streams by node name ("node7") or by bare
  /// address ("7").  Historical: BanNetwork keys by name, MultiBan and
  /// AlohaNetwork by address.
  bool key_streams_by_name{true};
};

/// Everything needed to assemble one cell: network-wide defaults plus the
/// per-node roster.  NodeSpec fields left unset inherit the defaults here.
struct CellPlan {
  std::uint64_t seed{1};
  std::string bs_name{"bs"};
  StreamNames streams{};
  MacKind mac{MacKind::kTdma};
  mac::TdmaConfig tdma{};
  mac::AlohaConfig aloha{};
  mac::CsmaConfig csma{};
  net::NodeId address_offset{0};
  /// Nodes boot inside [0, stagger) unless their spec pins boot_offset.
  sim::Duration stagger{sim::Duration::milliseconds(40)};

  // Defaults a NodeSpec may override per node.
  AppKind app{AppKind::kEcgStreaming};
  hw::BoardParams board{};
  Fidelity fidelity{Fidelity::kReference};
  hw::StorageParams storage{};
  apps::StreamingConfig streaming{};
  apps::RpeakConfig rpeak{};
  apps::EcgConfig ecg{};
  apps::EegAppConfig eeg{};
  apps::EegConfig eeg_signal{};

  /// One entry per node; an empty roster is invalid (resize it to the
  /// desired node count with default specs for a homogeneous cell) unless
  /// a base-station-only cell is explicitly requested below.
  std::vector<NodeSpec> roster{};
  /// Opts in to an empty roster: a beacon-only cell with no sensor nodes.
  /// Kept separate so a roster someone forgot to resize still hard-errors.
  bool allow_empty_roster{false};
};

/// One assembled cell plus the bookkeeping start_cell() needs.
struct BuiltCell {
  std::unique_ptr<BaseStationStack> bs;
  std::vector<std::unique_ptr<NodeStack>> nodes;

  std::uint64_t seed{1};
  std::string stagger_stream{"stagger"};
  sim::Duration stagger_window{sim::Duration::zero()};
  std::vector<std::optional<sim::Duration>> boot_offsets;

  [[nodiscard]] bool all_joined() const;
  /// Per-node component energy snapshot (nodes in order, then the bs).
  [[nodiscard]] std::vector<energy::NodeEnergy> energy_snapshot(
      sim::TimePoint now) const;
};

class NetworkBuilder {
 public:
  /// Builds the base station and every node of `plan`, attaching them to
  /// `channel` in the canonical order.  `nominal_costs` is handed to each
  /// stack whose resolved fidelity is kModel.
  [[nodiscard]] static BuiltCell build_cell(
      sim::SimContext& context, phy::Channel& channel, const CellPlan& plan,
      os::ModelProbe& probe, const os::CycleCostModel& nominal_costs);

  /// Called at each node's staggered boot instant; default starts the
  /// stack.  AlohaNetwork uses it to add its traffic generator.
  using NodeStarter = std::function<void(std::size_t, NodeStack&)>;

  /// Starts the base station now and every node at its boot offset,
  /// drawing the stagger stream in node order.
  static void start_cell(sim::SimContext& context, BuiltCell& cell,
                         NodeStarter starter = {});
};

}  // namespace bansim::core
