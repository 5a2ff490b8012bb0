// BAN construction: a base station plus N biopotential sensor nodes on a
// shared wireless channel — the paper's 5-node validation network in one
// object.  This is the primary entry point of the library's public API.
//
// Node composition is delegated to core::NetworkBuilder: BanConfig's
// network-wide fields are the defaults, and the optional `roster` of
// NodeSpec entries overrides them per node, so one BAN can mix ECG
// streamers, R-peak detectors and EEG monitors (a heterogeneous ward
// network) without any wiring changes here.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/base_station_app.hpp"
#include "core/network_builder.hpp"
#include "core/node_spec.hpp"
#include "core/node_stack.hpp"
#include "energy/energy_report.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "fault/storage_driver.hpp"
#include "phy/channel.hpp"
#include "phy/link_model.hpp"
#include "sim/context.hpp"

namespace bansim::core {

/// A sensor node is one NodeStack; the historical name remains the public
/// alias.
using SensorNode = NodeStack;

struct BanConfig {
  /// Node count for a homogeneous network; ignored when `roster` is
  /// non-empty (the roster length wins).
  std::size_t num_nodes{5};
  /// MAC protocol for the whole cell ([mac] protocol in config files).
  /// kTdma reads `tdma` (variant selects static/dynamic), kCsmaCa reads
  /// `csma`, kAloha reads `aloha`.
  MacKind mac{MacKind::kTdma};
  mac::TdmaConfig tdma{};
  mac::AlohaConfig aloha{};
  mac::CsmaConfig csma{};
  AppKind app{AppKind::kEcgStreaming};
  apps::StreamingConfig streaming{};
  apps::RpeakConfig rpeak{};
  apps::EcgConfig ecg{};
  apps::EegAppConfig eeg{};
  apps::EegConfig eeg_signal{};
  hw::BoardParams board{};
  Fidelity fidelity{Fidelity::kReference};
  std::uint64_t seed{1};
  /// Nodes boot staggered inside [0, stagger) to decorrelate join attempts.
  sim::Duration stagger{sim::Duration::milliseconds(40)};

  /// Node addresses are offset+1 .. offset+num_nodes.  Give co-located
  /// BANs disjoint ranges (and distinct tdma.pan_id values); avoid
  /// multiples of 0x100, which are base-station addresses.
  net::NodeId address_offset{0};

  /// Per-node overrides; empty builds num_nodes default-spec nodes.  An
  /// all-default roster of length num_nodes is bit-identical to the
  /// homogeneous network.
  std::vector<NodeSpec> roster{};

  /// Body-area link model: when enabled, every frame is subject to a
  /// per-link frame error probability from the path-loss/BER budget below
  /// (on top of collision corruption).  Off by default — the paper's
  /// validation channel loses frames to collisions only.
  bool use_link_model{false};
  phy::LinkBudget link_budget{};
  /// Device positions (index 0 = base station); empty selects
  /// phy::standard_ban_layout(num_nodes), which supports up to 6 nodes.
  std::vector<phy::BodyPosition> body_positions{};

  /// Fault-injection campaign ([fault.*] INI sections).  A disabled plan
  /// (the default) changes nothing: the network is wired exactly as if the
  /// fault subsystem did not exist, so fault-free runs stay bit-identical.
  fault::FaultPlan fault_plan{};

  /// Per-node energy storage ([storage] / [battery] / [capacitor] /
  /// [harvest] INI sections; NodeSpec::storage overrides per node).
  /// Disabled (the default) keeps every node on the bench supply and the
  /// network bit-identical to storage-free builds.
  hw::StorageParams storage{};

  /// Effective node count (roster length when a roster is given).
  [[nodiscard]] std::size_t effective_nodes() const {
    return roster.empty() ? num_nodes : roster.size();
  }

  /// The cell's protocol as the four-way enum the seam exposes (kTdma
  /// splits on tdma.variant).
  [[nodiscard]] mac::Protocol protocol() const {
    switch (mac) {
      case MacKind::kAloha:
        return mac::Protocol::kAloha;
      case MacKind::kCsmaCa:
        return mac::Protocol::kCsmaCa;
      case MacKind::kTdma:
        break;
    }
    return tdma.variant == mac::TdmaVariant::kStatic
               ? mac::Protocol::kStaticTdma
               : mac::Protocol::kDynamicTdma;
  }
};

class BanNetwork {
 public:
  /// `probe` may be null (no estimator attached).
  explicit BanNetwork(const BanConfig& config, os::ModelProbe* probe = nullptr);

  /// Boots the base station and all nodes (staggered).
  void start();

  /// Advances the simulation to absolute time `until`.
  void run_until(sim::TimePoint until);

  /// True when every node holds a TDMA slot.
  [[nodiscard]] bool all_joined() const;

  /// Runs until all_joined() plus `settle`, polling every poll interval;
  /// returns false if `deadline` passes first.
  bool run_until_joined(sim::Duration settle, sim::TimePoint deadline);

  [[nodiscard]] sim::SimContext& context() { return context_; }
  [[nodiscard]] sim::Simulator& simulator() { return context_.simulator; }
  [[nodiscard]] sim::Tracer& tracer() { return context_.tracer; }
  [[nodiscard]] phy::Channel& channel() { return channel_; }
  [[nodiscard]] const BanConfig& config() const { return config_; }

  [[nodiscard]] std::size_t num_nodes() const { return cell_.nodes.size(); }
  [[nodiscard]] SensorNode& node(std::size_t i) { return *cell_.nodes[i]; }
  [[nodiscard]] const SensorNode& node(std::size_t i) const {
    return *cell_.nodes[i];
  }
  /// TDMA base station (asserts when the cell runs another protocol);
  /// protocol-agnostic callers use base_station().
  [[nodiscard]] mac::BaseStationMac& base_station_mac() {
    return cell_.bs->tdma_mac();
  }
  [[nodiscard]] BaseStationStack& base_station() { return *cell_.bs; }
  [[nodiscard]] apps::BaseStationApp& base_station_app() {
    return cell_.bs->app();
  }
  /// Per-node EEG reassembly/decoding (kEegMonitoring nodes only).
  [[nodiscard]] apps::EegCollector* eeg_collector(net::NodeId node);
  [[nodiscard]] hw::Board& base_station_board() { return cell_.bs->board(); }
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

  /// Per-node component energy snapshot at the current instant.
  [[nodiscard]] std::vector<energy::NodeEnergy> energy_snapshot() const;

 private:
  BanConfig config_;
  sim::SimContext context_;
  phy::Channel channel_;
  os::NullProbe null_probe_;
  os::ModelProbe* probe_;
  os::CycleCostModel nominal_costs_;
  std::unique_ptr<phy::LinkModel> link_model_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<fault::StorageDriver> storage_driver_;
  BuiltCell cell_;
  std::map<net::NodeId, apps::EegCollector> eeg_collectors_;
};

/// Translates a BanConfig into the builder's CellPlan (shared with
/// MultiBan, which re-derives the stream names per cell).
[[nodiscard]] CellPlan make_cell_plan(const BanConfig& config);

}  // namespace bansim::core
