// Configuration of one BAN cell: a base station plus N biopotential
// sensor nodes.  A core::BanNetwork is built from one BanConfig (the
// paper's ward) or from several (co-located cells on one channel).
//
// The network-wide fields are defaults; the optional `roster` of NodeSpec
// entries overrides them per node, so one cell can mix ECG streamers,
// R-peak detectors and EEG monitors (a heterogeneous ward network).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/node_spec.hpp"
#include "fault/fault_plan.hpp"
#include "mac/aloha_mac.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_base.hpp"
#include "mac/tdma_config.hpp"
#include "phy/link_model.hpp"

namespace bansim::core {

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

  /// Node addresses are offset+1 .. offset+num_nodes.  Co-located cells
  /// need disjoint ranges and distinct pan() values (BanNetwork rejects
  /// overlaps); avoid multiples of 0x100, which are base-station addresses.
  net::NodeId address_offset{0};

  /// Per-node overrides; empty builds num_nodes default-spec nodes.  An
  /// all-default roster of length num_nodes is bit-identical to the
  /// homogeneous network.
  std::vector<NodeSpec> roster{};

  /// Body-area link model: when enabled, every frame is subject to a
  /// per-link frame error probability from the path-loss/BER budget below
  /// (on top of collision corruption).  Off by default — the paper's
  /// validation channel loses frames to collisions only.  Single-cell
  /// networks only: positions are indexed by channel id.
  bool use_link_model{false};
  phy::LinkBudget link_budget{};
  /// Device positions (index 0 = base station); empty selects
  /// phy::standard_ban_layout(num_nodes), which supports up to 6 nodes.
  std::vector<phy::BodyPosition> body_positions{};

  /// Fault-injection campaign ([fault.*] INI sections).  A disabled plan
  /// (the default) changes nothing: the network is wired exactly as if the
  /// fault subsystem did not exist, so fault-free runs stay bit-identical.
  /// Single-cell networks only: fault streams derive from the network seed.
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

  /// The cell's on-air PAN id (the base station's address is derived from
  /// it).  ALOHA has no PAN and uses 0.  Co-located cells must differ in it.
  [[nodiscard]] std::uint8_t pan() const {
    switch (mac) {
      case MacKind::kTdma:
        return tdma.pan_id;
      case MacKind::kCsmaCa:
        return static_cast<std::uint8_t>(csma.pan_id);
      case MacKind::kAloha:
        break;
    }
    return 0;
  }
};

}  // namespace bansim::core
