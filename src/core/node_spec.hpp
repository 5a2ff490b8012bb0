// Per-node composition recipe.
//
// A NodeSpec describes ONE sensor node of a BAN: which application it
// runs, which hardware board it is built on, at which fidelity it is
// simulated, and (optionally) pinned values for the quantities that are
// normally drawn from the network's deterministic RNG streams (clock skew,
// boot stagger).  A homogeneous network is a roster of default-constructed
// specs; a heterogeneous ward network (say, two ECG streamers plus three
// R-peak detectors) is a roster of five specs differing only in `app`.
//
// Every field except `address` is optional: an unset field inherits the
// cell-wide default carried by the cell's BanConfig.  Overriding a field
// never shifts the RNG draws of the other nodes — the builder always
// consumes its skew/stagger streams in node order and only then
// substitutes pinned values — so adding an override to node 3 leaves
// nodes 1, 2, 4, ... bit-identical.
#pragma once

#include <cstdint>
#include <optional>

#include "apps/ecg_streaming_app.hpp"
#include "apps/ecg_synthesizer.hpp"
#include "apps/eeg_app.hpp"
#include "apps/eeg_synthesizer.hpp"
#include "apps/rpeak_app.hpp"
#include "core/fidelity.hpp"
#include "hw/board.hpp"
#include "hw/energy_store.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace bansim::core {

/// Which application runs on a sensor node.
enum class AppKind { kNone, kEcgStreaming, kRpeak, kEegMonitoring };

[[nodiscard]] constexpr const char* to_string(AppKind k) {
  switch (k) {
    case AppKind::kNone: return "none";
    case AppKind::kEcgStreaming: return "ecg_streaming";
    case AppKind::kRpeak: return "rpeak";
    case AppKind::kEegMonitoring: return "eeg_monitoring";
  }
  return "?";
}

/// Which medium-access layer the stack runs.  kTdma covers both TDMA
/// variants (TdmaConfig::variant selects static vs dynamic); kCsmaCa is
/// the beacon-enabled slotted CSMA/CA contention MAC.
enum class MacKind { kTdma, kAloha, kCsmaCa };

[[nodiscard]] constexpr const char* to_string(MacKind k) {
  switch (k) {
    case MacKind::kTdma: return "tdma";
    case MacKind::kAloha: return "aloha";
    case MacKind::kCsmaCa: return "csma_ca";
  }
  return "?";
}

struct NodeSpec {
  /// Application; unset inherits the network default.
  std::optional<AppKind> app;

  /// Radio address.  0 selects the positional default
  /// (address_offset + index + 1).
  net::NodeId address{0};

  /// Pins the DCO clock skew instead of drawing it from the "skew" stream.
  std::optional<double> clock_skew;

  /// Pins the boot offset instead of drawing it from the "stagger" stream.
  std::optional<sim::Duration> boot_offset;

  /// Hardware / fidelity overrides.
  std::optional<hw::BoardParams> board;
  std::optional<Fidelity> fidelity;

  /// Energy-storage override: give THIS node a different cell, a
  /// capacitor-backed battery-less supply, or no store at all.
  std::optional<hw::StorageParams> storage;

  /// Application-parameter overrides.
  std::optional<apps::StreamingConfig> streaming;
  std::optional<apps::RpeakConfig> rpeak;
  std::optional<apps::EcgConfig> ecg;
  std::optional<apps::EegAppConfig> eeg;
  std::optional<apps::EegConfig> eeg_signal;

  /// CSMA/CA cells only: this node requests a guaranteed time slot and
  /// transmits contention-free once granted.  The MAC protocol itself is a
  /// cell-wide property (one base station, one superframe structure), so
  /// GTS membership is the per-node knob.
  std::optional<bool> csma_gts;
};

}  // namespace bansim::core
