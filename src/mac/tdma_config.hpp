// Configuration of the TDMA MAC (Section 3.2.2).
//
// Two variants share one parameter set:
//  * static TDMA (Figure 2): the cycle holds a beacon slot (SB) plus a
//    fixed number of data slots; nodes request a specific free slot (SSR)
//    and keep it.  Cycle length = slot * (1 + max_slots) is a compile-time
//    property of the deployment.
//  * dynamic TDMA (Figure 3): the cycle starts as SB + empty-slot window
//    (ES) and grows by one data slot per admitted node, so cycle length =
//    slot * (1 + joined_nodes).  Slot requests are transmitted at a random
//    time inside ES to decorrelate contenders.
//
// Slot 0 is always the beacon slot; its leading part carries the beacon on
// the air and (dynamic variant) the remainder is the ES request window.
#pragma once

#include <cstdint>
#include <string>

#include "net/packet.hpp"
#include "sim/time.hpp"

namespace bansim::mac {

enum class TdmaVariant : std::uint8_t { kStatic, kDynamic };

[[nodiscard]] constexpr const char* to_string(TdmaVariant v) {
  return v == TdmaVariant::kStatic ? "static" : "dynamic";
}

struct TdmaConfig {
  TdmaVariant variant{TdmaVariant::kStatic};

  /// BAN/cell identifier for coexistence: beacons carry it, nodes ignore
  /// beacons of foreign cells, and the base station's radio address is
  /// derived from it so co-located BANs do not cross-deliver.
  std::uint8_t pan_id{0};

  /// Radio address the base station of `pan` listens on.
  [[nodiscard]] static net::NodeId bs_address(std::uint8_t pan) {
    return static_cast<net::NodeId>(net::kBaseStationId +
                                    (static_cast<net::NodeId>(pan) << 8));
  }

  /// Width of every slot (beacon slot included).
  sim::Duration slot{sim::Duration::milliseconds(10)};

  /// Static variant only: number of data slots in the (fixed) cycle.
  std::uint8_t max_slots{5};

  /// Beacon-tracking guard: a node wakes its receiver
  ///   guard_fixed + guard_fraction * cycle
  /// before the expected beacon.  The fixed part absorbs scheduling and
  /// settling jitter; the proportional part covers worst-case mutual DCO
  /// drift accumulated over one cycle.
  sim::Duration guard_fixed{sim::Duration::from_milliseconds(2.5)};
  double guard_fraction{0.005};

  /// Consecutive beacon losses tolerated (dead reckoning) before the node
  /// falls back to a full resynchronization listen.
  std::uint8_t missed_beacon_limit{4};

  /// Extra listen time after the expected beacon end before declaring the
  /// beacon missed.
  sim::Duration beacon_timeout_margin{sim::Duration::from_milliseconds(0.5)};

  /// Fast grants: after accepting an SSR the base station immediately
  /// transmits a directed SlotGrant, and a requesting node keeps its
  /// receiver open for `grant_wait` after the SSR to catch it — joining one
  /// cycle earlier at a small one-off listen cost.  With this off, grants
  /// are learned from the next beacon's slot table only.
  bool fast_grant{true};
  sim::Duration grant_wait{sim::Duration::milliseconds(3)};

  /// Link-layer acknowledgements for data frames: the base station answers
  /// every data frame with a short directed ACK inside the same slot; the
  /// node holds the payload until the ACK and retries it in its next slot
  /// otherwise (up to `max_retries` attempts).  Off by default — the
  /// paper's validation tables run without ARQ.
  bool ack_data{false};
  sim::Duration ack_wait{sim::Duration::from_milliseconds(1.5)};
  std::uint8_t max_retries{3};

  /// Power the radio fully down (1 uA) instead of leaving it in standby
  /// (12 uA) between MAC activities, paying the 3 ms crystal start-up
  /// ahead of each use.  The paper's platform exposes exactly this knob
  /// ("built-in power down modes allow to switch-off the radio when not
  /// used"); the ablation bench quantifies how little it matters next to
  /// the listen windows.
  bool radio_power_down{false};
  sim::Duration power_up_margin{sim::Duration::from_milliseconds(0.5)};

  /// Dynamic-variant slot reclamation: a slot whose owner has been silent
  /// for this many consecutive cycles is released (the cycle shrinks, and
  /// in the static variant the slot reopens for requests).  0 disables
  /// reclamation; leave it off for sparse-traffic applications (Rpeak)
  /// where silence does not mean death.
  std::uint32_t reclaim_after_cycles{0};

  /// Bound on the transmit queue: oldest payloads are dropped beyond it.
  std::size_t tx_queue_cap{8};

  /// Bounded resynchronization search.  Zero keeps the legacy behaviour
  /// (listen continuously until a beacon arrives).  Non-zero: the node
  /// listens for `search_listen`, then power-cycles the radio (which also
  /// clears a locked-up receiver) and sleeps a backoff that grows by
  /// `search_backoff_factor` from `search_backoff_base` up to
  /// `search_backoff_max` before the next listen window.  The bound is what
  /// keeps a node with a dead base station (or a wedged receiver) from
  /// burning its battery in RX forever.
  sim::Duration search_listen{sim::Duration::zero()};
  sim::Duration search_backoff_base{sim::Duration::milliseconds(50)};
  double search_backoff_factor{2.0};
  sim::Duration search_backoff_max{sim::Duration::milliseconds(800)};

  /// Static variant: the full cycle length implied by the slot plan.
  [[nodiscard]] sim::Duration static_cycle() const {
    return slot * (1 + static_cast<std::int64_t>(max_slots));
  }

  /// Guard ahead of the expected beacon for a given cycle length.
  [[nodiscard]] sim::Duration guard(sim::Duration cycle) const {
    return guard_fixed + cycle.scaled(guard_fraction);
  }

  /// Static variant: re-derives the slot width so that the beacon slot
  /// plus `max_slots` data slots span `cycle`.  Every other field is kept,
  /// so a cycle override never resets guards, retries or queue bounds.
  void set_static_cycle(sim::Duration cycle) {
    slot = cycle / (1 + static_cast<std::int64_t>(max_slots));
  }

  /// Convenience: a static-TDMA plan with `data_slots` slots fitting a
  /// target cycle length (the paper states cycles, e.g. 30 ms for 5 nodes).
  [[nodiscard]] static TdmaConfig static_plan(sim::Duration cycle,
                                              std::uint8_t data_slots) {
    TdmaConfig cfg;
    cfg.variant = TdmaVariant::kStatic;
    cfg.max_slots = data_slots;
    cfg.set_static_cycle(cycle);
    return cfg;
  }

  /// Convenience: the paper's dynamic plan (10 ms slots).
  [[nodiscard]] static TdmaConfig dynamic_plan(
      sim::Duration slot_width = sim::Duration::milliseconds(10)) {
    TdmaConfig cfg;
    cfg.variant = TdmaVariant::kDynamic;
    cfg.slot = slot_width;
    cfg.max_slots = 0;  // unused by the dynamic variant
    return cfg;
  }

  /// Sanity-checks the parameter set; returns an empty string when valid,
  /// otherwise a description of the first problem found.  Degenerate values
  /// here used to be accepted silently and produce nodes that join but can
  /// never deliver (max_retries = 0 with ACKs, a zero-capacity queue) or
  /// protocol hazards (a dead-reckoner outliving the reclaim horizon can
  /// transmit into a slot the base station has already regranted).
  [[nodiscard]] std::string validate() const {
    if (slot <= sim::Duration::zero()) return "tdma: slot width must be > 0";
    if (variant == TdmaVariant::kStatic && max_slots == 0) {
      return "tdma: static variant needs max_slots >= 1";
    }
    if (tx_queue_cap == 0) {
      return "tdma: tx_queue_cap = 0 drops every payload before transmission";
    }
    if (ack_data && max_retries == 0) {
      return "tdma: ack_data with max_retries = 0 abandons every payload on "
             "the first lost ACK; use max_retries >= 1 or disable ack_data";
    }
    if (guard_fraction < 0.0 || guard_fraction >= 0.5) {
      return "tdma: guard_fraction must be in [0, 0.5)";
    }
    if (reclaim_after_cycles != 0 &&
        reclaim_after_cycles <= missed_beacon_limit) {
      return "tdma: reclaim_after_cycles must exceed missed_beacon_limit (a "
             "dead-reckoning node may transmit for missed_beacon_limit "
             "cycles after its last beacon; reclaiming sooner regrants a "
             "slot that is still in use)";
    }
    if (!search_listen.is_zero()) {
      if (search_backoff_base <= sim::Duration::zero()) {
        return "tdma: search_backoff_base must be > 0";
      }
      if (search_backoff_factor < 1.0) {
        return "tdma: search_backoff_factor must be >= 1";
      }
      if (search_backoff_max < search_backoff_base) {
        return "tdma: search_backoff_max must be >= search_backoff_base";
      }
    }
    return {};
  }
};

/// Owner value of a free slot in the beacon's slot table.
inline constexpr std::uint16_t kFreeSlot = 0xFFFE;

}  // namespace bansim::mac
