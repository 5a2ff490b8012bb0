// Beacon-enabled slotted CSMA/CA in the 802.15.4 style — the contention
// protocol that proves the MAC seam.
//
// Superframe layout (anchored, like TDMA, at the instant the beacon's
// first bit hits the air):
//
//   | beacon | CAP (contention, slotted CSMA/CA) | CFP (GTS slots) | guard |
//
// Nodes synchronize to the beacon exactly as the TDMA MAC does (guard-time
// wake-up, dead reckoning up to a missed-beacon limit, search fallback).
// Inside the CAP a node with a queued payload runs the standard slotted
// CSMA/CA algorithm: NB=0, BE=macMinBE; delay a random number of backoff
// units in [0, 2^BE-1] aligned to the CAP's backoff-slot boundaries, then
// perform a CCA; on a busy channel NB++ and BE=min(BE+1, macMaxBE) until
// NB exceeds macMaxCSMABackoffs (channel-access failure).  Every random
// draw comes from the node's named SimContext RNG stream, so a run is
// bit-identical between serial and parallel replay.
//
// The nRF2401 itself has no CCA (see aloha_mac.hpp); this MAC models the
// CCA-capable radio the 802.15.4 comparison needs as an energy-detect
// sample of the medium while the receiver is on — the simulator's channel
// answers whether any audible frame is in flight.  The RX current burned
// during backoff + CCA is exactly the contention cost the energy model is
// supposed to expose.
//
// The optional CFP reuses the TDMA grant machinery verbatim: a node asks
// with kSlotRequest (sent through CSMA contention), the base station
// answers with kSlotGrant, and the beacon's slot-owner table announces the
// GTS layout — a granted node transmits in its GTS slot and skips the CAP.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "mac/mac_base.hpp"
#include "mac/tdma_config.hpp"
#include "net/packet.hpp"
#include "os/node_os.hpp"
#include "sim/context.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::mac {

struct CsmaConfig {
  /// PAN identity; the base station address derives from it exactly as in
  /// TDMA so foreign-cell filtering works unchanged.
  std::uint16_t pan_id{0};

  /// Superframe (beacon-to-beacon) length, CAP + CFP + guard included.
  sim::Duration cycle{sim::Duration::milliseconds(30)};

  /// aUnitBackoffPeriod: the CAP's backoff-slot width.
  sim::Duration backoff_unit{sim::Duration::from_microseconds(320)};
  std::uint8_t min_be{3};        ///< macMinBE
  std::uint8_t max_be{5};        ///< macMaxBE
  std::uint8_t max_backoffs{4};  ///< macMaxCSMABackoffs
  /// CCA energy-detect window (8 symbols at 802.15.4 rates).
  sim::Duration cca{sim::Duration::from_microseconds(128)};

  /// Link-layer acknowledgements + retransmission budget per payload.
  bool ack_data{true};
  sim::Duration ack_wait{sim::Duration::from_milliseconds(1.5)};
  std::uint8_t max_retries{3};

  /// Contention-free period: GTS slot count (0 disables the CFP) and width.
  std::uint8_t gts_slots{0};
  sim::Duration gts_slot{sim::Duration::milliseconds(5)};

  /// Beacon-tracking guard, mirroring TdmaConfig::guard().
  sim::Duration guard_fixed{sim::Duration::from_microseconds(2500)};
  double guard_fraction{0.005};
  std::uint8_t missed_beacon_limit{4};
  sim::Duration beacon_timeout_margin{sim::Duration::from_microseconds(500)};

  std::size_t tx_queue_cap{8};

  [[nodiscard]] sim::Duration guard() const {
    return guard_fixed + cycle.scaled(guard_fraction);
  }
  [[nodiscard]] sim::Duration cfp() const {
    return gts_slot * static_cast<std::int64_t>(gts_slots);
  }
  [[nodiscard]] static net::NodeId bs_address(std::uint16_t pan) {
    return TdmaConfig::bs_address(pan);
  }

  /// Hard-errors (throws std::invalid_argument) on an unusable geometry.
  void validate() const;
};

struct CsmaNodeStats {
  std::uint64_t beacons_received{0};
  std::uint64_t beacons_missed{0};
  std::uint64_t foreign_beacons{0};
  std::uint64_t resyncs{0};
  std::uint64_t data_sent{0};
  std::uint64_t payloads_queued{0};
  std::uint64_t payloads_dropped{0};
  std::uint64_t acks_received{0};
  std::uint64_t retransmissions{0};
  std::uint64_t retry_drops{0};
  std::uint64_t cca_attempts{0};   ///< CCA samples taken
  std::uint64_t cca_busy{0};       ///< samples that found the medium busy
  std::uint64_t cca_failures{0};   ///< NB exhausted (channel-access failure)
  std::uint64_t cap_deferrals{0};  ///< attempt pushed to the next superframe
  std::uint64_t gts_requests_sent{0};
  std::uint64_t grants_received{0};
  std::uint64_t gts_tx{0};         ///< data frames sent inside an owned GTS
  std::uint64_t crashes{0};
  std::uint64_t reboots{0};
};

class CsmaNodeMac final : public NodeMacBase {
 public:
  /// `use_gts`: request a guaranteed slot and transmit contention-free once
  /// granted (requires config.gts_slots > 0); otherwise pure CAP contention.
  CsmaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
              const CsmaConfig& config, net::NodeId self, sim::Rng rng,
              bool use_gts = false);

  void start() override;
  void queue_payload(std::vector<std::uint8_t> payload) override;
  [[nodiscard]] bool joined() const override { return life_.synced; }
  [[nodiscard]] std::size_t queue_depth() const override {
    return tx_queue_.size();
  }
  [[nodiscard]] std::size_t queue_capacity() const override {
    return config_.tx_queue_cap;
  }
  void crash() override;
  void reboot() override;
  [[nodiscard]] bool crashed() const override { return crashed_; }
  [[nodiscard]] Protocol protocol() const override { return Protocol::kCsmaCa; }
  [[nodiscard]] MacStatsSnapshot stats_snapshot() const override;
  [[nodiscard]] const std::vector<sim::Duration>& resync_times() const override {
    return resync_times_;
  }
  [[nodiscard]] const std::vector<sim::Duration>& rejoin_times() const override {
    return rejoin_times_;
  }

  [[nodiscard]] const CsmaNodeStats& stats() const { return stats_; }
  [[nodiscard]] int gts_slot_index() const { return life_.my_gts; }
  [[nodiscard]] bool uses_gts() const { return use_gts_; }

 private:
  void on_packet(const net::Packet& packet);
  void process_beacon(const net::Packet& packet, sim::TimePoint rx_time);
  void process_grant(const net::Packet& packet);
  void process_ack(const net::Packet& packet);
  void on_ack_timeout();

  /// Plans this superframe from the (estimated) beacon air-start instant:
  /// CAP contention or GTS transmission, GTS request if wanted, next wake.
  void schedule_cycle(sim::TimePoint cycle_start);
  void wake_for_beacon();
  void on_beacon_timeout();
  void enter_search();

  /// Starts a fresh CSMA/CA attempt (NB=0, BE=macMinBE) for the frame at
  /// the head of the queue — or the pending GTS request.
  void begin_attempt();
  /// Draws the backoff, aligns it to the next CAP backoff boundary and arms
  /// the CCA; defers to the next superframe when the CAP cannot fit the
  /// transmission any more.
  void next_backoff();
  void on_cca(sim::TimePoint boundary);
  void escalate_backoff();
  void transmit_head();
  void transmit_gts();
  void send_gts_request();

  void cancel_cycle_timers();
  void cancel_all_timers();
  void stop_timer(os::TimerService::TimerId& id);

  [[nodiscard]] sim::Duration beacon_air_estimate() const;
  [[nodiscard]] sim::Duration tx_air_estimate(std::size_t payload_bytes) const;
  /// End of the CAP in this superframe (CFP and guard excluded).
  [[nodiscard]] sim::TimePoint cap_end() const;

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  CsmaConfig config_;
  net::NodeId self_;
  sim::Rng rng_;
  bool use_gts_;

  net::NodeId bs_address_;
  std::deque<std::vector<std::uint8_t>> tx_queue_;

  sim::Duration cycle_known_{sim::Duration::zero()};  ///< from the last beacon
  sim::TimePoint last_cycle_start_;
  sim::TimePoint cap_start_;       ///< first backoff boundary this superframe

  /// Per-life state: everything crash() forgets.  The defaults are the
  /// values after a crash, so crash() is teardown plus `life_ = {}`; the
  /// constructor alone starts with `searching` set.
  struct Life {
    std::uint8_t data_seq{0};
    bool synced{false};
    bool searching{false};
    std::size_t last_beacon_wire_bytes{0};
    std::uint8_t missed{0};
    /// GTS geometry as announced by the last beacon.
    std::uint8_t beacon_gts_slots{0};
    sim::Duration beacon_gts_slot{sim::Duration::zero()};
    int my_gts{-1};
    // One CSMA/CA attempt in flight at a time.
    bool attempt_active{false};
    bool attempt_is_request{false};  ///< attempt carries the GTS request
    std::uint8_t nb{0};
    std::uint8_t be{0};
    std::uint8_t retries{0};
    bool awaiting_ack{false};
    bool awaiting_grant{false};
    os::TimerService::TimerId wake_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId timeout_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId backoff_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId cca_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId ack_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId grant_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId gts_timer{os::TimerService::kInvalidTimer};
    bool search_pending{false};
    bool rejoin_pending{false};
  };
  Life life_;

  /// Boot-epoch guard, exactly the NodeMac pattern: posted closures capture
  /// the epoch and no-op if a crash bumped it since.
  std::uint64_t boot_epoch_{0};
  bool must_reassociate_{false};
  bool crashed_{false};
  sim::TimePoint search_started_{};
  sim::TimePoint reboot_at_{};
  std::vector<sim::Duration> resync_times_;
  std::vector<sim::Duration> rejoin_times_;
  CsmaNodeStats stats_;
};

struct CsmaBaseStationStats {
  std::uint64_t beacons_sent{0};
  std::uint64_t data_received{0};
  std::uint64_t gts_requests{0};
  std::uint64_t gts_granted{0};
  std::uint64_t requests_rejected{0};
  std::uint64_t grants_sent{0};
  std::uint64_t acks_sent{0};
};

class CsmaBaseStationMac final : public BaseStationMacBase {
 public:
  CsmaBaseStationMac(sim::SimContext& context, os::NodeOs& node_os,
                     const CsmaConfig& config);

  void start() override;
  void set_data_handler(DataHandler handler) override {
    data_handler_ = std::move(handler);
  }
  [[nodiscard]] std::size_t joined_nodes() const override {
    return sources_heard_.size();
  }
  [[nodiscard]] Protocol protocol() const override { return Protocol::kCsmaCa; }

  [[nodiscard]] const CsmaBaseStationStats& stats() const { return stats_; }
  [[nodiscard]] const std::vector<net::NodeId>& gts_owners() const {
    return gts_owners_;
  }

 private:
  void begin_cycle();
  void emit_beacon();
  void on_packet(const net::Packet& packet);
  void handle_gts_request(const net::Packet& packet);
  /// One control frame (grant/ACK) squeezed into the listen period; frames
  /// that cannot drain before the next beacon are skipped (TDMA's rule).
  void send_control(net::Packet packet, std::uint64_t prep_cycles);
  [[nodiscard]] net::Packet make_beacon();

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  CsmaConfig config_;
  DataHandler data_handler_;
  std::vector<net::NodeId> gts_owners_;  ///< size == config.gts_slots
  std::vector<net::NodeId> sources_heard_;  ///< distinct data sources (sorted)
  std::uint8_t beacon_seq_{0};
  sim::TimePoint next_cycle_at_;
  CsmaBaseStationStats stats_;
};

}  // namespace bansim::mac
