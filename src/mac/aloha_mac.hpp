// Unslotted random-access MAC (pure-ALOHA class) — the baseline TDMA is
// judged against.
//
// The nRF2401 has no clear-channel assessment, so the only contention MAC
// it can run is transmit-and-hope: a node sends a queued payload after a
// random dither, optionally waits for the base station's ACK, and backs
// off exponentially on silence.  No beacons, no synchronization, no listen
// windows — transmit-only radio duty on the nodes.
//
// The comparison bench shows the trade the paper's TDMA design makes: the
// random-access node spends *less* radio energy at low load (no beacon
// tracking) but collapses in delivery as offered load grows, while TDMA
// delivery stays at 100 % for a constant, predictable energy.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <span>
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

struct AlohaConfig {
  /// Uniform dither before every first transmission attempt.
  sim::Duration initial_dither{sim::Duration::milliseconds(2)};
  /// ACK-based retransmission (without it, fire and forget).
  bool ack_data{true};
  sim::Duration ack_wait{sim::Duration::from_milliseconds(1.5)};
  std::uint8_t max_retries{5};
  /// Backoff window doubles per retry, starting here.
  sim::Duration backoff_base{sim::Duration::milliseconds(4)};
};

struct AlohaNodeStats {
  std::uint64_t data_sent{0};
  std::uint64_t acks_received{0};
  std::uint64_t retransmissions{0};
  std::uint64_t retry_drops{0};
  std::uint64_t payloads_queued{0};
  std::uint64_t payloads_dropped{0};
  std::uint64_t crashes{0};
  std::uint64_t reboots{0};
};

/// Sensor-node side.
class AlohaNodeMac final : public NodeMacBase {
 public:
  AlohaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
               const AlohaConfig& config, net::NodeId self, sim::Rng rng);

  void start() override;
  void queue_payload(std::vector<std::uint8_t> payload) override;

  /// There is no association handshake: a node is "joined" as soon as its
  /// radio finished the cold-boot power-up.
  [[nodiscard]] bool joined() const override { return life_.ready; }
  [[nodiscard]] std::size_t queue_depth() const override {
    return tx_queue_.size();
  }
  [[nodiscard]] std::size_t queue_capacity() const override {
    return kMaxQueue;
  }
  [[nodiscard]] const AlohaNodeStats& stats() const { return stats_; }

  [[nodiscard]] Protocol protocol() const override { return Protocol::kAloha; }
  [[nodiscard]] MacStatsSnapshot stats_snapshot() const override;

  // --- Fault interface -----------------------------------------------------

  /// Hard fault: queue, retry state and armed timers are lost, posted MAC
  /// work is invalidated, the radio is cut to power-down.
  void crash() override;
  /// Cold boot after crash(): powers the radio back up; transmission
  /// resumes as soon as the application queues the next payload.
  void reboot() override;
  [[nodiscard]] bool crashed() const override { return crashed_; }

  static constexpr std::size_t kMaxQueue = 16;

 private:
  void kick();            ///< schedules the next attempt if idle
  void attempt();         ///< transmits the head-of-queue payload
  void on_packet(const net::Packet& packet);
  void on_ack_timeout();
  void stop_timer(os::TimerService::TimerId& id);

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  sim::TraceNodeId trace_node_;
  os::NodeOs& os_;
  AlohaConfig config_;
  net::NodeId self_;
  sim::Rng rng_;
  std::deque<std::vector<std::uint8_t>> tx_queue_;
  /// Per-life state: everything crash() forgets.  The defaults are the
  /// values after a crash, so crash() is teardown plus `life_ = {}`.
  struct Life {
    bool ready{false};
    bool attempt_pending{false};
    bool awaiting_ack{false};
    std::uint8_t retries{0};
    std::uint8_t seq{0};
    os::TimerService::TimerId ack_timer{os::TimerService::kInvalidTimer};
    os::TimerService::TimerId attempt_timer{os::TimerService::kInvalidTimer};
  };
  Life life_;
  /// Crash teardown cannot cancel already-posted scheduler tasks; every
  /// posted closure captures the epoch at post time and no-ops if a crash
  /// bumped it since (see NodeMac::boot_epoch_).
  std::uint64_t boot_epoch_{0};
  bool crashed_{false};
  AlohaNodeStats stats_;
};

/// Base-station side: always listening, ACKs every data frame.
class AlohaBaseStation final : public BaseStationMacBase {
 public:
  using DataHandler = BaseStationMacBase::DataHandler;

  AlohaBaseStation(sim::SimContext& context, os::NodeOs& node_os,
                   const AlohaConfig& config);

  void set_data_handler(DataHandler handler) override {
    handler_ = std::move(handler);
  }
  void start() override;

  [[nodiscard]] std::uint64_t data_received() const { return data_received_; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

  /// Distinct sources heard so far — contention MACs have no association
  /// table, so "joined" means "has gotten at least one frame through".
  [[nodiscard]] std::size_t joined_nodes() const override {
    return sources_heard_.size();
  }
  [[nodiscard]] Protocol protocol() const override { return Protocol::kAloha; }

 private:
  void on_packet(const net::Packet& packet);

  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  os::NodeOs& os_;
  AlohaConfig config_;
  DataHandler handler_;
  std::vector<net::NodeId> sources_heard_;  ///< sorted, distinct
  std::uint64_t data_received_{0};
  std::uint64_t acks_sent_{0};
};

}  // namespace bansim::mac
