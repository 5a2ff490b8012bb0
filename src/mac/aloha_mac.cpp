#include "mac/aloha_mac.hpp"

#include <algorithm>

namespace bansim::mac {

AlohaNodeMac::AlohaNodeMac(sim::SimContext& context, os::NodeOs& node_os,
                           const AlohaConfig& config, net::NodeId self,
                           sim::Rng rng)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config}, self_{self}, rng_{rng} {
  os_.radio().radio().set_local_address(self_);
  os_.radio().set_receive_handler(
      [this](const net::Packet& p) { on_packet(p); });
}

void AlohaNodeMac::start() {
  const std::uint64_t epoch = boot_epoch_;
  os_.radio().init([this, epoch] {
    if (boot_epoch_ != epoch) return;
    life_.ready = true;
    kick();
  });
}

void AlohaNodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  ++stats_.payloads_queued;
  if (crashed_) {
    // A dead node's sensing pipeline is dead too, but defend against
    // application timers still draining through the scheduler.
    ++stats_.payloads_dropped;
    return;
  }
  if (tx_queue_.size() >= kMaxQueue) {
    tx_queue_.pop_front();
    ++stats_.payloads_dropped;
  }
  tx_queue_.push_back(std::move(payload));
  kick();
}

void AlohaNodeMac::stop_timer(os::TimerService::TimerId& id) {
  if (id != os::TimerService::kInvalidTimer) {
    os_.timers().stop(id);
    id = os::TimerService::kInvalidTimer;
  }
}

void AlohaNodeMac::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // Posted tasks and armed callbacks belong to the old life; the epoch bump
  // no-ops whatever teardown cannot reach.
  ++boot_epoch_;
  stop_timer(life_.ack_timer);
  stop_timer(life_.attempt_timer);
  tx_queue_.clear();
  life_ = {};
  // The driver forgets its in-flight send; the chip is cut mid-state (a
  // forced power-down is legal from anywhere and drops any latched frame).
  os_.radio().reset();
  os_.radio().radio().power_down();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "CRASH: mac state lost"; });
}

void AlohaNodeMac::reboot() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.reboots;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "reboot: cold start"; });
  start();
}

MacStatsSnapshot AlohaNodeMac::stats_snapshot() const {
  MacStatsSnapshot snap;
  snap.payloads_queued = stats_.payloads_queued;
  snap.payloads_dropped = stats_.payloads_dropped;
  snap.data_sent = stats_.data_sent;
  snap.acks_received = stats_.acks_received;
  snap.retransmissions = stats_.retransmissions;
  snap.retry_drops = stats_.retry_drops;
  snap.crashes = stats_.crashes;
  snap.reboots = stats_.reboots;
  return snap;
}

void AlohaNodeMac::kick() {
  if (!life_.ready || life_.attempt_pending || life_.awaiting_ack ||
      tx_queue_.empty()) {
    return;
  }
  life_.attempt_pending = true;
  const double dither_s =
      rng_.uniform(0.0, config_.initial_dither.to_seconds());
  life_.attempt_timer = os_.timers().start_oneshot(
      "aloha.dither", sim::Duration::from_seconds(dither_s),
      [this] { attempt(); });
}

void AlohaNodeMac::attempt() {
  life_.attempt_timer = os::TimerService::kInvalidTimer;
  life_.attempt_pending = false;
  if (tx_queue_.empty()) return;
  if (os_.radio().sending() || os_.radio().listening()) {
    // Radio mid-transaction (shouldn't happen in this MAC): retry shortly.
    kick();
    return;
  }
  const std::vector<std::uint8_t> payload = tx_queue_.front();
  if (!config_.ack_data) tx_queue_.pop_front();

  const std::uint64_t cycles = 240 + 6 * payload.size();
  const std::uint64_t epoch = boot_epoch_;
  os_.scheduler().post("mac.prepare_tx", cycles, [this, payload, epoch] {
    if (boot_epoch_ != epoch) return;
    if (os_.radio().sending() || os_.radio().listening()) return;
    net::Packet data;
    data.header.dest = net::kBaseStationId;
    data.header.src = self_;
    data.header.type = net::PacketType::kData;
    data.header.seq = life_.seq++;
    data.payload = payload;
    ++stats_.data_sent;
    if (life_.retries > 0) ++stats_.retransmissions;
    os_.radio().send(data, [this, epoch] {
      if (boot_epoch_ != epoch) return;
      if (!config_.ack_data) {
        kick();
        return;
      }
      life_.awaiting_ack = true;
      os_.radio().start_listen();
      life_.ack_timer = os_.timers().start_oneshot(
          "aloha.ack_timeout", config_.ack_wait, [this] { on_ack_timeout(); });
    });
  });
}

void AlohaNodeMac::on_packet(const net::Packet& packet) {
  if (crashed_) return;
  if (packet.header.type != net::PacketType::kAck || !life_.awaiting_ack) {
    return;
  }
  life_.awaiting_ack = false;
  ++stats_.acks_received;
  stop_timer(life_.ack_timer);
  if (os_.radio().listening()) os_.radio().stop_listen();
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  life_.retries = 0;
  kick();
}

void AlohaNodeMac::on_ack_timeout() {
  life_.ack_timer = os::TimerService::kInvalidTimer;
  if (!life_.awaiting_ack) return;
  life_.awaiting_ack = false;
  if (os_.radio().listening() &&
      os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
    os_.radio().stop_listen();
  }
  if (++life_.retries > config_.max_retries) {
    if (!tx_queue_.empty()) tx_queue_.pop_front();
    ++stats_.retry_drops;
    life_.retries = 0;
    kick();
    return;
  }
  // Exponential backoff: window doubles with every retry.
  const double window_s = config_.backoff_base.to_seconds() *
                          static_cast<double>(1u << (life_.retries - 1));
  life_.attempt_pending = true;
  life_.attempt_timer = os_.timers().start_oneshot(
      "aloha.backoff",
      sim::Duration::from_seconds(rng_.uniform(0.0, window_s)),
      [this] { attempt(); });
}

AlohaBaseStation::AlohaBaseStation(sim::SimContext& context,
                                   os::NodeOs& node_os,
                                   const AlohaConfig& config)
    : simulator_{context.simulator}, tracer_{context.tracer}, os_{node_os},
      config_{config} {
  os_.radio().radio().set_local_address(net::kBaseStationId);
  os_.radio().set_receive_handler(
      [this](const net::Packet& p) { on_packet(p); });
}

void AlohaBaseStation::start() {
  os_.radio().init([this] { os_.radio().start_listen(); });
}

void AlohaBaseStation::on_packet(const net::Packet& packet) {
  if (packet.header.type != net::PacketType::kData) return;
  ++data_received_;
  const auto it = std::lower_bound(sources_heard_.begin(),
                                   sources_heard_.end(), packet.header.src);
  if (it == sources_heard_.end() || *it != packet.header.src) {
    sources_heard_.insert(it, packet.header.src);
  }
  if (config_.ack_data) {
    net::Packet ack;
    ack.header.dest = packet.header.src;
    ack.header.src = net::kBaseStationId;
    ack.header.type = net::PacketType::kAck;
    ack.header.seq = packet.header.seq;
    os_.scheduler().post("bs.send_ack", 120, [this, ack] {
      if (os_.radio().sending()) return;
      if (os_.radio().listening()) os_.radio().stop_listen();
      ++acks_sent_;
      os_.radio().send(ack, [this] { os_.radio().start_listen(); });
    });
  }
  os_.scheduler().post("bs.handle_rx", 260 + 8 * packet.payload.size(),
                       [this, packet] {
                         if (handler_) {
                           handler_(packet.header.src, packet.payload,
                                    simulator_.now());
                         }
                       });
}

}  // namespace bansim::mac
