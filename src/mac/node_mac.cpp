#include "mac/node_mac.hpp"

#include <algorithm>
#include <cassert>

#include "phy/air_frame.hpp"

namespace bansim::mac {

const char* to_string(NodeMacState s) {
  switch (s) {
    case NodeMacState::kBooting: return "booting";
    case NodeMacState::kSearching: return "searching";
    case NodeMacState::kJoining: return "joining";
    case NodeMacState::kJoined: return "joined";
  }
  return "?";
}

MacStatsSnapshot NodeMac::stats_snapshot() const {
  MacStatsSnapshot s;
  s.payloads_queued = stats_.payloads_queued;
  s.payloads_dropped = stats_.payloads_dropped;
  s.data_sent = stats_.data_sent;
  s.acks_received = stats_.acks_received;
  s.retransmissions = stats_.retransmissions;
  s.retry_drops = stats_.retry_drops;
  s.beacons_received = stats_.beacons_received;
  s.beacons_missed = stats_.beacons_missed;
  s.resyncs = stats_.resyncs;
  s.crashes = stats_.crashes;
  s.reboots = stats_.reboots;
  return s;
}

NodeMac::NodeMac(sim::SimContext& context, os::NodeOs& node_os,
                 const TdmaConfig& config, net::NodeId self, sim::Rng rng)
    : simulator_{context.simulator}, tracer_{context.tracer},
      trace_node_{tracer_.intern(node_os.node_name())}, os_{node_os},
      config_{config}, self_{self}, rng_{rng},
      bs_address_{TdmaConfig::bs_address(config.pan_id)} {
  assert(self_ != bs_address_ && self_ != net::kBroadcastId &&
         self_ != kFreeSlot);
  os_.radio().radio().set_local_address(self_);
  os_.radio().set_receive_handler(
      [this](const net::Packet& p) { on_packet(p); });
}

void NodeMac::start() {
  os_.radio().init([this, epoch = boot_epoch_] {
    if (epoch == boot_epoch_) enter_search();
  });
}

void NodeMac::stop_timer(os::TimerService::TimerId& id) {
  if (id != os::TimerService::kInvalidTimer) {
    os_.timers().stop(id);
    id = os::TimerService::kInvalidTimer;
  }
}

void NodeMac::cancel_cycle_timers() {
  stop_timer(life_.slot_timer);
  stop_timer(life_.wake_timer);
}

void NodeMac::cancel_all_timers() {
  cancel_cycle_timers();
  stop_timer(life_.timeout_timer);
  stop_timer(life_.grant_timer);
  stop_timer(life_.ack_timer);
  stop_timer(life_.ssr_timer);
  stop_timer(life_.powerup_timer);
  stop_timer(life_.search_timer);
}

void NodeMac::crash() {
  if (crashed_) return;
  crashed_ = true;
  ++stats_.crashes;
  // Posted tasks and armed callbacks belong to the old life; the epoch bump
  // no-ops whatever teardown cannot reach.
  ++boot_epoch_;
  cancel_all_timers();
  tx_queue_.clear();
  owners_.clear();
  life_ = {};
  // The driver forgets its in-flight send; the chip is cut mid-state (a
  // forced power-down is legal from anywhere and drops any latched frame).
  os_.radio().reset();
  os_.radio().radio().power_down();
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "CRASH: mac state lost"; });
}

void NodeMac::reboot() {
  if (!crashed_) return;
  crashed_ = false;
  ++stats_.reboots;
  must_reassociate_ = true;
  reboot_at_ = simulator_.now();
  life_.rejoin_pending = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "reboot: cold start"; });
  start();
}

void NodeMac::queue_payload(std::vector<std::uint8_t> payload) {
  assert(payload.size() <= net::kMaxPayloadBytes);
  ++stats_.payloads_queued;
  if (crashed_) {
    // A dead node's sensing pipeline is dead too, but defend against
    // application timers still draining through the scheduler.
    ++stats_.payloads_dropped;
    return;
  }
  if (tx_queue_.size() >= config_.tx_queue_cap) {
    tx_queue_.pop_front();
    ++stats_.payloads_dropped;
  }
  tx_queue_.push_back(std::move(payload));
}

void NodeMac::enter_search() {
  life_.state = NodeMacState::kSearching;
  ++stats_.resyncs;
  life_.missed = 0;
  life_.my_slot = -1;
  cancel_cycle_timers();
  stop_timer(life_.timeout_timer);
  search_started_ = simulator_.now();
  life_.search_pending = true;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [](sim::TraceMessage& m) { m << "searching for beacon"; });
  if (config_.search_listen.is_zero()) {
    // Legacy: listen until a beacon arrives, however long that takes.
    if (!os_.radio().listening()) os_.radio().start_listen();
    return;
  }
  life_.search_backoff_level = 0;
  begin_search_listen();
}

void NodeMac::begin_search_listen() {
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  life_.search_timer = os_.timers().start_oneshot(
      "mac.search_window", config_.search_listen,
      [this] { on_search_window_elapsed(); });
}

void NodeMac::on_search_window_elapsed() {
  life_.search_timer = os::TimerService::kInvalidTimer;
  if (life_.state != NodeMacState::kSearching) return;
  if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
    // A frame (maybe our beacon) is clocking out right now; let it finish.
    life_.search_timer = os_.timers().start_oneshot(
        "mac.search_window", sim::Duration::from_microseconds(500),
        [this] { on_search_window_elapsed(); });
    return;
  }
  // No beacon inside the window: power-cycle the radio — which also clears
  // a locked-up receiver, the recovery path for that fault — and back off
  // before burning RX current again.
  if (os_.radio().listening()) os_.radio().stop_listen();
  os_.radio().radio().power_down();
  ++stats_.search_power_cycles;
  sim::Duration backoff = config_.search_backoff_base;
  for (std::uint32_t i = 0; i < life_.search_backoff_level; ++i) {
    backoff = backoff.scaled(config_.search_backoff_factor);
    if (backoff >= config_.search_backoff_max) break;
  }
  if (backoff > config_.search_backoff_max) backoff = config_.search_backoff_max;
  ++life_.search_backoff_level;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "search window empty, backoff " << backoff;
               });
  life_.search_timer = os_.timers().start_oneshot(
      "mac.search_backoff", backoff, [this] {
        life_.search_timer = os::TimerService::kInvalidTimer;
        if (life_.state != NodeMacState::kSearching) return;
        begin_search_listen();  // start_listen re-powers the radio if needed
      });
}

sim::Duration NodeMac::beacon_air_estimate() const {
  const std::size_t bytes = life_.last_beacon_wire_bytes != 0
                                ? life_.last_beacon_wire_bytes
                                : net::kHeaderBytes + 12 + net::kCrcBytes;
  return phy::air_time(os_.radio().radio().phy_config(), bytes);
}

void NodeMac::on_packet(const net::Packet& packet) {
  // A frame clocked out just before the crash can still drain through the
  // OS dispatch queue; the dead MAC must not act on it.
  if (crashed_) return;
  switch (packet.header.type) {
    case net::PacketType::kSlotGrant:
      // Directed frames from a foreign base station (a co-located BAN with
      // a node sharing our short address) must not be honoured.
      if (packet.header.src == bs_address_) process_grant(packet);
      return;
    case net::PacketType::kAck:
      if (packet.header.src == bs_address_) process_ack(packet);
      return;
    case net::PacketType::kBeacon:
      if (packet.header.src != bs_address_) {
        ++stats_.foreign_beacons;
        return;  // another PAN's beacon: keep listening for ours
      }
      break;
    default:
      return;
  }
  const sim::TimePoint rx_time = simulator_.now();

  // The beacon is in hand: the receiver's job this cycle is done.
  stop_timer(life_.timeout_timer);
  stop_timer(life_.search_timer);
  if (os_.radio().listening()) os_.radio().stop_listen();

  const std::uint64_t cycles =
      350 + 14 * (packet.payload.size() > 11
                      ? (packet.payload.size() - 11) / 2
                      : 0);
  os_.scheduler().post("mac.beacon_proc", cycles,
                       [this, packet, rx_time, epoch = boot_epoch_] {
                         if (epoch != boot_epoch_) return;
                         process_beacon(packet, rx_time);
                       });
}

void NodeMac::process_beacon(const net::Packet& packet,
                             sim::TimePoint rx_time) {
  auto payload = net::BeaconPayload::deserialize(packet.payload);
  if (!payload) return;

  ++stats_.beacons_received;
  life_.missed = 0;
  life_.search_backoff_level = 0;
  if (life_.search_pending) {
    resync_times_.push_back(simulator_.now() - search_started_);
    life_.search_pending = false;
  }
  life_.cycle = sim::Duration::microseconds(payload->cycle_us);
  life_.slot_width = sim::Duration::microseconds(payload->slot_us);
  owners_ = payload->slot_owners;
  life_.last_beacon_wire_bytes = packet.wire_size();

  const auto mine = std::find(owners_.begin(), owners_.end(), self_);
  life_.my_slot = mine == owners_.end()
                 ? -1
                 : static_cast<int>(mine - owners_.begin());
  // After a reboot the table may still carry the pre-crash slot, but the
  // base station has not heard from this incarnation: re-associate
  // explicitly instead of silently resuming a grant that may be reclaimed
  // mid-cycle.  The flag clears once our own SSR is on the air.
  if (must_reassociate_) life_.my_slot = -1;

  const NodeMacState before = life_.state;
  life_.state = life_.my_slot >= 0 ? NodeMacState::kJoined
                         : (life_.state == NodeMacState::kJoined
                                ? NodeMacState::kSearching
                                : life_.state);
  if (life_.state != before) {
    tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                 [&](sim::TraceMessage& m) {
                   m << "state " << to_string(before) << " -> "
                     << to_string(life_.state);
                 });
  }
  if (life_.state == NodeMacState::kJoined && life_.rejoin_pending) {
    rejoin_times_.push_back(simulator_.now() - reboot_at_);
    life_.rejoin_pending = false;
  }

  // Anchor the cycle at the instant the beacon's first bit hit the air.
  last_cycle_start_ = rx_time - beacon_air_estimate();
  schedule_cycle(last_cycle_start_);
}

void NodeMac::schedule_cycle(sim::TimePoint cycle_start) {
  const sim::TimePoint now = simulator_.now();
  sim::TimePoint earliest_radio_use = sim::TimePoint::max();

  // A re-anchored plan supersedes whatever the previous cycle armed: a
  // slot_tx left over from a dead-reckoned cycle keeps the stale anchor
  // and would fire inside someone else's slot.
  cancel_cycle_timers();

  // 1. Our data slot, if we own one and have something to say.  Data slot i
  //    occupies [cycle_start + (1+i)*slot, +slot).  On a dead-reckoned
  //    cycle the slot layout may have changed behind our back wherever the
  //    base station can move slots (dynamic cycles shrink when a slot is
  //    reclaimed, shifting every later index; static reclamation regrants
  //    freed slots): transmitting on the stale layout would land inside
  //    someone else's slot, so the payload waits for a confirmed beacon.
  const bool layout_may_shift =
      config_.variant == TdmaVariant::kDynamic ||
      config_.reclaim_after_cycles > 0;
  const bool stale_layout = life_.missed > 0 && layout_may_shift;
  if (stale_layout && life_.my_slot >= 0 && !tx_queue_.empty()) {
    ++stats_.slot_tx_deferred;
    tracer_.emit(now, sim::TraceCategory::kMac, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "slot tx deferred (dead-reckoned layout)";
                 });
  }
  if (life_.my_slot >= 0 && !tx_queue_.empty() && !stale_layout) {
    const sim::TimePoint slot_start =
        cycle_start + life_.slot_width * (1 + life_.my_slot);
    if (slot_start > now) {
      life_.slot_timer = os_.timers().start_oneshot(
          "mac.slot_tx", slot_start - now, [this] {
            life_.slot_timer = os::TimerService::kInvalidTimer;
            transmit_queued();
          });
      earliest_radio_use = std::min(earliest_radio_use, slot_start);
    }
  }

  // 2. Slot request when we are not (yet) in the table.
  if (life_.my_slot < 0 && (life_.state == NodeMacState::kSearching ||
                       life_.state == NodeMacState::kJoining)) {
    send_slot_request(cycle_start);
    earliest_radio_use = now;  // SSR timing is internal; skip power-down
  }

  // 3. Next beacon wake-up, guard time ahead of the expectation.
  const sim::TimePoint expected_next = cycle_start + life_.cycle;
  const sim::Duration guard = config_.guard(life_.cycle);
  const sim::TimePoint wake = expected_next - guard;
  if (wake > now) {
    life_.wake_timer = os_.timers().start_oneshot(
        "mac.beacon_wake", wake - now, [this] {
          life_.wake_timer = os::TimerService::kInvalidTimer;
          wake_for_beacon();
        });
    earliest_radio_use = std::min(earliest_radio_use, wake);
  } else {
    // Degenerate guard (cycle shorter than guard): stay listening.
    wake_for_beacon();
    earliest_radio_use = now;
  }

  if (earliest_radio_use > now) plan_power_down(earliest_radio_use);
}

void NodeMac::plan_power_down(sim::TimePoint next_use) {
  if (!config_.radio_power_down) return;
  auto& radio = os_.radio().radio();
  if (os_.radio().listening() || os_.radio().sending()) return;
  if (radio.state() != hw::RadioState::kStandby) return;

  const sim::TimePoint now = simulator_.now();
  const sim::Duration lead =
      radio.params().powerup_time + config_.power_up_margin;
  // Not worth the crystal restart when the idle stretch is too short.
  if (next_use - now <= lead + config_.power_up_margin) return;

  radio.power_down();
  stop_timer(life_.powerup_timer);  // stale wake-up from a superseded plan
  life_.powerup_timer = os_.timers().start_oneshot(
      "mac.radio_powerup", (next_use - now) - lead, [this] {
        life_.powerup_timer = os::TimerService::kInvalidTimer;
        auto& r = os_.radio().radio();
        if (r.state() == hw::RadioState::kPowerDown) {
          r.power_up();
        }
      });
}

void NodeMac::send_slot_request(sim::TimePoint cycle_start) {
  const sim::TimePoint now = simulator_.now();
  // ~1 ms after TX kickoff covers FIFO clock-in + settling + the burst.
  const sim::Duration tx_window = sim::Duration::milliseconds(1);

  std::uint8_t wanted = 0xFF;
  sim::TimePoint ssr_at;

  if (config_.variant == TdmaVariant::kStatic) {
    // Pick a random free slot and a random jitter inside it.  A rebooted
    // node still listed in the table may also re-request its own old slot —
    // otherwise a full network would leave it no slot to re-associate
    // through (the base station answers by repeating the existing grant).
    std::vector<std::uint8_t> free_slots;
    for (std::size_t i = 0; i < owners_.size(); ++i) {
      if (owners_[i] == kFreeSlot ||
          (must_reassociate_ && owners_[i] == self_)) {
        free_slots.push_back(static_cast<std::uint8_t>(i));
      }
    }
    if (free_slots.empty()) return;  // network full: stay searching
    wanted = free_slots[static_cast<std::size_t>(rng_.uniform_int(
        0, static_cast<std::int64_t>(free_slots.size()) - 1))];
    const sim::TimePoint slot_start =
        cycle_start + life_.slot_width * (1 + wanted);
    const double span =
        (life_.slot_width - tx_window).to_seconds();
    ssr_at = slot_start +
             sim::Duration::from_seconds(rng_.uniform(0.0, std::max(0.0, span)));
  } else {
    // Dynamic: random instant inside the ES window (tail of slot 0).
    const sim::TimePoint es_start =
        cycle_start + beacon_air_estimate() +
        sim::Duration::from_microseconds(200);
    const sim::TimePoint es_end = cycle_start + life_.slot_width;
    const double span = (es_end - es_start - tx_window).to_seconds();
    if (span <= 0) return;
    ssr_at = es_start + sim::Duration::from_seconds(rng_.uniform(0.0, span));
  }

  if (ssr_at <= now) return;  // window already passed this cycle

  life_.state = NodeMacState::kJoining;
  stop_timer(life_.ssr_timer);  // one pending request at a time
  life_.ssr_timer = os_.timers().start_oneshot("mac.ssr", ssr_at - now, [this, wanted] {
    life_.ssr_timer = os::TimerService::kInvalidTimer;
    os_.scheduler().post("mac.join", 500, [this, wanted, epoch = boot_epoch_] {
      if (epoch != boot_epoch_) return;
      if (os_.radio().sending() || os_.radio().listening()) return;
      net::Packet req;
      req.header.dest = bs_address_;
      req.header.src = self_;
      req.header.type = net::PacketType::kSlotRequest;
      req.header.seq = life_.data_seq++;
      req.payload = {wanted};
      ++stats_.slot_requests_sent;
      // The re-association handshake is this SSR: once it is on the air the
      // node may trust the table again (the base station repeats the grant
      // of a slot it still holds).
      must_reassociate_ = false;
      tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                   [&](sim::TraceMessage& m) {
                     m << "SSR (slot " << wanted << ")";
                   });
      os_.radio().send(req, [this] {
        if (!config_.fast_grant) return;
        // Keep the receiver open briefly: the base station answers an
        // accepted request with a directed SlotGrant right away.
        os_.radio().start_listen();
        life_.grant_timer = os_.timers().start_oneshot(
            "mac.grant_timeout", config_.grant_wait, [this] {
              life_.grant_timer = os::TimerService::kInvalidTimer;
              if (os_.radio().listening() &&
                  os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
                os_.radio().stop_listen();
              }
            });
      });
    });
  });
}

void NodeMac::process_grant(const net::Packet& packet) {
  const auto grant = net::SlotGrantPayload::deserialize(packet.payload);
  if (!grant) return;
  ++stats_.grants_received;
  if (life_.grant_timer != os::TimerService::kInvalidTimer) {
    os_.timers().stop(life_.grant_timer);
    life_.grant_timer = os::TimerService::kInvalidTimer;
  }
  if (os_.radio().listening()) os_.radio().stop_listen();

  life_.my_slot = grant->slot_index;
  life_.state = NodeMacState::kJoined;
  if (life_.rejoin_pending) {
    rejoin_times_.push_back(simulator_.now() - reboot_at_);
    life_.rejoin_pending = false;
  }
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "fast grant: slot " << life_.my_slot;
               });

  // In the static variant the granted slot may still lie ahead inside the
  // current cycle; use it.  (Dynamic grants extend the cycle beyond the
  // in-flight one, so the first transmission waits for the next beacon.)
  if (config_.variant == TdmaVariant::kStatic && !tx_queue_.empty() &&
      !life_.cycle.is_zero()) {
    const sim::TimePoint slot_start =
        last_cycle_start_ + life_.slot_width * (1 + life_.my_slot);
    const sim::TimePoint now = simulator_.now();
    if (slot_start > now &&
        life_.slot_timer == os::TimerService::kInvalidTimer) {
      life_.slot_timer = os_.timers().start_oneshot(
          "mac.slot_tx", slot_start - now, [this] {
            life_.slot_timer = os::TimerService::kInvalidTimer;
            transmit_queued();
          });
    }
  }
}

void NodeMac::process_ack(const net::Packet&) {
  if (!life_.awaiting_ack) return;
  life_.awaiting_ack = false;
  ++stats_.acks_received;
  if (life_.ack_timer != os::TimerService::kInvalidTimer) {
    os_.timers().stop(life_.ack_timer);
    life_.ack_timer = os::TimerService::kInvalidTimer;
  }
  if (os_.radio().listening()) os_.radio().stop_listen();
  // Delivery confirmed: retire the frame at the head of the queue.
  if (!tx_queue_.empty()) tx_queue_.pop_front();
  life_.retries = 0;
}

void NodeMac::on_ack_timeout() {
  life_.ack_timer = os::TimerService::kInvalidTimer;
  if (!life_.awaiting_ack) return;
  life_.awaiting_ack = false;
  if (os_.radio().listening() &&
      os_.radio().radio().state() != hw::RadioState::kRxClockOut) {
    os_.radio().stop_listen();
  }
  if (++life_.retries > config_.max_retries) {
    // Give up on this payload; the next one gets a fresh attempt budget.
    if (!tx_queue_.empty()) tx_queue_.pop_front();
    ++stats_.retry_drops;
    life_.retries = 0;
  }
}

void NodeMac::transmit_queued() {
  if (tx_queue_.empty() || life_.my_slot < 0) return;
  // In ACK mode the payload stays at the head until it is acknowledged
  // (or abandoned); otherwise transmission is fire-and-forget.
  std::vector<std::uint8_t> payload = tx_queue_.front();
  if (!config_.ack_data) tx_queue_.pop_front();

  const std::uint64_t cycles = 260 + 6 * payload.size();
  os_.scheduler().post(
      "mac.prepare_tx", cycles,
      [this, payload = std::move(payload), epoch = boot_epoch_] {
        if (epoch != boot_epoch_) return;
        if (os_.radio().sending() || os_.radio().listening()) return;
        net::Packet data;
        data.header.dest = bs_address_;
        data.header.src = self_;
        data.header.type = net::PacketType::kData;
        data.header.seq = life_.data_seq++;
        data.payload = payload;
        ++stats_.data_sent;
        if (config_.ack_data && life_.retries > 0) ++stats_.retransmissions;
        tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
                     [&](sim::TraceMessage& m) {
                       m << "Si data tx slot=" << life_.my_slot
                         << " len=" << data.payload.size();
                     });
        os_.radio().send(data, [this] {
          if (!config_.ack_data) return;
          // Hold the receiver open for the in-slot acknowledgement.
          life_.awaiting_ack = true;
          os_.radio().start_listen();
          life_.ack_timer = os_.timers().start_oneshot(
              "mac.ack_timeout", config_.ack_wait, [this] { on_ack_timeout(); });
        });
      });
}

void NodeMac::wake_for_beacon() {
  if (life_.state == NodeMacState::kBooting) return;
  if (!os_.radio().listening() && !os_.radio().sending()) {
    os_.radio().start_listen();
  }
  // Declare the beacon missed if it has not arrived by
  // guard (to the expectation) + guard (symmetric late bound) + air + margin.
  const sim::Duration guard = config_.guard(life_.cycle);
  const sim::Duration timeout =
      guard + guard + beacon_air_estimate() + config_.beacon_timeout_margin;
  life_.timeout_timer = os_.timers().start_oneshot(
      "mac.beacon_timeout", timeout, [this] { on_beacon_timeout(); });
}

void NodeMac::on_beacon_timeout() {
  life_.timeout_timer = os::TimerService::kInvalidTimer;
  if (os_.radio().radio().state() == hw::RadioState::kRxClockOut) {
    // The beacon is being clocked out of the FIFO right now; give it the
    // benefit of the doubt.
    life_.timeout_timer = os_.timers().start_oneshot(
        "mac.beacon_timeout", sim::Duration::from_microseconds(500),
        [this] { on_beacon_timeout(); });
    return;
  }

  ++stats_.beacons_missed;
  ++life_.missed;
  if (os_.radio().listening()) os_.radio().stop_listen();

  if (life_.missed > config_.missed_beacon_limit || life_.cycle.is_zero()) {
    enter_search();
    return;
  }

  // Dead reckoning: assume the beacon fired exactly on schedule and plan
  // the cycle from the expectation.
  last_cycle_start_ = last_cycle_start_ + life_.cycle;
  tracer_.emit(simulator_.now(), sim::TraceCategory::kMac, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "beacon missed (" << life_.missed << "), dead reckoning";
               });
  schedule_cycle(last_cycle_start_);
}

}  // namespace bansim::mac
