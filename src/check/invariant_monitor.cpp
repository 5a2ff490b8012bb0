#include "check/invariant_monitor.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <span>

#include "core/ban_network.hpp"
#include "net/packet.hpp"

namespace bansim::check {

namespace {

using hw::RadioState;

/// Datasheet-legal nRF2401 transitions.  power_down() is a reset and is
/// legal from any state; everything else follows the command structure of
/// the driver (Section 3.1 staging).
bool radio_transition_legal(int from, int to) {
  const auto f = static_cast<RadioState>(from);
  const auto t = static_cast<RadioState>(to);
  if (t == RadioState::kPowerDown) return true;
  switch (f) {
    case RadioState::kPowerDown: return t == RadioState::kPoweringUp;
    case RadioState::kPoweringUp: return t == RadioState::kStandby;
    case RadioState::kStandby:
      return t == RadioState::kTxClockIn || t == RadioState::kRxSettle;
    case RadioState::kTxClockIn: return t == RadioState::kTxSettle;
    case RadioState::kTxSettle: return t == RadioState::kTxAir;
    case RadioState::kTxAir: return t == RadioState::kStandby;
    case RadioState::kRxSettle:
      return t == RadioState::kRxListen || t == RadioState::kStandby;
    case RadioState::kRxListen:
      return t == RadioState::kRxClockOut || t == RadioState::kStandby;
    case RadioState::kRxClockOut:
      return t == RadioState::kRxListen || t == RadioState::kStandby;
  }
  return false;
}

const char* radio_state_name(int s) {
  return hw::to_string(static_cast<RadioState>(s));
}

}  // namespace

InvariantMonitor::InvariantMonitor(sim::SimContext& context)
    : InvariantMonitor{context, Options{}} {}

InvariantMonitor::InvariantMonitor(sim::SimContext& context, Options options)
    : context_{context}, options_{options} {
  context_.set_check_hooks(this);
}

InvariantMonitor::~InvariantMonitor() {
  if (context_.check_hooks() == this) context_.set_check_hooks(nullptr);
  for (auto& watch : meters_) watch.meter->set_check_hooks(nullptr);
}

void InvariantMonitor::watch_network(core::BanNetwork& network) {
  watch_channel(network.channel());
  for (std::size_t c = 0; c < network.num_cells(); ++c) {
    core::BanCell& cell = network.cell(c);
    const core::BanConfig& config = cell.config();
    // ALOHA has no PAN concept; its radios share tag 0.
    const std::uint8_t pan = config.pan();
    watch_board(cell.base_station_board(), pan);
    switch (config.mac) {
      case core::MacKind::kTdma:
        watch_cell(cell.base_station_mac(), config.effective_nodes(),
                   config.tdma);
        break;
      case core::MacKind::kCsmaCa:
        watch_contention_cell(pan, mac::Protocol::kCsmaCa, config.csma);
        break;
      case core::MacKind::kAloha:
        watch_contention_cell(pan, mac::Protocol::kAloha);
        break;
    }
    for (std::size_t i = 0; i < cell.num_nodes(); ++i) {
      watch_board(cell.node(i).board(), pan);
    }
  }
  if (const fault::StorageDriver* driver = network.storage_driver()) {
    watch_storage(*driver);
  }
}

void InvariantMonitor::watch_channel(const phy::Channel& channel) {
  ChannelWatch watch;
  watch.channel = &channel;
  watch.baseline_sent = channel.frames_sent();
  watch.baseline_in_flight = channel.frames_in_flight();
  channels_.push_back(std::move(watch));
}

void InvariantMonitor::watch_radio(const hw::RadioNrf2401& radio,
                                   std::uint8_t pan) {
  RadioWatch watch;
  watch.radio = &radio;
  watch.pan = pan;
  watch.state = static_cast<int>(radio.state());
  watch.since = context_.simulator.now();
  watch.powerup_time = radio.params().powerup_time;
  watch.settle_time = radio.params().settle_time;
  radios_.push_back(watch);
}

void InvariantMonitor::watch_mcu(const hw::Mcu& mcu) {
  McuWatch watch;
  watch.mcu = &mcu;
  watch.mode = static_cast<int>(mcu.mode());
  watch.wakeups = 0;
  watch.baseline_wakeups = mcu.wakeups();
  mcus_.push_back(watch);
}

void InvariantMonitor::watch_meter(energy::EnergyMeter& meter) {
  MeterWatch watch;
  watch.meter = &meter;
  watch.state = meter.current_state();
  watch.since = context_.simulator.now();
  watch.watched_from = watch.since;
  watch.residency.assign(meter.num_states(), sim::Duration::zero());
  watch.transients.assign(meter.num_states(), 0.0);
  watch.baseline_joules.resize(meter.num_states());
  for (std::size_t s = 0; s < meter.num_states(); ++s) {
    watch.baseline_joules[s] =
        meter.energy_in(static_cast<int>(s), watch.since);
  }
  meter.set_check_hooks(this);
  meters_.push_back(std::move(watch));
}

void InvariantMonitor::watch_board(hw::Board& board, std::uint8_t pan) {
  watch_radio(board.radio(), pan);
  watch_mcu(board.mcu());
  watch_meter(board.radio().meter());
  watch_meter(board.mcu().meter());
}

void InvariantMonitor::watch_cell(const mac::BaseStationMac& bs,
                                  std::size_t roster_size,
                                  const mac::TdmaConfig& config) {
  cells_.push_back(CellWatch{&bs, roster_size, config});
}

void InvariantMonitor::watch_contention_cell(std::uint8_t pan,
                                             mac::Protocol protocol,
                                             const mac::CsmaConfig& config) {
  ContentionWatch watch;
  watch.pan = pan;
  watch.protocol = protocol;
  watch.cca = config.cca;
  watch.backoff_unit = config.backoff_unit;
  contention_cells_.push_back(watch);
}

void InvariantMonitor::watch_storage(const fault::StorageDriver& driver) {
  storage_drivers_.push_back(&driver);
}

void InvariantMonitor::violation(const char* invariant, sim::TimePoint when,
                                 std::string detail) {
  ++total_violations_;
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(Violation{invariant, std::move(detail), when});
  }
}

InvariantMonitor::RadioWatch* InvariantMonitor::find_radio(const void* tag) {
  for (auto& w : radios_) {
    if (static_cast<const void*>(w.radio) == tag) return &w;
  }
  return nullptr;
}

InvariantMonitor::McuWatch* InvariantMonitor::find_mcu(const void* tag) {
  for (auto& w : mcus_) {
    if (static_cast<const void*>(w.mcu) == tag) return &w;
  }
  return nullptr;
}

InvariantMonitor::MeterWatch* InvariantMonitor::find_meter(const void* tag) {
  for (auto& w : meters_) {
    if (static_cast<const void*>(w.meter) == tag) return &w;
  }
  return nullptr;
}

InvariantMonitor::ChannelWatch* InvariantMonitor::find_channel(
    const void* tag) {
  for (auto& w : channels_) {
    if (static_cast<const void*>(w.channel) == tag) return &w;
  }
  return nullptr;
}

InvariantMonitor::ContentionWatch* InvariantMonitor::find_contention(
    std::uint8_t pan) {
  for (auto& w : contention_cells_) {
    if (w.pan == pan) return &w;
  }
  return nullptr;
}

// --- Channel hooks ----------------------------------------------------------

void InvariantMonitor::on_frame_transmit(const void* channel,
                                         std::uint64_t frame_id,
                                         std::uint32_t tx_id,
                                         const std::uint8_t* bytes,
                                         std::size_t num_bytes,
                                         sim::TimePoint air_start,
                                         sim::Duration air_time) {
  ++hook_events_;
  ChannelWatch* watch = find_channel(channel);
  if (!watch) return;
  ++watch->transmits;

  FrameInfo info;
  info.tx_id = tx_id;
  info.air_start = air_start;
  info.air_end = air_start + air_time;
  info.is_data = false;
  info.pan = 0xFF;
  const auto packet =
      net::Packet::deserialize(std::span<const std::uint8_t>{bytes, num_bytes});
  if (packet) info.is_data = packet->header.type == net::PacketType::kData;
  for (const auto& r : radios_) {
    if (r.radio->channel_id() == tx_id) {
      info.pan = r.pan;
      break;
    }
  }

  // Half-duplex: one radio never has two frames on the air at once, under
  // any protocol.
  for (const std::uint64_t other_id : watch->in_flight_ids) {
    const auto it = watch->frames.find(other_id);
    if (it == watch->frames.end()) continue;
    const FrameInfo& other = it->second;
    if (other.tx_id == tx_id && other.air_end > info.air_start) {
      violation("half-duplex", context_.simulator.now(),
                "tx" + std::to_string(tx_id) + " started frame " +
                    std::to_string(frame_id) + " while its frame " +
                    std::to_string(other_id) + " is still on the air");
    }
  }

  ContentionWatch* cell =
      info.pan == 0xFF ? nullptr : find_contention(info.pan);
  if (cell && packet && packet->header.type == net::PacketType::kBeacon) {
    // Anchor the superframe from the beacon itself; the payload carries the
    // full geometry, so the monitor needs no side-channel into the MAC.
    if (const auto beacon = net::BeaconPayload::deserialize(packet->payload)) {
      cell->anchored = true;
      cell->beacon_start = air_start;
      cell->cycle = sim::Duration::microseconds(beacon->cycle_us);
      cell->cfp = sim::Duration::microseconds(beacon->slot_us) *
                  static_cast<std::int64_t>(beacon->num_slots);
    }
  }

  if (info.is_data && !options_.expect_collisions && info.pan != 0xFF) {
    if (cell == nullptr) {
      // TDMA cell: strict data-slot exclusivity.
      for (const std::uint64_t other_id : watch->in_flight_ids) {
        const auto it = watch->frames.find(other_id);
        if (it == watch->frames.end()) continue;
        const FrameInfo& other = it->second;
        if (!other.is_data) continue;
        if (other.pan != info.pan) continue;
        if (other.air_end > info.air_start) {
          violation("tdma-exclusivity", context_.simulator.now(),
                    "data frame " + std::to_string(frame_id) + " from tx" +
                        std::to_string(tx_id) + " overlaps data frame " +
                        std::to_string(other_id) + " from tx" +
                        std::to_string(other.tx_id) + " in pan " +
                        std::to_string(info.pan));
        }
      }
    } else {
      // Contention cell: overlaps are legal in the CAP; GTS (CFP) frames
      // keep TDMA-grade exclusivity and CSMA transmitters must have passed
      // a recent CCA.
      if (cell->protocol == mac::Protocol::kCsmaCa && cell->anchored &&
          cell->cfp.is_positive()) {
        const sim::Duration rel = info.air_start - cell->beacon_start;
        info.in_cfp = rel >= cell->cycle - cell->cfp && rel < cell->cycle;
      }
      if (info.in_cfp) {
        for (const std::uint64_t other_id : watch->in_flight_ids) {
          const auto it = watch->frames.find(other_id);
          if (it == watch->frames.end()) continue;
          const FrameInfo& other = it->second;
          if (!other.is_data || !other.in_cfp) continue;
          if (other.pan != info.pan) continue;
          if (other.air_end > info.air_start) {
            violation("gts-exclusivity", context_.simulator.now(),
                      "GTS data frame " + std::to_string(frame_id) +
                          " from tx" + std::to_string(tx_id) +
                          " overlaps GTS frame " + std::to_string(other_id) +
                          " from tx" + std::to_string(other.tx_id) +
                          " in pan " + std::to_string(info.pan));
          }
        }
      } else if (cell->protocol == mac::Protocol::kCsmaCa) {
        // Backoff legality: a frame the transmitter can hear that has been
        // on the air longer than one CCA window (plus backoff-boundary
        // alignment, MCU prep and skew) before our air start would have
        // been seen by any legal clear-channel assessment.
        const sim::Duration tolerance = cell->cca + cell->backoff_unit * 2;
        for (const std::uint64_t other_id : watch->in_flight_ids) {
          const auto it = watch->frames.find(other_id);
          if (it == watch->frames.end()) continue;
          const FrameInfo& other = it->second;
          if (other.pan != info.pan) continue;
          if (!watch->channel->link(other.tx_id, tx_id)) continue;
          if (other.air_end > info.air_start &&
              other.air_start + tolerance < info.air_start) {
            violation("csma-backoff", context_.simulator.now(),
                      "tx" + std::to_string(tx_id) + " started data frame " +
                          std::to_string(frame_id) + " although frame " +
                          std::to_string(other_id) + " from tx" +
                          std::to_string(other.tx_id) +
                          " was already on the air past the CCA window");
          }
        }
      }
    }
  }

  if (!watch->frames.emplace(frame_id, info).second) {
    violation("packet-conservation", context_.simulator.now(),
              "frame id " + std::to_string(frame_id) + " transmitted twice");
  } else {
    watch->in_flight_ids.push_back(frame_id);
  }
}

void InvariantMonitor::on_collision(const void* channel, std::uint64_t frame_a,
                                    std::uint64_t frame_b) {
  ++hook_events_;
  ChannelWatch* watch = find_channel(channel);
  if (!watch) return;
  for (const std::uint64_t id : {frame_a, frame_b}) {
    if (id <= watch->baseline_sent) continue;  // pre-watch frame
    auto it = watch->frames.find(id);
    if (it == watch->frames.end()) {
      violation("packet-conservation", context_.simulator.now(),
                "collision names unknown frame " + std::to_string(id));
      continue;
    }
    if (it->second.retired) {
      violation("packet-conservation", context_.simulator.now(),
                "collision names retired frame " + std::to_string(id));
    }
    it->second.collided = true;
  }
}

void InvariantMonitor::on_frame_retired(const void* channel,
                                        std::uint64_t frame_id,
                                        bool corrupted) {
  ++hook_events_;
  ChannelWatch* watch = find_channel(channel);
  if (!watch) return;
  if (frame_id <= watch->baseline_sent) return;  // pre-watch frame
  ++watch->retires;
  auto it = watch->frames.find(frame_id);
  if (it == watch->frames.end()) {
    violation("packet-conservation", context_.simulator.now(),
              "retired frame " + std::to_string(frame_id) +
                  " was never transmitted");
    return;
  }
  FrameInfo& info = it->second;
  if (info.retired) {
    violation("packet-conservation", context_.simulator.now(),
              "frame " + std::to_string(frame_id) + " retired twice");
  }
  info.retired = true;
  const auto live = std::find(watch->in_flight_ids.begin(),
                              watch->in_flight_ids.end(), frame_id);
  if (live != watch->in_flight_ids.end()) watch->in_flight_ids.erase(live);
  if (corrupted != info.collided) {
    violation("packet-conservation", context_.simulator.now(),
              "frame " + std::to_string(frame_id) + " retired " +
                  (corrupted ? "corrupted without" : "clean despite") +
                  " a collision event");
  }
}

void InvariantMonitor::on_frame_delivered(const void* channel,
                                          std::uint64_t frame_id,
                                          std::uint32_t rx_id,
                                          bool corrupted) {
  ++hook_events_;
  ChannelWatch* watch = find_channel(channel);
  if (!watch) return;
  if (frame_id <= watch->baseline_sent) return;
  auto it = watch->frames.find(frame_id);
  if (it == watch->frames.end()) {
    violation("packet-conservation", context_.simulator.now(),
              "delivery of unknown frame " + std::to_string(frame_id) +
                  " to rx" + std::to_string(rx_id));
    return;
  }
  if (!it->second.retired) {
    violation("packet-conservation", context_.simulator.now(),
              "frame " + std::to_string(frame_id) +
                  " delivered before retiring");
  }
  // The per-receiver flag may add bit-error corruption on top, but a
  // collision-corrupted frame can never be delivered clean.
  if (it->second.collided && !corrupted) {
    violation("packet-conservation", context_.simulator.now(),
              "collided frame " + std::to_string(frame_id) +
                  " delivered clean to rx" + std::to_string(rx_id));
  }
}

// --- Device state machines --------------------------------------------------

void InvariantMonitor::on_radio_state(const void* radio, int from, int to,
                                      sim::TimePoint when) {
  ++hook_events_;
  RadioWatch* watch = find_radio(radio);
  if (!watch) return;
  if (from != watch->state) {
    violation("radio-fsm", when,
              std::string{"reported source state "} + radio_state_name(from) +
                  " does not match mirrored state " +
                  radio_state_name(watch->state));
  }
  if (!radio_transition_legal(from, to)) {
    violation("radio-fsm", when,
              std::string{"illegal transition "} + radio_state_name(from) +
                  " -> " + radio_state_name(to));
  }
  // Timed stages: these completions are scheduled, so reaching them means
  // exactly the datasheet delay elapsed in the source state.
  const sim::Duration dwell = when - watch->since;
  const auto f = static_cast<RadioState>(from);
  const auto t = static_cast<RadioState>(to);
  if (f == RadioState::kPoweringUp && t == RadioState::kStandby &&
      dwell != watch->powerup_time) {
    violation("radio-fsm", when,
              "crystal start-up took " + dwell.to_string() + ", expected " +
                  watch->powerup_time.to_string());
  }
  if (f == RadioState::kTxSettle && t == RadioState::kTxAir &&
      dwell != watch->settle_time) {
    violation("radio-fsm", when,
              "TX settling took " + dwell.to_string() + ", expected " +
                  watch->settle_time.to_string());
  }
  if (f == RadioState::kRxSettle && t == RadioState::kRxListen &&
      dwell != watch->settle_time) {
    violation("radio-fsm", when,
              "RX settling took " + dwell.to_string() + ", expected " +
                  watch->settle_time.to_string());
  }
  watch->state = to;
  watch->since = when;
}

void InvariantMonitor::on_mcu_mode(const void* mcu, int from, int to,
                                   sim::TimePoint when) {
  ++hook_events_;
  McuWatch* watch = find_mcu(mcu);
  if (!watch) return;
  if (from != watch->mode) {
    violation("mcu-fsm", when,
              "reported source mode " + std::to_string(from) +
                  " does not match mirrored mode " +
                  std::to_string(watch->mode));
  }
  if (from == to) {
    violation("mcu-fsm", when,
              "self-transition in mode " + std::to_string(from) +
                  " (enter() must filter these)");
  }
  const bool waking = to == static_cast<int>(hw::McuMode::kActive);
  if (waking) ++watch->wakeups;
  watch->mode = to;
}

// --- Energy meters ----------------------------------------------------------

void InvariantMonitor::on_meter_transition(const void* meter, int state,
                                           sim::TimePoint when) {
  ++hook_events_;
  MeterWatch* watch = find_meter(meter);
  if (!watch) return;
  if (when < watch->since) {
    violation("energy-closure", when,
              "meter '" + watch->meter->component() +
                  "' transition moves time backwards");
    return;
  }
  watch->residency[static_cast<std::size_t>(watch->state)] +=
      when - watch->since;
  watch->state = state;
  watch->since = when;
}

void InvariantMonitor::on_meter_transient(const void* meter, int state,
                                          double joules) {
  ++hook_events_;
  MeterWatch* watch = find_meter(meter);
  if (!watch) return;
  watch->transients[static_cast<std::size_t>(state)] += joules;
}

// --- Audits -----------------------------------------------------------------

void InvariantMonitor::audit_meter(MeterWatch& watch, sim::TimePoint now) {
  const energy::EnergyMeter& meter = *watch.meter;

  // Residency closure: integer-tick identity, no tolerance.
  std::int64_t meter_ticks = 0;
  for (std::size_t s = 0; s < meter.num_states(); ++s) {
    meter_ticks += meter.time_in(static_cast<int>(s), now).ticks();
  }
  const std::int64_t elapsed = (now - meter.start()).ticks();
  if (meter_ticks != elapsed) {
    violation("energy-closure", now,
              "meter '" + meter.component() + "' residencies sum to " +
                  std::to_string(meter_ticks) + " ticks, elapsed is " +
                  std::to_string(elapsed));
  }

  // Shadow-ledger closure: the hook stream must be gapless.
  std::int64_t shadow_ticks = (now - watch.since).ticks();
  for (const sim::Duration d : watch.residency) shadow_ticks += d.ticks();
  const std::int64_t watched = (now - watch.watched_from).ticks();
  if (shadow_ticks != watched) {
    violation("energy-closure", now,
              "meter '" + meter.component() + "' hook stream covers " +
                  std::to_string(shadow_ticks) + " ticks of " +
                  std::to_string(watched) + " watched");
  }

  // Joule closure: recompute sum(I * Vdd * t_state) + transients from the
  // shadow ledger and compare within an ulp-scaled tolerance.
  double expected = 0.0;
  for (std::size_t s = 0; s < meter.num_states(); ++s) {
    sim::Duration t = watch.residency[s];
    if (static_cast<int>(s) == watch.state) t += now - watch.since;
    expected += watch.baseline_joules[s] +
                meter.state(s).current_amps * meter.supply_volts() *
                    t.to_seconds() +
                watch.transients[s];
  }
  const double actual = meter.total_energy(now);
  const double scale = std::max({std::fabs(expected), std::fabs(actual), 1e-12});
  const double tol = options_.energy_ulp * DBL_EPSILON * scale;
  if (std::fabs(expected - actual) > tol) {
    violation("energy-closure", now,
              "meter '" + meter.component() + "' reports " +
                  std::to_string(actual) + " J, shadow recomputation gives " +
                  std::to_string(expected) + " J (tol " + std::to_string(tol) +
                  ")");
  }
}

void InvariantMonitor::audit_cell(const CellWatch& watch, sim::TimePoint now) {
  const mac::BaseStationMac& bs = *watch.bs;
  const auto& owners = bs.slot_owners();

  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (owners[i] == mac::kFreeSlot) continue;
    for (std::size_t j = i + 1; j < owners.size(); ++j) {
      if (owners[i] == owners[j]) {
        violation("tdma-schedule", now,
                  "node " + std::to_string(owners[i]) + " owns slots " +
                      std::to_string(i) + " and " + std::to_string(j));
      }
    }
  }
  if (bs.joined_nodes() > watch.roster_size) {
    violation("tdma-schedule", now,
              std::to_string(bs.joined_nodes()) + " joined nodes exceed the " +
                  std::to_string(watch.roster_size) + "-node roster");
  }
  if (watch.config.variant == mac::TdmaVariant::kStatic) {
    if (owners.size() != watch.config.max_slots) {
      violation("tdma-schedule", now,
                "static slot table holds " + std::to_string(owners.size()) +
                    " slots, configured for " +
                    std::to_string(watch.config.max_slots));
    }
    if (bs.current_cycle() != watch.config.static_cycle()) {
      violation("tdma-schedule", now,
                "static cycle is " + bs.current_cycle().to_string() +
                    ", expected " + watch.config.static_cycle().to_string());
    }
  } else {
    for (const net::NodeId owner : owners) {
      if (owner == mac::kFreeSlot) {
        violation("tdma-schedule", now,
                  "dynamic slot table contains a free slot");
      }
    }
    const sim::Duration expected =
        watch.config.slot * (1 + static_cast<std::int64_t>(owners.size()));
    if (bs.current_cycle() != expected) {
      violation("tdma-schedule", now,
                "dynamic cycle is " + bs.current_cycle().to_string() +
                    " for " + std::to_string(owners.size()) +
                    " slots, expected " + expected.to_string());
    }
  }
}

void InvariantMonitor::audit_storage(const fault::StorageDriver& driver,
                                     sim::TimePoint now) {
  const auto close = [&](const std::string& node, const char* identity,
                         double lhs, double rhs) {
    const double scale = std::max({std::fabs(lhs), std::fabs(rhs), 1e-12});
    const double tol = options_.energy_ulp * DBL_EPSILON * scale;
    if (std::fabs(lhs - rhs) > tol) {
      violation("storage-closure", now,
                "store '" + node + "' " + identity + ": " +
                    std::to_string(lhs) + " J vs " + std::to_string(rhs) +
                    " J (tol " + std::to_string(tol) + ")");
    }
  };
  for (const fault::NodeStorageStatus& s : driver.status()) {
    // Every joule the driver requested is the board meter's growth since
    // the baseline — the store never invents or loses metered draw.
    close(s.node, "requested != metered",
          s.requested_joules, s.sampled_joules - s.baseline_joules);
    // Harvest income splits exactly into stored + clamp overflow.
    close(s.node, "income != stored + overflow", s.income_joules,
          s.stored_joules + s.overflow_joules);
    // The store level is the initial charge plus income minus supply.
    close(s.node, "initial + stored - drawn != remaining",
          s.initial_joules + s.stored_joules - s.drawn_joules,
          s.remaining_joules);
    if (s.drawn_joules > s.requested_joules * (1.0 + 1e-12)) {
      violation("storage-closure", now,
                "store '" + s.node + "' drew " +
                    std::to_string(s.drawn_joules) + " J of " +
                    std::to_string(s.requested_joules) + " J requested");
    }
  }
}

void InvariantMonitor::audit(sim::TimePoint now) {
  for (auto& watch : meters_) audit_meter(watch, now);
  for (const auto& watch : cells_) audit_cell(watch, now);
  for (const fault::StorageDriver* driver : storage_drivers_) {
    audit_storage(*driver, now);
  }
  for (const auto& watch : mcus_) {
    const std::uint64_t model = watch.mcu->wakeups() - watch.baseline_wakeups;
    if (watch.wakeups != model) {
      violation("mcu-fsm", now,
                "hook stream saw " + std::to_string(watch.wakeups) +
                    " wake-ups, model counted " + std::to_string(model));
    }
  }
}

void InvariantMonitor::final_audit(sim::TimePoint now) {
  audit(now);
  for (const auto& watch : channels_) {
    const std::uint64_t sent =
        watch.channel->frames_sent() - watch.baseline_sent;
    if (watch.transmits != sent) {
      violation("packet-conservation", now,
                "observed " + std::to_string(watch.transmits) +
                    " transmits, channel counted " + std::to_string(sent));
    }
    const std::size_t in_flight = watch.in_flight_ids.size();
    if (watch.transmits != watch.retires + in_flight) {
      violation("packet-conservation", now,
                std::to_string(watch.transmits) + " transmits != " +
                    std::to_string(watch.retires) + " retires + " +
                    std::to_string(in_flight) + " in flight");
    }
    if (in_flight + watch.baseline_in_flight !=
        watch.channel->frames_in_flight()) {
      violation("packet-conservation", now,
                "channel holds " +
                    std::to_string(watch.channel->frames_in_flight()) +
                    " in-flight frames, monitor tracked " +
                    std::to_string(in_flight));
    }
  }
}

std::string InvariantMonitor::report() const {
  if (total_violations_ == 0) return {};
  std::string out = std::to_string(total_violations_) +
                    " invariant violation(s):\n";
  for (const auto& v : violations_) {
    out += "  [" + v.invariant + "] t=" + v.when.to_string() + ": " +
           v.detail + "\n";
  }
  if (total_violations_ > violations_.size()) {
    out += "  ... and " +
           std::to_string(total_violations_ - violations_.size()) + " more\n";
  }
  return out;
}

}  // namespace bansim::check
