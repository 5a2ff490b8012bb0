#include "hw/radio_nrf2401.hpp"

#include <cassert>
#include <utility>

#include "sim/check_hooks.hpp"

namespace bansim::hw {

const char* to_string(RadioState s) {
  switch (s) {
    case RadioState::kPowerDown: return "power_down";
    case RadioState::kStandby: return "standby";
    case RadioState::kPoweringUp: return "powering_up";
    case RadioState::kTxClockIn: return "tx_clock_in";
    case RadioState::kTxSettle: return "tx_settle";
    case RadioState::kTxAir: return "tx_air";
    case RadioState::kRxSettle: return "rx_settle";
    case RadioState::kRxListen: return "rx_listen";
    case RadioState::kRxClockOut: return "rx_clock_out";
  }
  return "?";
}

namespace {

std::vector<energy::PowerState> radio_states(const RadioParams& p) {
  return {
      {"power_down", p.powerdown_current_amps},
      {"standby", p.standby_current_amps},
      {"powering_up", p.standby_current_amps},
      {"tx_clock_in", p.clockin_current_amps},
      {"tx_settle", p.tx_current_amps},
      {"tx_air", p.tx_current_amps},
      {"rx_settle", p.rx_current_amps},
      {"rx_listen", p.rx_current_amps},
      {"rx_clock_out", p.rx_current_amps},
  };
}

}  // namespace

RadioNrf2401::RadioNrf2401(sim::SimContext& context, phy::Channel& channel,
                           std::string node_name, const RadioParams& params,
                           const phy::PhyConfig& phy_config)
    : context_{context}, simulator_{context.simulator},
      tracer_{context.tracer},
      channel_{channel}, node_{std::move(node_name)},
      trace_node_{tracer_.intern(node_)}, params_{params},
      phy_config_{phy_config},
      meter_{"radio", params.supply_volts, radio_states(params)} {
  channel_id_ = channel_.attach(*this);
}

sim::Duration RadioNrf2401::spi_time(std::size_t bytes) const {
  return sim::Duration::from_seconds(static_cast<double>(bytes) * 8.0 /
                                     params_.spi_rate_bps);
}

void RadioNrf2401::enter(RadioState next) {
  if (next == state_) return;
  if (auto* hooks = context_.check_hooks()) {
    hooks->on_radio_state(this, static_cast<int>(state_),
                          static_cast<int>(next), simulator_.now());
  }
  meter_.transition(static_cast<int>(next), simulator_.now());
  tracer_.emit(simulator_.now(), sim::TraceCategory::kRadio, trace_node_,
               [&](sim::TraceMessage& m) {
                 m << "radio " << to_string(state_) << " -> "
                   << to_string(next);
               });
  state_ = next;
}

void RadioNrf2401::after(sim::Duration d, std::function<void()> fn) {
  const std::uint64_t epoch = epoch_;
  simulator_.schedule_in(d, [this, epoch, fn = std::move(fn)] {
    if (epoch == epoch_) fn();
  });
}

void RadioNrf2401::power_down() {
  ++epoch_;
  latched_frame_.reset();
  locked_up_ = false;  // a power-cycle is the documented lock-up recovery
  enter(RadioState::kPowerDown);
}

void RadioNrf2401::power_up() {
  assert(state_ == RadioState::kPowerDown);
  ++epoch_;
  ready_at_ = simulator_.now() + params_.powerup_time;
  enter(RadioState::kPoweringUp);
  after(params_.powerup_time, [this] { enter(RadioState::kStandby); });
}

void RadioNrf2401::start_rx() {
  if (state_ == RadioState::kPowerDown) power_up();
  if (state_ == RadioState::kPoweringUp) {
    // Firmware waits out the crystal start-up; no epoch bump, so the
    // pending standby entry still fires (and a power_down cancels us).
    after(ready_at_ - simulator_.now(), [this] { start_rx(); });
    return;
  }
  assert(state_ == RadioState::kStandby);
  ++epoch_;
  enter(RadioState::kRxSettle);
  after(params_.settle_time, [this] { enter(RadioState::kRxListen); });
}

void RadioNrf2401::stop_rx() {
  assert(state_ == RadioState::kRxSettle || state_ == RadioState::kRxListen ||
         state_ == RadioState::kRxClockOut);
  ++epoch_;
  latched_frame_.reset();
  enter(RadioState::kStandby);
}

void RadioNrf2401::send(const net::Packet& packet) {
  if (state_ == RadioState::kPowerDown) power_up();
  if (state_ == RadioState::kPoweringUp) {
    // Firmware waits out the crystal start-up; no epoch bump, so the
    // pending standby entry still fires (and a power_down cancels us).
    after(ready_at_ - simulator_.now(), [this, packet] { send(packet); });
    return;
  }
  assert(state_ == RadioState::kStandby &&
         "nRF2401 is half duplex: stop RX before sending");
  ++epoch_;
  auto bytes = packet.serialize();
  const auto nbytes = bytes.size();
  const sim::Duration clock_in = spi_time(nbytes);
  const sim::Duration on_air = phy::air_time(phy_config_, nbytes);

  enter(RadioState::kTxClockIn);
  after(clock_in, [this, bytes = std::move(bytes), on_air]() mutable {
    enter(RadioState::kTxSettle);
    after(params_.settle_time, [this, bytes = std::move(bytes), on_air]() mutable {
      enter(RadioState::kTxAir);
      ++stats_.tx_frames;
      channel_.transmit(channel_id_, std::move(bytes), on_air);
      after(on_air, [this] {
        enter(RadioState::kStandby);
        if (callbacks_.on_send_done) callbacks_.on_send_done();
      });
    });
  });
}

void RadioNrf2401::on_frame_start(const phy::AirFrame& frame) {
  if (state_ == RadioState::kRxListen && !latched_frame_ && !locked_up_) {
    latched_frame_ = frame.id;
  } else {
    // Started while we were settling, clocking a frame out, transmitting or
    // asleep: the receiver cannot synchronize to it.
    ++stats_.rx_missed;
  }
}

void RadioNrf2401::on_frame_end(const phy::AirFrame& frame, bool corrupted) {
  if (!latched_frame_ || *latched_frame_ != frame.id) return;
  latched_frame_.reset();

  if (corrupted) {
    // Collision garbled the frame: the hardware CRC engine rejects it and
    // the MCU never learns it existed.
    ++stats_.rx_crc_dropped;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kRadio, trace_node_,
                 [](sim::TraceMessage& m) { m << "frame dropped by hardware CRC"; });
    return;
  }
  auto packet = net::Packet::deserialize(frame.bytes);
  if (!packet) {
    ++stats_.rx_crc_dropped;
    return;
  }
  if (packet->header.dest != address_ &&
      packet->header.dest != net::kBroadcastId) {
    // Overheard: RX energy was spent, but the hardware address filter stops
    // the frame here (Section 4.2, "Overhearing").
    ++stats_.rx_addr_filtered;
    tracer_.emit(simulator_.now(), sim::TraceCategory::kRadio, trace_node_,
                 [](sim::TraceMessage& m) {
                   m << "frame filtered by hardware address check (overheard)";
                 });
    return;
  }

  ++epoch_;
  enter(RadioState::kRxClockOut);
  const std::size_t nbytes = frame.bytes.size();
  if (callbacks_.on_clockout_start) callbacks_.on_clockout_start(nbytes);
  after(spi_time(nbytes), [this, pkt = std::move(*packet)] {
    enter(RadioState::kRxListen);
    ++stats_.rx_delivered;
    if (callbacks_.on_receive) callbacks_.on_receive(pkt);
  });
}

}  // namespace bansim::hw
