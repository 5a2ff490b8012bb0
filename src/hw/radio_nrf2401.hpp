// Nordic nRF2401 transceiver model (ShockBurst mode).
//
// The model reproduces the chip behaviour the paper leans on (Sections 3.1
// and 4.2):
//  * ShockBurst: the MCU clocks a frame into the on-chip FIFO at the SPI
//    rate, the radio then bursts it at 1 Mbps — so MCU involvement and air
//    occupation are decoupled.
//  * Hardware CRC-16: frames corrupted by collisions fail the CRC inside
//    the radio and are silently discarded; the MCU never wakes.
//  * Hardware address filter: frames addressed to other nodes are received
//    (RX energy is burned — that is the overhearing cost) but never
//    forwarded to the MCU.
//  * Power staging: power-down -> standby costs a 3 ms crystal start-up;
//    standby -> TX/RX costs a 202 us settling time during which the PA/LNA
//    already draws the full mode current.  These transients are what the
//    paper's coarse estimator does not see.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "energy/energy_meter.hpp"
#include "hw/params.hpp"
#include "net/packet.hpp"
#include "phy/air_frame.hpp"
#include "phy/channel.hpp"
#include "sim/context.hpp"
#include "sim/simulator.hpp"
#include "sim/trace.hpp"

namespace bansim::hw {

/// Radio power/functional states; indices double as EnergyMeter states.
enum class RadioState : int {
  kPowerDown = 0,
  kStandby = 1,
  kPoweringUp = 2,   ///< crystal start-up, power-down -> standby
  kTxClockIn = 3,    ///< MCU shifting the frame into the FIFO
  kTxSettle = 4,     ///< PLL/PA settling before the burst
  kTxAir = 5,        ///< frame on the air
  kRxSettle = 6,     ///< LNA/PLL settling before listen
  kRxListen = 7,     ///< idle listening / receiving
  kRxClockOut = 8,   ///< MCU shifting a received frame out of the FIFO
};

[[nodiscard]] const char* to_string(RadioState s);

/// Event counters a validation run inspects.
struct RadioStats {
  std::uint64_t tx_frames{0};
  std::uint64_t rx_delivered{0};      ///< passed CRC + address, given to MCU
  std::uint64_t rx_crc_dropped{0};    ///< collision-corrupted, CRC failed
  std::uint64_t rx_addr_filtered{0};  ///< overheard frames dropped in hardware
  std::uint64_t rx_missed{0};         ///< frame started while not listening
};

class RadioNrf2401 final : public phy::MediumListener {
 public:
  /// Driver-facing completion callbacks.
  struct Callbacks {
    /// A CRC-valid frame addressed to this node finished clocking out.
    std::function<void(const net::Packet&)> on_receive;
    /// send() finished; the radio is back in standby.
    std::function<void()> on_send_done;
    /// The FIFO holds a frame for us; clock-out is starting.  Lets the
    /// driver charge the MCU for the SPI read.
    std::function<void(std::size_t frame_bytes)> on_clockout_start;
  };

  RadioNrf2401(sim::SimContext& context, phy::Channel& channel,
               std::string node_name, const RadioParams& params,
               const phy::PhyConfig& phy_config);

  void set_callbacks(Callbacks callbacks) { callbacks_ = std::move(callbacks); }
  void set_local_address(net::NodeId address) { address_ = address; }
  [[nodiscard]] net::NodeId local_address() const { return address_; }

  /// Commands.  Each asserts it is legal in the current state.
  /// start_rx/send issued while powered down (or still inside the 3 ms
  /// crystal start-up) model the firmware waiting out the datasheet
  /// power-up time: the radio powers up if needed and the command takes
  /// effect on reaching standby, never mid-start-up.
  void power_down();
  void power_up();              ///< power-down -> (3 ms) -> standby
  void start_rx();              ///< standby -> (settle) -> listen
  void stop_rx();               ///< listen/settle -> standby
  void send(const net::Packet& packet);  ///< standby -> clock-in -> settle -> air -> standby

  [[nodiscard]] RadioState state() const { return state_; }
  [[nodiscard]] bool busy() const {
    return state_ != RadioState::kStandby && state_ != RadioState::kPowerDown;
  }
  [[nodiscard]] const RadioStats& stats() const { return stats_; }
  [[nodiscard]] const energy::EnergyMeter& meter() const { return meter_; }
  [[nodiscard]] energy::EnergyMeter& meter() { return meter_; }
  [[nodiscard]] const phy::PhyConfig& phy_config() const { return phy_config_; }
  [[nodiscard]] const RadioParams& params() const { return params_; }

  /// This radio's listener id on the channel (AirFrame::tx_id).
  [[nodiscard]] std::uint32_t channel_id() const { return channel_id_; }

  /// Energy-detect carrier sense at this radio's position (see
  /// phy::Channel::busy_at).  The nRF2401 itself has no CCA; this models
  /// the CCA-capable front end contention MACs assume.
  [[nodiscard]] bool channel_busy() const {
    return channel_.busy_at(channel_id_);
  }

  /// Fault injection: wedges the receiver — the chip keeps drawing its
  /// mode current and reports itself listening, but never latches another
  /// frame until it is power-cycled (power_down() clears the condition),
  /// the real-world "RX dead until reset" failure of early ShockBurst
  /// silicon.  Energy accounting and the FSM are unaffected.
  void force_lockup() { locked_up_ = true; }
  [[nodiscard]] bool locked_up() const { return locked_up_; }

  /// Duration of the SPI transfer of `bytes` into/out of the FIFO.
  [[nodiscard]] sim::Duration spi_time(std::size_t bytes) const;

  // phy::MediumListener
  void on_frame_start(const phy::AirFrame& frame) override;
  void on_frame_end(const phy::AirFrame& frame, bool corrupted) override;

 private:
  void enter(RadioState next);
  /// Schedules `fn` after `d`, dropped if another command supersedes it.
  void after(sim::Duration d, std::function<void()> fn);

  sim::SimContext& context_;
  sim::Simulator& simulator_;
  sim::Tracer& tracer_;
  phy::Channel& channel_;
  std::string node_;
  sim::TraceNodeId trace_node_;
  RadioParams params_;
  phy::PhyConfig phy_config_;
  Callbacks callbacks_;
  net::NodeId address_{net::kBroadcastId};
  std::uint32_t channel_id_{0};
  RadioState state_{RadioState::kPowerDown};
  std::uint64_t epoch_{0};  ///< invalidates superseded scheduled completions
  sim::TimePoint ready_at_{};  ///< crystal start-up completion while kPoweringUp
  std::optional<std::uint64_t> latched_frame_;  ///< key of frame being received
  bool locked_up_{false};  ///< receiver wedged until the next power-cycle
  RadioStats stats_;
  energy::EnergyMeter meter_;
};

}  // namespace bansim::hw
