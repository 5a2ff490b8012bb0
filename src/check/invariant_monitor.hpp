// Runtime invariant monitor: a pure observer that attaches to a SimContext
// through the sim::CheckHooks slot and asserts, while the simulation runs,
// the properties every experiment in this repo silently relies on:
//
//  1. Energy accounting closes.  For every watched EnergyMeter the
//     per-state residencies sum to exactly the elapsed metering time (an
//     integer-tick identity), and the metered joules equal the independent
//     recomputation sum(I * Vdd * t_state) + transients from the monitor's
//     own shadow ledger within an ulp-scaled tolerance.
//  2. MAC channel discipline, protocol-aware.  For TDMA cells no two DATA
//     frames of one cell (pan) overlap on the air — beacon/SSR/grant/ACK
//     contention in the request window is legal by design and exempt — and
//     the dynamic variant's cycle length must equal slot * (1 + roster size
//     of the slot table) at every audit.  For contention cells (ALOHA,
//     slotted CSMA/CA) overlapping data frames are legal, so the strict
//     audit is replaced by (a) a half-duplex check — one radio never has
//     two frames on the air at once — and (b) for CSMA/CA, a
//     backoff-legality check: a node must not start a data transmission
//     when a frame it can hear (channel link up, same pan) has been on the
//     air longer than the CCA window plus a tolerance absorbing backoff
//     alignment, MCU prep and clock skew.  CSMA/CA GTS (CFP) frames keep
//     the strict TDMA-style exclusivity, anchored on the observed beacons.
//  3. Packet conservation.  Every frame that entered the medium retires
//     exactly once, collision-corruption at retire time matches the
//     collision events, and at teardown
//       transmits == retires + frames still in flight.
//  4. State-machine legality.  The nRF2401 only takes datasheet-legal
//     transitions (power-down -> standby via the 3 ms crystal start-up,
//     TX settling of exactly 202 us before the burst), and the MSP430
//     wake-up count seen on the hook stream matches the model's counter.
//
// The monitor never mutates model state, schedules no events and draws no
// model randomness; energies with a monitor attached are bit-identical to
// energies without (check::ScenarioFuzzer's monitor-on/off oracle and
// test_invariant_monitor enforce this).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "energy/energy_meter.hpp"
#include "fault/storage_driver.hpp"
#include "hw/mcu.hpp"
#include "hw/radio_nrf2401.hpp"
#include "mac/base_station_mac.hpp"
#include "mac/csma_mac.hpp"
#include "mac/mac_base.hpp"
#include "phy/channel.hpp"
#include "sim/check_hooks.hpp"
#include "sim/context.hpp"

namespace bansim::core {
class BanNetwork;
}

namespace bansim::check {

/// One detected invariant breach.
struct Violation {
  std::string invariant;  ///< e.g. "radio-fsm", "tdma-exclusivity"
  std::string detail;
  sim::TimePoint when{};
};

class InvariantMonitor final : public sim::CheckHooks {
 public:
  struct Options {
    /// Contention MACs (ALOHA) collide data frames by design; set this to
    /// skip the slot-exclusivity invariant (all others still apply).
    bool expect_collisions{false};
    /// Joule-comparison tolerance as a multiple of DBL_EPSILON scaled by
    /// the magnitude compared ("1 ulp" per addend; summation order between
    /// the meter and the shadow ledger differs slightly).
    double energy_ulp{256.0};
    /// Violations stored verbatim; beyond this only the count grows.
    std::size_t max_recorded{64};
  };

  explicit InvariantMonitor(sim::SimContext& context);
  InvariantMonitor(sim::SimContext& context, Options options);
  ~InvariantMonitor() override;
  InvariantMonitor(const InvariantMonitor&) = delete;
  InvariantMonitor& operator=(const InvariantMonitor&) = delete;

  // --- Registration (call before the network starts running) ---------------

  /// Watches everything in one BanNetwork: the channel, every cell's slot
  /// table or contention PAN, every board's radio/MCU state machines and
  /// energy meters, and the storage driver.
  void watch_network(core::BanNetwork& network);

  void watch_channel(const phy::Channel& channel);
  void watch_radio(const hw::RadioNrf2401& radio, std::uint8_t pan);
  void watch_mcu(const hw::Mcu& mcu);
  /// Also points the meter's hook slot at this monitor (detached again in
  /// the destructor).
  void watch_meter(energy::EnergyMeter& meter);
  /// Radio + MCU state machines and both their meters.
  void watch_board(hw::Board& board, std::uint8_t pan);
  /// TDMA slot-table invariants of one cell's base station.
  void watch_cell(const mac::BaseStationMac& bs, std::size_t roster_size,
                  const mac::TdmaConfig& config);
  /// Registers `pan` as a contention cell (ALOHA or slotted CSMA/CA):
  /// data-frame overlaps inside it are legal, the half-duplex and (for
  /// CSMA/CA) backoff-legality / GTS-exclusivity checks apply instead.
  void watch_contention_cell(std::uint8_t pan, mac::Protocol protocol,
                             const mac::CsmaConfig& config = {});
  /// Per-node energy-storage accounting: every joule the stores moved must
  /// close against the boards' meters and the harvest integrals
  /// (watch_network registers the network's driver automatically).
  void watch_storage(const fault::StorageDriver& driver);

  // --- Audits ---------------------------------------------------------------

  /// On-demand audit of the closed-book invariants (energy closure, cell
  /// slot table, counter cross-checks).  Callable at any sim time.
  void audit(sim::TimePoint now);

  /// audit() plus the teardown-only conservation identity
  /// (transmits == retires + in-flight).
  void final_audit(sim::TimePoint now);

  [[nodiscard]] bool ok() const { return total_violations_ == 0; }
  [[nodiscard]] const std::vector<Violation>& violations() const {
    return violations_;
  }
  [[nodiscard]] std::uint64_t total_violations() const {
    return total_violations_;
  }
  /// Hook notifications observed (sanity: > 0 after any traffic).
  [[nodiscard]] std::uint64_t hook_events() const { return hook_events_; }
  /// Multi-line human-readable violation list (empty string when ok()).
  [[nodiscard]] std::string report() const;

  // --- sim::CheckHooks ------------------------------------------------------

  void on_frame_transmit(const void* channel, std::uint64_t frame_id,
                         std::uint32_t tx_id, const std::uint8_t* bytes,
                         std::size_t num_bytes, sim::TimePoint air_start,
                         sim::Duration air_time) override;
  void on_collision(const void* channel, std::uint64_t frame_a,
                    std::uint64_t frame_b) override;
  void on_frame_retired(const void* channel, std::uint64_t frame_id,
                        bool corrupted) override;
  void on_frame_delivered(const void* channel, std::uint64_t frame_id,
                          std::uint32_t rx_id, bool corrupted) override;
  void on_radio_state(const void* radio, int from, int to,
                      sim::TimePoint when) override;
  void on_mcu_mode(const void* mcu, int from, int to,
                   sim::TimePoint when) override;
  void on_meter_transition(const void* meter, int state,
                           sim::TimePoint when) override;
  void on_meter_transient(const void* meter, int state, double joules) override;

 private:
  struct RadioWatch {
    const hw::RadioNrf2401* radio;
    std::uint8_t pan;
    int state;             ///< mirrored RadioState
    sim::TimePoint since;  ///< entry instant of `state`
    sim::Duration powerup_time;
    sim::Duration settle_time;
  };
  struct McuWatch {
    const hw::Mcu* mcu;
    int mode;
    std::uint64_t wakeups;  ///< LPM -> active transitions seen on the hooks
    std::uint64_t baseline_wakeups;  ///< model counter at watch time
  };
  struct MeterWatch {
    energy::EnergyMeter* meter;
    int state;
    sim::TimePoint since;
    std::vector<sim::Duration> residency;  ///< closed stretches per state
    std::vector<double> transients;        ///< hook-reported lumps per state
    std::vector<double> baseline_joules;   ///< meter energy at watch time
    sim::TimePoint watched_from;
  };
  struct FrameInfo {
    std::uint32_t tx_id;
    sim::TimePoint air_start;
    sim::TimePoint air_end;
    bool is_data;
    std::uint8_t pan;  ///< of the transmitting radio; 0xFF if unknown
    bool in_cfp{false};  ///< data frame inside a CSMA/CA GTS region
    bool collided{false};
    bool retired{false};
  };
  struct ChannelWatch {
    const phy::Channel* channel;
    std::uint64_t baseline_sent;
    std::size_t baseline_in_flight;
    std::uint64_t transmits{0};
    std::uint64_t retires{0};
    std::unordered_map<std::uint64_t, FrameInfo> frames;
    /// Ids not yet retired; kept separately so the per-transmit overlap
    /// scan touches the (tiny) in-flight set, not every frame ever sent.
    std::vector<std::uint64_t> in_flight_ids;
  };
  struct CellWatch {
    const mac::BaseStationMac* bs;
    std::size_t roster_size;
    mac::TdmaConfig config;
  };
  struct ContentionWatch {
    std::uint8_t pan;
    mac::Protocol protocol;
    sim::Duration cca{};
    sim::Duration backoff_unit{};
    /// Superframe anchor from the last beacon seen on the air (CSMA/CA
    /// GTS-exclusivity only; geometry comes from the beacon payload).
    bool anchored{false};
    sim::TimePoint beacon_start{};
    sim::Duration cycle{};
    sim::Duration cfp{};
  };

  void violation(const char* invariant, sim::TimePoint when,
                 std::string detail);
  RadioWatch* find_radio(const void* tag);
  McuWatch* find_mcu(const void* tag);
  MeterWatch* find_meter(const void* tag);
  ChannelWatch* find_channel(const void* tag);
  ContentionWatch* find_contention(std::uint8_t pan);
  void audit_meter(MeterWatch& watch, sim::TimePoint now);
  void audit_cell(const CellWatch& watch, sim::TimePoint now);
  void audit_storage(const fault::StorageDriver& driver, sim::TimePoint now);

  sim::SimContext& context_;
  Options options_;
  std::vector<RadioWatch> radios_;
  std::vector<McuWatch> mcus_;
  std::vector<MeterWatch> meters_;
  std::vector<ChannelWatch> channels_;
  std::vector<CellWatch> cells_;
  std::vector<ContentionWatch> contention_cells_;
  std::vector<const fault::StorageDriver*> storage_drivers_;
  std::vector<Violation> violations_;
  std::uint64_t total_violations_{0};
  std::uint64_t hook_events_{0};
};

}  // namespace bansim::check
