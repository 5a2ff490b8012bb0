// Measurement passes over bansim's public entry points: a ward stepped from
// outside in 1 s chunks, per-layer counters attached through the
// sim::CheckHooks and os::ModelProbe seams, out-of-context replay timings
// of single layers, and a population campaign driven through
// create_campaign / run_campaign / collect_results.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "campaign/manifest.hpp"
#include "core/ban_network.hpp"
#include "os/probe.hpp"
#include "sim/check_hooks.hpp"

namespace perfbench {

using namespace bansim;

/// How a ward advances once it has joined.
struct StepPlan {
  /// Steady 1 s steps that always run; the exact counters (allocations,
  /// events, focus energies) cover start() through the end of them.
  std::size_t exact_steps{60};
  /// Keep stepping while the steady phase has used less wall time.
  double wall_budget_s{0};
  /// Step until a store depletes instead (the exact window then ends at
  /// the step in which the first node died).
  bool until_first_death{false};
  std::size_t max_steps{7200};
};

/// One stepped ward run.  "Steady" starts after join + settle.
struct WardRun {
  bool joined{false};
  double join_wall_s{0};
  double join_sim_s{0};            ///< simulated time when all nodes joined
  // Exact window: start() .. end of the exact steps (or the death step).
  std::uint64_t exact_allocs{0};
  double exact_sim_s{0};
  std::uint64_t exact_steady_events{0};
  std::uint64_t exact_steady_allocs{0};
  double exact_steady_sim_s{0};
  double exact_steady_wall_s{0};
  double focus_radio_mj{0};        ///< focus node, exact steady window
  double focus_mcu_mj{0};
  // Whole steady phase (exact steps plus the wall-budget steps).
  std::vector<double> step_ms;     ///< wall ms per simulated second
  double steady_wall_s{0};
  double steady_sim_s{0};
  std::size_t pending_max{0};
  bool died{false};
  double first_death_s{0};
  std::uint64_t depletion_deaths{0};
  std::uint64_t events_total{0};
};

/// Starts `net`, joins it and steps it per `plan`.  `on_steady` runs once,
/// at the first steady instant (counter snapshots).
[[nodiscard]] WardRun run_ward(core::BanNetwork& net, const StepPlan& plan,
                               SpanLog& spans, const char* measure_span,
                               const std::function<void()>& on_steady = {});

/// Output checks shared by every single-ward run: joined, every node alive
/// and joined (or, for a run to first death, the death observed), every
/// node's energy finite and positive.
void check_ward(core::BanNetwork& net, const WardRun& run,
                const StepPlan& plan, const std::string& label,
                Result& result);

/// Per-layer counts gathered through the observer seams.
struct LayerCounts {
  std::uint64_t frames{0};
  std::uint64_t frame_bytes{0};
  std::uint64_t deliveries{0};
  std::uint64_t corrupt_deliveries{0};
  std::uint64_t collisions{0};
  std::uint64_t radio_transitions{0};
  std::uint64_t mcu_mode_changes{0};
  std::uint64_t meter_transitions{0};
  std::uint64_t tasks{0};
  std::uint64_t radio_tx{0};
  std::uint64_t rx_windows{0};
  std::uint64_t data_tx{0};
  std::uint64_t control_tx{0};
  std::uint64_t beacon_tx{0};

  [[nodiscard]] LayerCounts since(const LayerCounts& before) const;
};

/// Pure observer on both seams: counts every notification and keeps a
/// copy of up to `capture_limit` transmitted frame images once capturing
/// is switched on.
class LayerCounter final : public sim::CheckHooks, public os::ModelProbe {
 public:
  explicit LayerCounter(std::size_t capture_limit);

  LayerCounts counts;
  std::vector<std::vector<std::uint8_t>> frames;
  bool capturing{false};

  void on_frame_transmit(const void*, std::uint64_t, std::uint32_t,
                         const std::uint8_t* bytes, std::size_t num_bytes,
                         sim::TimePoint, sim::Duration) override;
  void on_collision(const void*, std::uint64_t, std::uint64_t) override;
  void on_frame_delivered(const void*, std::uint64_t, std::uint32_t,
                          bool corrupted) override;
  void on_radio_state(const void*, int, int, sim::TimePoint) override;
  void on_mcu_mode(const void*, int, int, sim::TimePoint) override;
  void on_meter_transition(const void*, int, sim::TimePoint) override;

  void on_task(std::string_view, std::string_view, sim::TimePoint) override;
  void on_radio_rx_on(std::string_view, sim::TimePoint) override;
  void on_radio_rx_off(std::string_view, sim::TimePoint) override {}
  void on_radio_tx(std::string_view, std::size_t, sim::TimePoint) override;
  void on_packet(std::string_view, net::PacketType type, bool transmit,
                 sim::TimePoint) override;

 private:
  std::size_t capture_limit_;
};

// --- Out-of-context replays (ns per call, on this host) ---------------------

/// Bare-kernel schedule/fire churn with `pending` self-rescheduling chains.
[[nodiscard]] double kernel_ns_per_event(std::size_t pending);

struct NetReplay {
  double crc_ns{0};
  double serialize_ns{0};
  double deserialize_ns{0};
  bool ok{false};  ///< every captured image parsed and re-serialized equal
};
[[nodiscard]] NetReplay replay_frames(
    const std::vector<std::vector<std::uint8_t>>& frames);

struct AppsReplay {
  double synth_ns{0};
  double rpeak_ns{0};
};
/// EcgSynthesizer::sample and RpeakDetector::step at `sample_rate_hz`.
[[nodiscard]] AppsReplay replay_apps(const apps::EcgConfig& ecg,
                                     double sample_rate_hz,
                                     std::uint64_t seed);

/// BanNetwork::energy_snapshot() cost in microseconds.
[[nodiscard]] double snapshot_us(const core::BanNetwork& net);

// --- Population campaign ----------------------------------------------------

struct CampaignPlan {
  std::string base_text;  ///< base ward INI, parsed per set-up sample
  std::uint64_t seed{42};
  campaign::CampaignSpec spec;
  unsigned workers{1};
  double wall_budget_s{0};   ///< keep repeating the N-worker run this long
  std::size_t min_reps{1};
  /// In-process shards run after each N-worker run.
  std::size_t inproc_chunk{1};
  /// Full in-process passes over the shards; each patient is timed once
  /// per pass.
  std::size_t inproc_passes{1};
};

struct CampaignMeasure {
  std::vector<double> setup_s;  ///< parse + create_campaign
  std::vector<double> create_s;
  std::vector<double> collect_s;
  // Totals over the N-worker runs.
  double run_s{0};      ///< wall seconds inside run_campaign
  double patients{0};   ///< durable patients
  double sim_s{0};      ///< their simulated seconds (join + settle + window)
  unsigned workers_died{0};
  double store_bytes_per_patient{0};
  // In-process (workers = 0) passes over the same manifest.
  /// Wall ms per patient sim second, one sample per patient and pass.
  std::vector<double> patient_step_ms;
  double inproc_patients_per_s{0};
  double inproc_allocs_per_sim_s{0};
};

/// Runs the campaign `plan.min_reps`+ times on `workers` processes, each
/// into a fresh store under `work`, and once in-process through
/// campaign::ShardRunner, interleaving the two.  Checks completeness, that
/// every run stores the same rows, and that the in-process rows and
/// rendered report equal the N-worker store's.
[[nodiscard]] CampaignMeasure measure_campaign(const CampaignPlan& plan,
                                               const std::filesystem::path& work,
                                               SpanLog& spans, Result& result);

/// Simulated seconds one campaign patient covers (join + settle + window,
/// or the join deadline when it never joined).
[[nodiscard]] double patient_sim_seconds(const energy::CampaignRunRow& row,
                                         const campaign::CampaignSpec& spec);

}  // namespace perfbench
