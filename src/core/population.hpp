// Population-scale Monte Carlo campaigns: N distinct simulated patients.
//
// The paper validates one wearer; a ward deployment question ("what
// lifetime does the 5th-percentile patient see?") needs a population.
// PopulationGenerator turns one ward BanConfig into per-patient variants by
// sampling physiology and environment from named RNG streams keyed by the
// patient index — heart-rate distribution, ECG waveform morphology and
// noise, motion/posture shadowing episodes on the channel, and the spread
// of manufactured storage capacity.
//
// A patient is one fresh cell: run_patient() builds a BanNetwork from the
// patient's config, joins it and measures one window, as the paper's
// estimator charges one node life per run.  run_population_campaign()
// fans patients out over sim::ScenarioRunner and appends per-run metrics
// straight into columnar accumulators (no per-run report objects), plus a
// streaming lifetime CDF over the population.
#pragma once

#include <cstdint>
#include <string>

#include "core/ban_network.hpp"
#include "energy/campaign_columns.hpp"
#include "sim/time.hpp"

namespace bansim::core {

/// Per-patient sampling distributions.  Defaults describe a resting adult
/// ward population; all draws are deterministic in (base seed, index).
struct PopulationConfig {
  /// Heart rate: normal(mean, sd) clamped into [lo, hi] bpm.
  double hr_mean_bpm{75.0};
  double hr_sd_bpm{12.0};
  double hr_lo_bpm{45.0};
  double hr_hi_bpm{150.0};

  /// Waveform morphology/noise: uniform spreads around the base config's
  /// front-end defaults.
  double rr_variability_lo{0.015};
  double rr_variability_hi{0.06};
  double r_amplitude_lo_volts{0.45};
  double r_amplitude_hi_volts{0.75};
  double noise_lo_volts{0.003};
  double noise_hi_volts{0.009};

  /// Motion/posture: per-patient timed shadowing episodes on the channel.
  /// When enabled, every patient draws AT LEAST one episode, so
  /// FaultPlan::any()/touches_channel() — the network's shape — is the
  /// same for the whole population.
  bool motion{false};
  std::uint32_t motion_episodes_min{1};
  std::uint32_t motion_episodes_max{3};
  /// Episodes start uniformly inside [0, motion_window).
  sim::Duration motion_window{sim::Duration::seconds(30)};
  sim::Duration motion_duration_min{sim::Duration::milliseconds(200)};
  sim::Duration motion_duration_max{sim::Duration::seconds(2)};
  double motion_extra_loss_db_min{4.0};
  double motion_extra_loss_db_max{14.0};
  double motion_fer_min{0.05};
  double motion_fer_max{0.35};

  /// Storage capacity manufacturing spread: each patient's battery
  /// capacity / capacitor capacitance scales by uniform[min, max].
  /// Applied only where storage is enabled, so enabled-ness never changes.
  double capacity_scale_min{0.85};
  double capacity_scale_max{1.15};

  /// Empty when well-formed, else the first problem.
  [[nodiscard]] std::string validate() const;
};

/// Derives per-patient BanConfigs from a base ward config.  patient(i) is
/// pure: same (base seed, population, i) always yields the same config.
class PopulationGenerator {
 public:
  /// Throws std::invalid_argument when `population` fails validate().
  PopulationGenerator(BanConfig base, PopulationConfig population);

  /// The i-th patient's config: base with per-patient seed, physiology,
  /// motion episodes and storage capacity — same-shape with every other
  /// patient.
  [[nodiscard]] BanConfig patient(std::size_t index) const;

  [[nodiscard]] const BanConfig& base() const { return base_; }
  [[nodiscard]] const PopulationConfig& population() const {
    return population_;
  }

 private:
  BanConfig base_;
  PopulationConfig population_;
};

/// Measurement window of one patient run — the campaign unit's protocol,
/// shared by the in-process thread-pool campaign below and the
/// multi-process shard workers in src/campaign/.
struct PatientWindow {
  /// Per-patient measured window (after join + settle).
  sim::Duration measure{sim::Duration::seconds(30)};
  sim::Duration settle{sim::Duration::seconds(1)};
  sim::Duration join_deadline{sim::Duration::seconds(30)};
};

/// Runs patient `index` on a freshly built cell and returns its scalar row
/// (energies over the measured window, join latency, sent/delivered
/// packets, projected ward lifetime).  A pure function of (generator,
/// window, index): bit-identical whichever process or thread runs it,
/// which is what makes shard results merge-order invariant.
[[nodiscard]] energy::CampaignRunRow run_patient(
    const PopulationGenerator& generator, const PatientWindow& window,
    std::size_t index);

struct PopulationCampaignOptions {
  std::size_t patients{100};
  /// Per-patient measured window (after join + settle).
  sim::Duration measure{sim::Duration::seconds(30)};
  sim::Duration settle{sim::Duration::seconds(1)};
  sim::Duration join_deadline{sim::Duration::seconds(30)};
  unsigned jobs{1};  ///< 0 = hardware concurrency
  std::size_t cdf_bins{64};
};

struct PopulationCampaignResult {
  energy::CampaignColumns columns;
  /// CDF over columns.lifetime_hours (never-depleting patients are the
  /// unbounded tail).
  energy::MetricCdf lifetime_cdf;
  unsigned workers{1};
  double wall_seconds{0};
  std::size_t failed_joins{0};

  /// Human-readable campaign summary (percentiles of energy + lifetime).
  [[nodiscard]] std::string render() const;
};

/// Runs every patient of the population on a thread pool (one fresh cell
/// per patient), collects the rows into columns and reduces the lifetime
/// CDF.  Results are index-ordered and bit-identical for any worker count.
[[nodiscard]] PopulationCampaignResult run_population_campaign(
    const PopulationGenerator& generator,
    const PopulationCampaignOptions& options);

}  // namespace bansim::core
