// Population-scale Monte Carlo: N distinct simulated patients.
//
// The paper validates one wearer; a ward deployment question ("what
// lifetime does the 5th-percentile patient see?") needs a population.
// PopulationGenerator turns one ward BanConfig into per-patient variants by
// sampling physiology and environment from named RNG streams keyed by the
// patient index — heart-rate distribution, ECG waveform morphology and
// noise, motion/posture shadowing episodes on the channel, and the spread
// of manufactured storage capacity.  The distributions are fixed constants
// (a resting adult ward population, population.cpp); only motion is a
// switch.
//
// A patient is one fresh cell: run_patient() builds a BanNetwork from the
// patient's config, joins it and measures one window, as the paper's
// estimator charges one node life per run.  Populations run through the
// crash-safe campaign orchestrator (src/campaign/, bansim_campaign), whose
// shard workers call run_patient() in or out of process.
#pragma once

#include <cstddef>

#include "core/ban_network.hpp"
#include "energy/campaign_columns.hpp"
#include "sim/time.hpp"

namespace bansim::core {

/// Per-patient sampling switches; every draw is deterministic in
/// (base seed, index).
struct PopulationConfig {
  /// Motion/posture: each patient draws one to three timed shadowing
  /// episodes on the channel.  Every patient draws AT LEAST one, so
  /// FaultPlan::any()/touches_channel() — the network's shape — is the
  /// same for the whole population.
  bool motion{false};
};

/// Derives per-patient BanConfigs from a base ward config.  patient(i) is
/// pure: same (base seed, population, i) always yields the same config.
class PopulationGenerator {
 public:
  PopulationGenerator(BanConfig base, PopulationConfig population);

  /// The i-th patient's config: base with per-patient seed, physiology,
  /// motion episodes and storage capacity — same-shape with every other
  /// patient.
  [[nodiscard]] BanConfig patient(std::size_t index) const;

 private:
  BanConfig base_;
  PopulationConfig population_;
};

/// Measurement window of one patient run — the campaign unit's protocol,
/// stored in the campaign manifest and run by every shard worker.
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

}  // namespace bansim::core
