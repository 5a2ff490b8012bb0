#include "core/population.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>

#include "hw/energy_store.hpp"
#include "sim/rng.hpp"

namespace bansim::core {

namespace {

// The sampled population: resting adults on a general ward.

// Heart rate: normal(mean, sd) clamped into [lo, hi] bpm.
constexpr double kHeartRateMeanBpm = 75.0;
constexpr double kHeartRateSdBpm = 12.0;
constexpr double kHeartRateLoBpm = 45.0;
constexpr double kHeartRateHiBpm = 150.0;

// Waveform morphology/noise: uniform spreads around the ECG front end's
// defaults.
constexpr double kRrVariabilityLo = 0.015;
constexpr double kRrVariabilityHi = 0.06;
constexpr double kRAmplitudeLoVolts = 0.45;
constexpr double kRAmplitudeHiVolts = 0.75;
constexpr double kNoiseLoVolts = 0.003;
constexpr double kNoiseHiVolts = 0.009;

// Motion/posture shadowing episodes (PopulationConfig::motion).  The
// minimum count is 1 so every patient keeps the fault layer's shape.
constexpr std::int64_t kMotionEpisodesMin = 1;
constexpr std::int64_t kMotionEpisodesMax = 3;
// Episodes start uniformly inside [0, kMotionWindow).
constexpr sim::Duration kMotionWindow = sim::Duration::seconds(30);
constexpr sim::Duration kMotionDurationMin = sim::Duration::milliseconds(200);
constexpr sim::Duration kMotionDurationMax = sim::Duration::seconds(2);
constexpr double kMotionExtraLossDbMin = 4.0;
constexpr double kMotionExtraLossDbMax = 14.0;
constexpr double kMotionFerMin = 0.05;
constexpr double kMotionFerMax = 0.35;

// Storage manufacturing spread: battery capacity / capacitor capacitance
// scale by uniform[min, max], only where storage is enabled, so
// enabled-ness never changes.
constexpr double kCapacityScaleMin = 0.85;
constexpr double kCapacityScaleMax = 1.15;

}  // namespace

PopulationGenerator::PopulationGenerator(BanConfig base,
                                         PopulationConfig population)
    : base_{std::move(base)}, population_{population} {}

BanConfig PopulationGenerator::patient(std::size_t index) const {
  const std::string tag = std::to_string(index);
  BanConfig cfg = base_;
  cfg.seed = base_.seed ^ sim::fnv1a64("pop/patient/" + tag);

  sim::Rng heart = sim::Rng::stream(base_.seed, "pop/heart/" + tag);
  cfg.ecg.heart_rate_bpm =
      std::clamp(heart.normal(kHeartRateMeanBpm, kHeartRateSdBpm),
                 kHeartRateLoBpm, kHeartRateHiBpm);

  sim::Rng morph = sim::Rng::stream(base_.seed, "pop/morphology/" + tag);
  cfg.ecg.rr_variability = morph.uniform(kRrVariabilityLo, kRrVariabilityHi);
  cfg.ecg.r_amplitude_volts =
      morph.uniform(kRAmplitudeLoVolts, kRAmplitudeHiVolts);
  cfg.ecg.noise_volts = morph.uniform(kNoiseLoVolts, kNoiseHiVolts);

  if (population_.motion) {
    sim::Rng motion = sim::Rng::stream(base_.seed, "pop/motion/" + tag);
    const auto count = static_cast<std::uint32_t>(
        motion.uniform_int(kMotionEpisodesMin, kMotionEpisodesMax));
    for (std::uint32_t e = 0; e < count; ++e) {
      fault::ShadowEpisode episode;
      // 0 shadows every node; 1..N a single roster position.
      episode.node = static_cast<std::uint32_t>(motion.uniform_int(
          0, static_cast<std::int64_t>(cfg.effective_nodes())));
      episode.start = sim::TimePoint::zero() +
                      sim::Duration::from_seconds(
                          motion.uniform(0.0, kMotionWindow.to_seconds()));
      episode.duration = sim::Duration::from_seconds(
          motion.uniform(kMotionDurationMin.to_seconds(),
                         kMotionDurationMax.to_seconds()));
      episode.extra_loss_db =
          motion.uniform(kMotionExtraLossDbMin, kMotionExtraLossDbMax);
      episode.fer = motion.uniform(kMotionFerMin, kMotionFerMax);
      cfg.fault_plan.episodes.push_back(episode);
    }
    // A motion population always carries >= 1 episode per patient, so this
    // switch is constant across the population (one network shape).
    cfg.fault_plan.enabled = true;
  }

  sim::Rng storage = sim::Rng::stream(base_.seed, "pop/storage/" + tag);
  const double scale = storage.uniform(kCapacityScaleMin, kCapacityScaleMax);
  const auto rescale = [scale](hw::StorageParams& params) {
    if (!params.enabled) return;
    params.battery.capacity_mah *= scale;
    params.capacitor.capacitance_farads *= scale;
  };
  rescale(cfg.storage);
  for (NodeSpec& spec : cfg.roster) {
    if (spec.storage) rescale(*spec.storage);
  }
  return cfg;
}

namespace {

struct ComponentJoules {
  double mcu{0};
  double radio{0};
  double asic{0};
  [[nodiscard]] double total() const { return mcu + radio + asic; }
};

ComponentJoules node_joules(NodeStack& node, sim::TimePoint now) {
  hw::Board& board = node.board();
  ComponentJoules j;
  j.mcu = board.mcu().meter().total_energy(now);
  j.radio = board.radio().meter().total_energy(now);
  j.asic = board.asic().energy(now);
  return j;
}

}  // namespace

energy::CampaignRunRow run_patient(const PopulationGenerator& generator,
                                   const PatientWindow& window,
                                   std::size_t index) {
  const BanConfig config = generator.patient(index);
  BanNetwork net{config};
  net.start();

  energy::CampaignRunRow row;
  row.seed = config.seed;
  row.joined = net.run_until_joined(
      window.settle, sim::TimePoint::zero() + window.join_deadline);
  if (!row.joined) return row;

  const std::size_t nodes = net.num_nodes();
  const sim::TimePoint t0 = net.simulator().now();
  // run_until_joined returns settle past the join instant; subtracting the
  // settle recovers the join latency itself.
  row.join_ms = (t0.since_epoch() - window.settle).to_seconds() * 1e3;
  ComponentJoules before_sum;
  std::uint64_t packets_before = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const ComponentJoules j = node_joules(net.node(n), t0);
    before_sum.mcu += j.mcu;
    before_sum.radio += j.radio;
    before_sum.asic += j.asic;
    packets_before += net.node(n).mac_base().stats_snapshot().data_sent;
  }
  const std::uint64_t delivered_before =
      net.base_station_app().total_packets();

  net.run_until(t0 + window.measure);
  const sim::TimePoint t1 = net.simulator().now();
  const double window_s = (t1 - t0).to_seconds();

  double lifetime = std::numeric_limits<double>::infinity();
  ComponentJoules after_sum;
  std::uint64_t packets_after = 0;
  for (std::size_t n = 0; n < nodes; ++n) {
    const ComponentJoules j = node_joules(net.node(n), t1);
    after_sum.mcu += j.mcu;
    after_sum.radio += j.radio;
    after_sum.asic += j.asic;
    packets_after += net.node(n).mac_base().stats_snapshot().data_sent;

    const hw::EnergyStore* store = net.node(n).energy_store();
    if (store == nullptr) continue;
    double hours;
    if (store->depleted()) {
      hours = t1.to_seconds() / 3600.0;  // died inside the horizon
    } else {
      const ComponentJoules j0 = node_joules(net.node(n), t0);
      const double watts =
          window_s > 0 ? (j.total() - j0.total()) / window_s : 0.0;
      const hw::StorageParams& params = store->params();
      const double harvest_watts =
          params.harvest.enabled ? params.harvest.average_watts() : 0.0;
      hours = hw::projected_hours(params, watts, harvest_watts);
    }
    lifetime = std::min(lifetime, hours);
  }

  row.mcu_mj = (after_sum.mcu - before_sum.mcu) * 1e3;
  row.radio_mj = (after_sum.radio - before_sum.radio) * 1e3;
  row.asic_mj = (after_sum.asic - before_sum.asic) * 1e3;
  row.total_mj = row.mcu_mj + row.radio_mj + row.asic_mj;
  row.data_packets = packets_after - packets_before;
  row.delivered_packets =
      net.base_station_app().total_packets() - delivered_before;
  row.lifetime_hours = lifetime;
  return row;
}

}  // namespace bansim::core
