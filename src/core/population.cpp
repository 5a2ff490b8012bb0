#include "core/population.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/energy_store.hpp"
#include "sim/rng.hpp"
#include "sim/scenario_runner.hpp"

namespace bansim::core {

std::string PopulationConfig::validate() const {
  if (hr_sd_bpm < 0) return "hr_sd_bpm must be >= 0";
  if (hr_lo_bpm <= 0 || hr_hi_bpm < hr_lo_bpm) {
    return "heart-rate clamp must satisfy 0 < lo <= hi";
  }
  const auto ordered = [](double lo, double hi) { return lo <= hi; };
  if (!ordered(rr_variability_lo, rr_variability_hi) ||
      rr_variability_lo < 0) {
    return "rr_variability range must satisfy 0 <= lo <= hi";
  }
  if (!ordered(r_amplitude_lo_volts, r_amplitude_hi_volts)) {
    return "r_amplitude range must satisfy lo <= hi";
  }
  if (!ordered(noise_lo_volts, noise_hi_volts) || noise_lo_volts < 0) {
    return "noise range must satisfy 0 <= lo <= hi";
  }
  if (motion) {
    if (motion_episodes_min == 0) {
      return "motion_episodes_min must be >= 1 (an episode-free patient "
             "would change the fault layer's shape)";
    }
    if (motion_episodes_max < motion_episodes_min) {
      return "motion episode count range must satisfy min <= max";
    }
    if (motion_duration_max < motion_duration_min) {
      return "motion duration range must satisfy min <= max";
    }
    if (!ordered(motion_extra_loss_db_min, motion_extra_loss_db_max)) {
      return "motion extra-loss range must satisfy min <= max";
    }
    if (!ordered(motion_fer_min, motion_fer_max) || motion_fer_min < 0 ||
        motion_fer_max > 1) {
      return "motion fer range must satisfy 0 <= min <= max <= 1";
    }
  }
  if (capacity_scale_min <= 0 || capacity_scale_max < capacity_scale_min) {
    return "capacity scale range must satisfy 0 < min <= max";
  }
  return {};
}

PopulationGenerator::PopulationGenerator(BanConfig base,
                                         PopulationConfig population)
    : base_{std::move(base)}, population_{std::move(population)} {
  if (const std::string problem = population_.validate(); !problem.empty()) {
    throw std::invalid_argument("PopulationConfig: " + problem);
  }
}

BanConfig PopulationGenerator::patient(std::size_t index) const {
  const std::string tag = std::to_string(index);
  BanConfig cfg = base_;
  cfg.seed = base_.seed ^ sim::fnv1a64("pop/patient/" + tag);

  sim::Rng heart = sim::Rng::stream(base_.seed, "pop/heart/" + tag);
  cfg.ecg.heart_rate_bpm =
      std::clamp(heart.normal(population_.hr_mean_bpm, population_.hr_sd_bpm),
                 population_.hr_lo_bpm, population_.hr_hi_bpm);

  sim::Rng morph = sim::Rng::stream(base_.seed, "pop/morphology/" + tag);
  cfg.ecg.rr_variability = morph.uniform(population_.rr_variability_lo,
                                         population_.rr_variability_hi);
  cfg.ecg.r_amplitude_volts = morph.uniform(population_.r_amplitude_lo_volts,
                                            population_.r_amplitude_hi_volts);
  cfg.ecg.noise_volts =
      morph.uniform(population_.noise_lo_volts, population_.noise_hi_volts);

  if (population_.motion) {
    sim::Rng motion = sim::Rng::stream(base_.seed, "pop/motion/" + tag);
    const auto count = static_cast<std::uint32_t>(motion.uniform_int(
        population_.motion_episodes_min, population_.motion_episodes_max));
    for (std::uint32_t e = 0; e < count; ++e) {
      fault::ShadowEpisode episode;
      // 0 shadows every node; 1..N a single roster position.
      episode.node = static_cast<std::uint32_t>(motion.uniform_int(
          0, static_cast<std::int64_t>(cfg.effective_nodes())));
      episode.start =
          sim::TimePoint::zero() +
          sim::Duration::from_seconds(motion.uniform(
              0.0, population_.motion_window.to_seconds()));
      episode.duration = sim::Duration::from_seconds(
          motion.uniform(population_.motion_duration_min.to_seconds(),
                         population_.motion_duration_max.to_seconds()));
      episode.extra_loss_db = motion.uniform(
          population_.motion_extra_loss_db_min,
          population_.motion_extra_loss_db_max);
      episode.fer =
          motion.uniform(population_.motion_fer_min, population_.motion_fer_max);
      cfg.fault_plan.episodes.push_back(episode);
    }
    // A motion population always carries >= 1 episode per patient, so this
    // switch is constant across the population (one network shape).
    cfg.fault_plan.enabled = true;
  }

  sim::Rng storage = sim::Rng::stream(base_.seed, "pop/storage/" + tag);
  const double scale = storage.uniform(population_.capacity_scale_min,
                                       population_.capacity_scale_max);
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

PopulationCampaignResult run_population_campaign(
    const PopulationGenerator& generator,
    const PopulationCampaignOptions& options) {
  sim::ScenarioRunner runner{options.jobs};

  const PatientWindow window{options.measure, options.settle,
                             options.join_deadline};
  std::vector<std::function<energy::CampaignRunRow()>> patients;
  patients.reserve(options.patients);
  for (std::size_t index = 0; index < options.patients; ++index) {
    patients.emplace_back([&generator, &window, index] {
      return run_patient(generator, window, index);
    });
  }
  const std::vector<energy::CampaignRunRow> rows = runner.run(patients);

  PopulationCampaignResult result;
  result.columns.reserve(rows.size());
  for (const energy::CampaignRunRow& row : rows) {
    result.columns.append_run(row);
    if (!row.joined) ++result.failed_joins;
  }
  result.lifetime_cdf =
      energy::MetricCdf::build(result.columns.lifetime_hours, options.cdf_bins);
  result.workers = runner.summary().workers;
  result.wall_seconds = runner.summary().wall_seconds;
  return result;
}

std::string PopulationCampaignResult::render() const {
  std::string out;
  char line[160];
  const std::size_t patients = columns.runs();
  const double rate =
      wall_seconds > 0 ? static_cast<double>(patients) / wall_seconds : 0.0;
  std::snprintf(line, sizeof(line),
                "population campaign: %zu patients, %zu failed joins, "
                "%u workers, %.2f s (%.1f runs/s)\n",
                patients, failed_joins, workers, wall_seconds, rate);
  out += line;

  std::vector<double> scratch;
  const auto pct = [&](std::span<const double> column, double q) {
    return energy::column_percentile(column, q, scratch);
  };
  std::snprintf(line, sizeof(line),
                "  ward energy (mJ): mean %.3f  p5 %.3f  p50 %.3f  p95 %.3f\n",
                energy::column_mean(columns.total_mj),
                pct(columns.total_mj, 0.05), pct(columns.total_mj, 0.50),
                pct(columns.total_mj, 0.95));
  out += line;

  if (lifetime_cdf.count > 0) {
    std::snprintf(
        line, sizeof(line),
        "  lifetime (h): p5 %.3f  p50 %.3f  p95 %.3f  (%llu never deplete)\n",
        lifetime_cdf.percentile(0.05), lifetime_cdf.percentile(0.50),
        lifetime_cdf.percentile(0.95),
        static_cast<unsigned long long>(lifetime_cdf.unbounded));
    out += line;
  } else {
    out += "  lifetime: every patient projects an unbounded lifetime "
           "(no store depletes)\n";
  }
  return out;
}

}  // namespace bansim::core
