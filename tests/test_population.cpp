// Population campaigns: the generator's deterministic, same-shape
// per-patient sampling, worker-count invariance of the thread-pool
// campaign, and the columnar lifetime CDF.  The suite keeps the name
// RunReset so the test ids stay stable.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "core/bansim.hpp"
#include "energy/campaign_columns.hpp"

namespace bansim {
namespace {

using core::BanConfig;
using sim::Duration;

// --- Population sampling: determinism + same-shape contract ----------------

TEST(RunReset, PopulationGeneratorIsDeterministicAndDistinct) {
  BanConfig base;
  base.num_nodes = 3;
  base.seed = 42;
  core::PopulationConfig population;
  const core::PopulationGenerator generator{base, population};

  const BanConfig a = generator.patient(5);
  const BanConfig b = generator.patient(5);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.ecg.heart_rate_bpm, b.ecg.heart_rate_bpm);
  EXPECT_EQ(a.ecg.noise_volts, b.ecg.noise_volts);

  const BanConfig other = generator.patient(6);
  EXPECT_NE(a.seed, other.seed);
  EXPECT_NE(a.ecg.heart_rate_bpm, other.ecg.heart_rate_bpm);
  // Shape invariants: same roster size, same fault activeness.
  EXPECT_EQ(a.effective_nodes(), base.effective_nodes());
  EXPECT_EQ(a.fault_plan.any(), base.fault_plan.any());
}

TEST(RunReset, MotionPopulationAlwaysCarriesAnEpisode) {
  BanConfig base;
  base.num_nodes = 2;
  base.seed = 7;
  core::PopulationConfig population;
  population.motion = true;
  const core::PopulationGenerator generator{base, population};
  for (std::size_t i = 0; i < 40; ++i) {
    const BanConfig patient = generator.patient(i);
    EXPECT_TRUE(patient.fault_plan.enabled);
    EXPECT_GE(patient.fault_plan.episodes.size(), 1u) << "patient " << i;
    EXPECT_TRUE(patient.fault_plan.touches_channel());
  }
}

TEST(RunReset, PopulationCampaignIsWorkerCountInvariant) {
  BanConfig base;
  base.num_nodes = 2;
  base.seed = 11;
  base.storage.enabled = true;
  base.storage.battery.capacity_mah = 0.05;
  const core::PopulationGenerator generator{base, {}};

  core::PopulationCampaignOptions options;
  options.patients = 6;
  options.measure = Duration::milliseconds(400);
  options.settle = Duration::milliseconds(100);

  options.jobs = 1;
  const auto serial = core::run_population_campaign(generator, options);
  options.jobs = 3;
  const auto parallel = core::run_population_campaign(generator, options);

  // Patients share no state: the parallel campaign (different worker
  // assignment) is bit-identical.
  EXPECT_EQ(serial.columns.total_mj, parallel.columns.total_mj);
  EXPECT_EQ(serial.columns.lifetime_hours, parallel.columns.lifetime_hours);
  EXPECT_EQ(serial.columns.data_packets, parallel.columns.data_packets);
  EXPECT_EQ(serial.columns.seed, parallel.columns.seed);
  EXPECT_EQ(serial.failed_joins, 0u);
}

// --- Columnar reductions ---------------------------------------------------

TEST(RunReset, MetricCdfPercentilesAndUnboundedTail) {
  std::vector<double> column;
  for (int i = 1; i <= 90; ++i) column.push_back(static_cast<double>(i));
  for (int i = 0; i < 10; ++i) {
    column.push_back(std::numeric_limits<double>::infinity());
  }
  const auto cdf = energy::MetricCdf::build(column, 90);
  EXPECT_EQ(cdf.count, 90u);
  EXPECT_EQ(cdf.unbounded, 10u);
  EXPECT_NEAR(cdf.percentile(0.5), 50.0, 2.0);
  EXPECT_TRUE(std::isinf(cdf.percentile(0.95)));

  std::vector<double> scratch;
  EXPECT_EQ(energy::column_percentile(column, 0.5, scratch), 50.0);
  EXPECT_NEAR(energy::column_mean(column), 45.5, 1e-12);

  const std::string csv = energy::MetricCdf::build(column, 4).render_csv();
  EXPECT_EQ(csv.substr(0, 19), "value,cum_fraction\n");
}

}  // namespace
}  // namespace bansim
