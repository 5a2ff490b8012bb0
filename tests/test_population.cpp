// Population campaigns: the generator's deterministic, same-shape
// per-patient sampling, its pinned patient configs, and the columnar
// lifetime CDF.  The suite keeps the name RunReset so the test ids stay
// stable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "core/bansim.hpp"
#include "core/config_io.hpp"
#include "energy/campaign_columns.hpp"

namespace bansim {
namespace {

using core::BanConfig;

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

// The exact serialize_config text of population_ward.ini's patients 0, 1
// and 999, motion off and on, pinned byte-for-byte in
// tests/golden/population/.  A deliberate change to the sampling
// regenerates them with
//   BANSIM_UPDATE_GOLDEN=1 build/tests/test_population
// and the diff shows up in review.
TEST(RunReset, PatientConfigsMatchGoldenText) {
  const bool update = std::getenv("BANSIM_UPDATE_GOLDEN") != nullptr;
  std::ifstream ward{std::filesystem::path{BANSIM_CONFIG_DIR} /
                     "population_ward.ini"};
  ASSERT_TRUE(ward);
  std::ostringstream ward_text;
  ward_text << ward.rdbuf();
  const BanConfig base = core::parse_config(ward_text.str());
  for (const bool motion : {false, true}) {
    core::PopulationConfig population;
    population.motion = motion;
    const core::PopulationGenerator generator{base, population};
    for (const std::size_t index : {0u, 1u, 999u}) {
      const std::string name = "patient_" + std::to_string(index) +
                               (motion ? "_motion" : "") + ".ini";
      SCOPED_TRACE(name);
      const std::filesystem::path path =
          std::filesystem::path{BANSIM_GOLDEN_DIR} / name;
      const std::string text = core::serialize_config(generator.patient(index));
      if (update) {
        std::ofstream{path} << text;
        continue;
      }
      std::ifstream in{path};
      ASSERT_TRUE(in) << "missing golden file " << path;
      std::ostringstream golden;
      golden << in.rdbuf();
      EXPECT_EQ(text, golden.str());
    }
  }
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
