// Heap-allocation ceilings: a global operator new that counts, and two
// pinned counts that may only ever go down.
//
//  * One population patient: run_patient() on population_ward.ini's
//    patient 0 with motion on — build, join and a 1 s measured window.
//    Most of it is the cell build.
//  * Steady state: allocations per simulated second of the Table-1
//    static-TDMA ECG ward (table1_row1.ini) after it has joined.
//
// The counts are deterministic for a given standard library.  When a
// change lowers one, lower its ceiling here to the new count (the failure
// message prints it).  This file is its own test binary because the
// replaced allocation functions are global.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

#include "core/bansim.hpp"
#include "core/config_io.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t size) {
  if (void* p = counted_alloc(size)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace bansim {
namespace {

using sim::Duration;
using sim::TimePoint;

/// Ceilings.  Lower them when a change allocates less; never raise them.
constexpr std::uint64_t kPatientCeiling = 24171;
constexpr std::uint64_t kSteadyPerSimSecondCeiling = 10494;

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

core::BanConfig load_config(const std::string& file) {
  std::ifstream in(std::string(BANSIM_CONFIG_DIR) + "/" + file);
  EXPECT_TRUE(in) << "cannot open " << file;
  std::ostringstream text;
  text << in.rdbuf();
  return core::parse_config(text.str());
}

TEST(AllocCeiling, OnePopulationPatient) {
  core::PopulationConfig population;
  population.motion = true;
  const core::PopulationGenerator generator{
      load_config("population_ward.ini"), population};
  core::PatientWindow window;
  window.measure = Duration::seconds(1);

  const std::uint64_t before = allocations();
  const energy::CampaignRunRow row = core::run_patient(generator, window, 0);
  const std::uint64_t used = allocations() - before;

  ASSERT_TRUE(row.joined);
  EXPECT_LE(used, kPatientCeiling) << "patient 0 allocated " << used;
}

TEST(AllocCeiling, Table1EcgSteadyStatePerSimSecond) {
  core::BanNetwork net{load_config("table1_row1.ini")};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::seconds(1),
                                   TimePoint::zero() + Duration::seconds(30)));

  constexpr std::int64_t kSeconds = 10;
  const std::uint64_t before = allocations();
  net.run_until(net.simulator().now() + Duration::seconds(kSeconds));
  const std::uint64_t per_sim_second =
      (allocations() - before) / static_cast<std::uint64_t>(kSeconds);

  EXPECT_LE(per_sim_second, kSteadyPerSimSecondCeiling)
      << "steady state allocated " << per_sim_second << " per sim-s";
}

}  // namespace
}  // namespace bansim
