// Heap-allocation and event-count ceilings: a global operator new that
// counts, Simulator::events_executed(), and four pinned counts that may
// only ever go down.
//
//  * One population patient: population_ward.ini's patient 0 with motion
//    on — build, join and a 1 s measured window.  Most of its allocations
//    are the cell build; its events are the join and the window.
//  * Steady state: allocations and events per simulated second of the
//    Table-1 static-TDMA ECG ward (table1_row1.ini) after it has joined.
//
// The counts are deterministic (allocations for a given standard library).
// When a change lowers one, lower its ceiling here to the new count (the
// failure message prints it).  This file is its own test binary because
// the replaced allocation functions are global.
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

/// Ceilings.  Lower them when a change allocates or schedules less; never
/// raise them.
constexpr std::uint64_t kPatientCeiling = 24171;
constexpr std::uint64_t kSteadyPerSimSecondCeiling = 10494;
constexpr std::uint64_t kPatientEventCeiling = 15108;
constexpr std::uint64_t kSteadyEventsPerSimSecondCeiling = 7092;

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

/// population_ward.ini's patients with motion on.
core::PopulationGenerator ward_population() {
  core::PopulationConfig population;
  population.motion = true;
  return {load_config("population_ward.ini"), population};
}

TEST(AllocCeiling, OnePopulationPatient) {
  const core::PopulationGenerator generator = ward_population();
  core::PatientWindow window;
  window.measure = Duration::seconds(1);

  const std::uint64_t before = allocations();
  const energy::CampaignRunRow row = core::run_patient(generator, window, 0);
  const std::uint64_t used = allocations() - before;

  ASSERT_TRUE(row.joined);
  EXPECT_LE(used, kPatientCeiling) << "patient 0 allocated " << used;
}

TEST(AllocCeiling, OnePopulationPatientEvents) {
  // run_patient()'s protocol, with the network in reach: join, then the
  // same 1 s window.
  core::PatientWindow window;
  window.measure = Duration::seconds(1);
  core::BanNetwork net{ward_population().patient(0)};
  net.start();
  ASSERT_TRUE(net.run_until_joined(window.settle,
                                   TimePoint::zero() + window.join_deadline));
  net.run_until(net.simulator().now() + window.measure);

  const std::uint64_t events = net.simulator().events_executed();
  EXPECT_LE(events, kPatientEventCeiling) << "patient 0 ran " << events
                                          << " events";
}

TEST(AllocCeiling, Table1EcgSteadyStatePerSimSecond) {
  core::BanNetwork net{load_config("table1_row1.ini")};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::seconds(1),
                                   TimePoint::zero() + Duration::seconds(30)));

  constexpr std::int64_t kSeconds = 10;
  const std::uint64_t before = allocations();
  const std::uint64_t events_before = net.simulator().events_executed();
  net.run_until(net.simulator().now() + Duration::seconds(kSeconds));
  const std::uint64_t per_sim_second =
      (allocations() - before) / static_cast<std::uint64_t>(kSeconds);
  const std::uint64_t events_per_sim_second =
      (net.simulator().events_executed() - events_before) /
      static_cast<std::uint64_t>(kSeconds);

  EXPECT_LE(per_sim_second, kSteadyPerSimSecondCeiling)
      << "steady state allocated " << per_sim_second << " per sim-s";
  EXPECT_LE(events_per_sim_second, kSteadyEventsPerSimSecondCeiling)
      << "steady state ran " << events_per_sim_second << " events per sim-s";
}

}  // namespace
}  // namespace bansim
