// Co-located BAN coexistence: two independent cells on one channel.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/invariant_monitor.hpp"
#include "core/ban_network.hpp"

namespace bansim::core {
namespace {

using namespace bansim::sim::literals;
using sim::Duration;
using sim::TimePoint;

BanConfig cell_config(std::uint8_t pan, net::NodeId offset, int cycle_ms,
                      std::size_t nodes = 3) {
  BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), 5);
  cfg.tdma.pan_id = pan;
  cfg.address_offset = offset;
  cfg.app = AppKind::kEcgStreaming;
  cfg.streaming.sample_rate_hz = 6000.0 / cycle_ms;
  cfg.seed = 77 + pan;
  return cfg;
}

TEST(Coexistence, TwoCellsFormIndependently) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  EXPECT_EQ(net.cell(0).base_station_mac().joined_nodes(), 3u);
  EXPECT_EQ(net.cell(1).base_station_mac().joined_nodes(), 3u);
  EXPECT_EQ(net.cell(0).base_station_mac().current_cycle(), 30_ms);
  EXPECT_EQ(net.cell(1).base_station_mac().current_cycle(), 60_ms);
}

TEST(Coexistence, NoCrossDelivery) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 10_s);

  // Each base station only ever hears its own address range.
  for (const auto& [src, traffic] :
       net.cell(0).base_station_app().per_node()) {
    EXPECT_GE(src, 1);
    EXPECT_LE(src, 3);
  }
  for (const auto& [src, traffic] :
       net.cell(1).base_station_app().per_node()) {
    EXPECT_GE(src, 101);
    EXPECT_LE(src, 103);
  }
  EXPECT_GT(net.cell(0).base_station_app().total_packets(), 100u);
  EXPECT_GT(net.cell(1).base_station_app().total_packets(), 100u);
}

TEST(Coexistence, ForeignBeaconsAreHeardAndIgnored) {
  BanNetwork net{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  // Both cells' boards, slot tables and the shared channel stay legal
  // while the cells overhear and collide with each other.
  check::InvariantMonitor monitor{net.context()};
  monitor.watch_network(net);
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  net.run_until(net.simulator().now() + 10_s);

  // During search/guard windows a node inevitably overhears the other
  // cell's broadcast beacons; the PAN filter must have dropped them.
  std::uint64_t foreign = 0;
  for (std::size_t cell = 0; cell < 2; ++cell) {
    for (std::size_t i = 0; i < net.cell(cell).num_nodes(); ++i) {
      foreign += net.cell(cell).node(i).mac().stats().foreign_beacons;
      EXPECT_TRUE(net.cell(cell).node(i).mac().joined());
    }
  }
  EXPECT_GT(foreign, 0u);

  monitor.final_audit(net.simulator().now());
  EXPECT_EQ(monitor.total_violations(), 0u) << monitor.report();
  EXPECT_GT(monitor.hook_events(), 0u);
}

TEST(Coexistence, InterferenceCostsEnergyButNotCorrectness) {
  // Same cell alone vs next to a neighbour: collisions between the
  // unsynchronized cells force beacon losses and dead reckoning, but both
  // networks keep streaming.
  BanConfig solo_cfg = cell_config(1, 0, 30);
  BanNetwork solo{solo_cfg};
  solo.start();
  ASSERT_TRUE(solo.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  const TimePoint solo_t0 = solo.simulator().now();
  const auto solo_before = solo.base_station_app().total_packets();
  solo.run_until(solo_t0 + 10_s);
  const auto solo_packets =
      solo.base_station_app().total_packets() - solo_before;

  BanNetwork pair{{cell_config(1, 0, 30), cell_config(2, 100, 60)}};
  pair.start();
  ASSERT_TRUE(pair.run_until_joined(500_ms, TimePoint::zero() + 30_s));
  const TimePoint pair_t0 = pair.simulator().now();
  const auto pair_before = pair.cell(0).base_station_app().total_packets();
  pair.run_until(pair_t0 + 10_s);
  const auto pair_packets =
      pair.cell(0).base_station_app().total_packets() - pair_before;

  // The interfered cell delivers at least 80 % of its solo throughput.
  EXPECT_GT(pair.channel().collisions(), 0u);
  EXPECT_GT(static_cast<double>(pair_packets),
            0.80 * static_cast<double>(solo_packets));

  // And beacon losses occurred but dead reckoning absorbed them: nobody
  // fell back to a full resync after the join phase.
  std::uint64_t missed = 0;
  for (std::size_t i = 0; i < pair.cell(0).num_nodes(); ++i) {
    missed += pair.cell(0).node(i).mac().stats().beacons_missed;
  }
  EXPECT_GT(missed, 0u);
}

TEST(Coexistence, ThreeCellsStillConverge) {
  BanNetwork net{{cell_config(1, 0, 30, 2), cell_config(2, 100, 40, 2),
                  cell_config(3, 200, 60, 2)}};
  net.start();
  EXPECT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 40_s));
  for (std::size_t cell = 0; cell < 3; ++cell) {
    EXPECT_EQ(net.cell(cell).base_station_mac().joined_nodes(), 2u);
  }
}

TEST(Coexistence, EveryCellDrainsItsBatteries) {
  // Every cell gets the storage wiring a lone cell gets: a battery that
  // dies within 20 s alone must die next to a neighbour too.
  auto powered = [](std::uint8_t pan, net::NodeId offset, int cycle_ms) {
    BanConfig cfg = cell_config(pan, offset, cycle_ms);
    cfg.storage.enabled = true;
    cfg.storage.battery.capacity_mah = 0.05;
    return cfg;
  };
  const TimePoint end = TimePoint::zero() + 20_s;

  BanNetwork solo{powered(1, 0, 30)};
  solo.start();
  solo.run_until(end);
  ASSERT_NE(solo.storage_driver(), nullptr);
  EXPECT_GT(solo.storage_driver()->stats().depletion_deaths, 0u);

  BanNetwork pair{{powered(1, 0, 30), powered(2, 100, 60)}};
  pair.start();
  pair.run_until(end);
  ASSERT_NE(pair.storage_driver(), nullptr);
  EXPECT_EQ(pair.storage_driver()->node_count(), 6u);
  EXPECT_GT(pair.storage_driver()->stats().depletion_deaths, 0u);
}

TEST(Coexistence, EveryCellDecodesItsApplication) {
  // R-peak beat decoding and EEG reassembly are wired per cell, not only
  // for cell 0.
  BanConfig ecg = cell_config(1, 0, 30);
  BanConfig rpeak = cell_config(2, 100, 60);
  rpeak.app = AppKind::kRpeak;
  BanConfig eeg = cell_config(3, 200, 30, 1);
  eeg.tdma = mac::TdmaConfig::dynamic_plan();
  eeg.tdma.pan_id = 3;
  eeg.app = AppKind::kEegMonitoring;
  eeg.eeg.channels = 4;
  eeg.eeg.sample_rate_hz = 64.0;
  eeg.eeg_signal.channels = 4;

  BanNetwork net{{ecg, rpeak, eeg}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(500_ms, TimePoint::zero() + 40_s));
  net.run_until(net.simulator().now() + 10_s);

  EXPECT_TRUE(net.cell(0).base_station_app().beats().empty());
  EXPECT_FALSE(net.cell(1).base_station_app().beats().empty());
  EXPECT_EQ(net.eeg_collector(1), nullptr);
  const apps::EegCollector* collector = net.eeg_collector(201);
  ASSERT_NE(collector, nullptr);
  EXPECT_GT(collector->blocks_decoded(), 0u);
}

TEST(Coexistence, EmptyCellListIsRejected) {
  EXPECT_THROW(BanNetwork{std::vector<BanConfig>{}}, std::invalid_argument);
}

TEST(Coexistence, SharedPanIdIsRejected) {
  EXPECT_THROW((BanNetwork{{cell_config(1, 0, 30), cell_config(1, 100, 60)}}),
               std::invalid_argument);
}

TEST(Coexistence, OverlappingAddressRangesAreRejected) {
  // Cell 1's nodes 3..5 overlap cell 0's 1..3 at address 3.
  EXPECT_THROW((BanNetwork{{cell_config(1, 0, 30), cell_config(2, 2, 60)}}),
               std::invalid_argument);
}

TEST(Coexistence, LinkModelInACellIsRejected) {
  BanConfig linked = cell_config(2, 100, 60);
  linked.use_link_model = true;
  EXPECT_THROW((BanNetwork{{cell_config(1, 0, 30), linked}}),
               std::invalid_argument);
}

TEST(Coexistence, FaultPlanInACellIsRejected) {
  BanConfig faulty = cell_config(2, 100, 60);
  faulty.fault_plan.enabled = true;
  faulty.fault_plan.fade.enabled = true;
  ASSERT_TRUE(faulty.fault_plan.any());
  EXPECT_THROW((BanNetwork{{cell_config(1, 0, 30), faulty}}),
               std::invalid_argument);
}

}  // namespace
}  // namespace bansim::core
