// NetworkBuilder roster validation, stream naming and event-arena
// pre-sizing.
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/ban_network.hpp"
#include "core/network_builder.hpp"
#include "mac/tdma_config.hpp"
#include "os/probe.hpp"

namespace bansim {
namespace {

core::BanCell build(sim::SimContext& context, phy::Channel& channel,
                    const core::BanConfig& config) {
  static os::NullProbe probe;  // the stacks keep a reference to it
  return core::NetworkBuilder::build_cell(context, channel, config, 0, 1,
                                          probe, os::CycleCostModel{});
}

TEST(NetworkBuilder, InvalidTdmaConfigIsRejected) {
  // Programmatic construction bypasses config_io, so the builder re-runs
  // TdmaConfig::validate() — the same degenerate plans hard-error here.
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.num_nodes = 2;
  config.tdma.ack_data = true;
  config.tdma.max_retries = 0;
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
  config.tdma = mac::TdmaConfig{};
  config.tdma.tx_queue_cap = 0;
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
  config.tdma = mac::TdmaConfig{};
  config.tdma.missed_beacon_limit = 3;
  config.tdma.reclaim_after_cycles = 2;
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
}

TEST(NetworkBuilder, ZeroNodeBanConfigIsBaseStationOnly) {
  // num_nodes = 0 is an explicit beacon-only network, not a mistake.
  core::BanConfig config;
  config.num_nodes = 0;
  core::BanNetwork network{config};
  EXPECT_EQ(network.num_nodes(), 0u);
}

TEST(NetworkBuilder, DuplicateAddressesAreRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.roster.resize(3);
  config.roster[0].address = 9;
  config.roster[2].address = 9;  // collides with node 0
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
}

TEST(NetworkBuilder, ExplicitAddressCollidingWithPositionalIsRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.roster.resize(3);
  // Node 1's positional default is offset + 2 == 2; pinning node 0 to it
  // must hard-error rather than silently cross-deliver frames.
  config.roster[0].address = 2;
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
}

TEST(NetworkBuilder, BaseStationAddressCollisionIsRejected) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.tdma.pan_id = 1;
  config.roster.resize(2);
  config.roster[0].address = mac::TdmaConfig::bs_address(1);
  EXPECT_THROW((void)build(context, channel, config), std::invalid_argument);
}

TEST(NetworkBuilder, DistinctExplicitAddressesAreAccepted) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.roster.resize(3);
  config.roster[1].address = 77;
  const core::BanCell cell = build(context, channel, config);
  EXPECT_EQ(cell.num_nodes(), 3u);
  EXPECT_EQ(cell.node(1).address(), 77);
}

TEST(NetworkBuilder, StreamNamingFollowsTheCellCount) {
  using core::CellStream;
  using core::cell_stream_name;
  EXPECT_EQ(cell_stream_name(CellStream::kSkew, 0, 1), "skew");
  EXPECT_EQ(cell_stream_name(CellStream::kStagger, 0, 1), "stagger");
  EXPECT_EQ(cell_stream_name(CellStream::kMac, 0, 1, 3), "mac/node3");
  EXPECT_EQ(cell_stream_name(CellStream::kSignal, 0, 1, 3), "ecg/node3");
  EXPECT_EQ(cell_stream_name(CellStream::kBaseStation, 0, 1), "bs");
  EXPECT_EQ(cell_stream_name(CellStream::kSkew, 1, 2), "skew/cell1");
  EXPECT_EQ(cell_stream_name(CellStream::kStagger, 1, 2), "stagger/1");
  EXPECT_EQ(cell_stream_name(CellStream::kMac, 1, 2, 103), "mac/cell1/103");
  EXPECT_EQ(cell_stream_name(CellStream::kSignal, 1, 2, 103),
            "ecg/cell1/103");
  EXPECT_EQ(cell_stream_name(CellStream::kBaseStation, 1, 2), "bs1");
}

TEST(NetworkBuilder, PreSizesTheEventArena) {
  sim::SimContext context{42};
  phy::Channel channel{context};
  core::BanConfig config;
  config.num_nodes = 5;
  const core::BanCell cell = build(context, channel, config);
  (void)cell;
  // 16 events per stack, base station included, reserved up front so the
  // first join burst does not grow the arena.
  EXPECT_GE(context.simulator.event_capacity(), 16u * 6u);
}

}  // namespace
}  // namespace bansim
