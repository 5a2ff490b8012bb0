// Tests of the random-access baseline MAC: delivery at low load, ARQ
// recovery of collisions, congestion collapse at high load, and the
// energy contrast against TDMA.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/bansim.hpp"
#include "sim/rng.hpp"

namespace bansim::mac {
namespace {

using namespace bansim::sim::literals;
using core::BanNetwork;
using sim::Duration;
using sim::TimePoint;

/// A cell of ALOHA nodes with no application: the test drives the MAC
/// through a fixed-rate generator instead.
core::BanConfig aloha_cell(std::size_t nodes, Duration interval,
                           std::uint64_t seed) {
  core::BanConfig cfg;
  cfg.num_nodes = nodes;
  cfg.mac = core::MacKind::kAloha;
  cfg.app = core::AppKind::kNone;
  cfg.seed = seed;
  cfg.stagger = interval;  // nodes boot inside one payload interval
  return cfg;
}

core::BanConfig low_load(std::size_t nodes) {
  return aloha_cell(nodes, 200_ms, 9);  // sparse traffic
}

/// Every node queues one 18-byte payload per `interval` on its own OS
/// timer, starting at a random phase inside the first interval so the
/// nodes do not transmit in lockstep.
class FixedRateGenerator {
 public:
  FixedRateGenerator(BanNetwork& net, Duration interval)
      : generated_(net.num_nodes(), 0) {
    sim::Rng phase_rng = sim::Rng::stream(net.config().seed, "test/phase");
    for (std::size_t i = 0; i < net.num_nodes(); ++i) {
      core::SensorNode* node = &net.node(i);
      std::uint64_t* count = &generated_[i];
      const Duration phase = Duration::from_seconds(
          phase_rng.uniform(0.0, interval.to_seconds()));
      net.simulator().schedule_in(phase, [node, count, interval] {
        node->node_os().timers().start_periodic(
            "app.generate", interval, [node, count] {
              ++*count;
              node->mac_base().queue_payload(
                  std::vector<std::uint8_t>(18, 0xEC));
            });
      });
    }
  }

  /// Payloads generated by node `i` so far.
  [[nodiscard]] std::uint64_t generated(std::size_t i) const {
    return generated_[i];
  }

 private:
  std::vector<std::uint64_t> generated_;
};

TEST(Aloha, SingleNodeDeliversEverything) {
  BanNetwork net{low_load(1)};
  const FixedRateGenerator gen{net, 200_ms};
  net.start();
  net.run_until(TimePoint::zero() + 10_s);
  const auto generated = gen.generated(0);
  EXPECT_NEAR(static_cast<double>(generated), 50.0, 3.0);
  EXPECT_EQ(net.base_station().aloha_mac().data_received(),
            net.node(0).aloha_mac().stats().data_sent);
  EXPECT_EQ(net.node(0).aloha_mac().stats().retry_drops, 0u);
  EXPECT_EQ(net.node(0).aloha_mac().stats().acks_received,
            net.node(0).aloha_mac().stats().data_sent);
}

TEST(Aloha, SparseMultiNodeTrafficMostlySurvives) {
  BanNetwork net{low_load(5)};
  const FixedRateGenerator gen{net, 200_ms};
  net.start();
  net.run_until(TimePoint::zero() + 10_s);
  std::uint64_t generated = 0;
  std::uint64_t dropped = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += gen.generated(i);
    dropped += net.node(i).aloha_mac().stats().retry_drops +
               net.node(i).aloha_mac().stats().payloads_dropped;
  }
  // Unique payloads delivered = generated - dropped - still queued.
  EXPECT_GT(generated, 200u);
  EXPECT_LT(static_cast<double>(dropped), 0.05 * static_cast<double>(generated));
  // ARQ recovered any collision: retransmissions may be nonzero.
  EXPECT_GT(net.base_station().aloha_mac().data_received(), generated * 9 / 10);
}

TEST(Aloha, HighLoadCollapsesDelivery) {
  // 5 nodes each offering a payload every 4 ms over a ~0.5 ms air time
  // channel with ACK turnarounds: far beyond ALOHA's capacity.
  BanNetwork net{aloha_cell(5, 4_ms, 4)};
  const FixedRateGenerator gen{net, 4_ms};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);

  std::uint64_t generated = 0;
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < 5; ++i) {
    generated += gen.generated(i);
    lost += net.node(i).aloha_mac().stats().retry_drops +
            net.node(i).aloha_mac().stats().payloads_dropped;
  }
  EXPECT_GT(net.channel().collisions(), 100u);
  // A substantial fraction of offered load never makes it.
  EXPECT_GT(static_cast<double>(lost), 0.2 * static_cast<double>(generated));
}

TEST(Aloha, CollisionsTriggerRetransmissions) {
  BanNetwork net{aloha_cell(4, 12_ms, 21)};
  const FixedRateGenerator gen{net, 12_ms};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);
  std::uint64_t retransmissions = 0;
  for (std::size_t i = 0; i < 4; ++i) {
    retransmissions += net.node(i).aloha_mac().stats().retransmissions;
  }
  EXPECT_GT(net.channel().collisions(), 0u);
  EXPECT_GT(retransmissions, 0u);
}

TEST(Aloha, FireAndForgetModeNeverListens) {
  core::BanConfig cfg = low_load(2);
  cfg.aloha.ack_data = false;
  BanNetwork net{cfg};
  const FixedRateGenerator gen{net, 200_ms};
  net.start();
  net.run_until(TimePoint::zero() + 5_s);
  const auto& meter = net.node(0).board().radio().meter();
  EXPECT_EQ(meter.time_in(static_cast<int>(hw::RadioState::kRxListen),
                          net.simulator().now()),
            Duration::zero());
  EXPECT_GT(net.base_station().aloha_mac().data_received(), 40u);
  EXPECT_EQ(net.base_station().aloha_mac().acks_sent(), 0u);
}

TEST(Aloha, NodeRadioEnergyBelowTdmaAtSparseLoad) {
  // The contrast the comparison bench quantifies: without beacon tracking,
  // the random-access node's radio energy at sparse load is far below the
  // TDMA node's (which pays the listen window every cycle regardless).
  BanNetwork aloha{low_load(5)};
  const FixedRateGenerator gen{aloha, 200_ms};
  aloha.start();
  aloha.run_until(TimePoint::zero() + 10_s);
  const double aloha_radio =
      aloha.node(0).board().radio().meter().total_energy(
          aloha.simulator().now());

  core::PaperSetup setup;
  core::BanConfig tdma_cfg =
      core::rpeak_static_config(setup, Duration::milliseconds(60));
  core::BanNetwork tdma{tdma_cfg};
  tdma.start();
  ASSERT_TRUE(tdma.run_until_joined(500_ms, TimePoint::zero() + 20_s));
  const sim::TimePoint t0 = tdma.simulator().now();
  const double before =
      tdma.node(0).board().radio().meter().total_energy(t0);
  tdma.run_until(t0 + 10_s);
  const double tdma_radio =
      tdma.node(0).board().radio().meter().total_energy(
          tdma.simulator().now()) -
      before;

  EXPECT_LT(aloha_radio, 0.5 * tdma_radio);
}

}  // namespace
}  // namespace bansim::mac
