// Golden-value pinning for the SimContext/NodeStack/NetworkBuilder
// refactor: every number here was captured from the pre-refactor tree
// (seed composition code) and must be reproduced EXACTLY — `==` on
// doubles, no tolerance.  The RNG stream layout (named streams, draw
// order, per-node skew/stagger draws) is part of the public determinism
// contract; any change that shifts a single draw shows up here first.
//
// Windows are short (5 s) so the whole suite stays cheap; the values
// cover both TDMA variants, both apps, both fidelities, per-node
// snapshots, a two-cell coexistence run and crash/reboot under all four
// MAC protocols.
#include <gtest/gtest.h>

#include "core/bansim.hpp"
#include "core/paper_experiments.hpp"

namespace bansim::core {
namespace {

using sim::Duration;
using sim::TimePoint;

ScenarioResult run_golden(BanConfig config, Fidelity fidelity) {
  config.fidelity = fidelity;
  MeasurementProtocol protocol;
  protocol.measure = Duration::seconds(5);
  return run_scenario(config, protocol);
}

struct GoldenRow {
  double radio_mj;
  double mcu_mj;
  double asic_mj;
  std::uint64_t packets;
};

void expect_row(const ScenarioResult& r, const GoldenRow& want) {
  EXPECT_TRUE(r.joined);
  EXPECT_EQ(r.radio_mj, want.radio_mj);
  EXPECT_EQ(r.mcu_mj, want.mcu_mj);
  EXPECT_EQ(r.asic_mj, want.asic_mj);
  EXPECT_EQ(r.data_packets, want.packets);
}

TEST(GoldenEnergy, EcgStatic30) {
  PaperSetup setup;
  const BanConfig cfg =
      streaming_static_config(setup, Duration::milliseconds(30));
  expect_row(run_golden(cfg, Fidelity::kReference),
             {35.626988186675206, 14.013109779087998, 52.500000000000007,
              167});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {38.057575936889599, 13.625614309999998, 52.500000000000007,
              166});
}

TEST(GoldenEnergy, EcgDynamic5Slots) {
  PaperSetup setup;
  const BanConfig cfg = streaming_dynamic_config(setup, 5);
  expect_row(run_golden(cfg, Fidelity::kReference),
             {18.791883681983997, 11.627069907824001, 52.500000000000007,
              84});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {19.883508915199993, 11.433161250000003, 52.500000000000007,
              84});
}

TEST(GoldenEnergy, RpeakStatic120) {
  PaperSetup setup;
  const BanConfig cfg = rpeak_static_config(setup, Duration::milliseconds(120));
  expect_row(run_golden(cfg, Fidelity::kReference),
             {9.4124740137567944, 14.061014718519999, 52.500000000000007, 12});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {7.9129459098816, 13.73884498, 52.500000000000007, 12});
}

TEST(GoldenEnergy, RpeakDynamic3Slots) {
  PaperSetup setup;
  const BanConfig cfg = rpeak_dynamic_config(setup, 3);
  expect_row(run_golden(cfg, Fidelity::kReference),
             {24.380208638419198, 14.154354884655994, 52.5, 13});
  expect_row(run_golden(cfg, Fidelity::kModel),
             {25.760258508902396, 13.840800890000001, 52.5, 14});
}

TEST(GoldenEnergy, PerNodeSnapshotOfFiveNodeEcgNetwork) {
  PaperSetup setup;
  BanNetwork net{streaming_static_config(setup, Duration::milliseconds(30))};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::seconds(1),
                                   TimePoint::zero() + Duration::seconds(30)));
  net.run_until(net.simulator().now() + Duration::seconds(5));

  const struct {
    const char* node;
    double total;
  } want[] = {
      {"node1", 0.1259631816041816},   {"node2", 0.12864915742064681},
      {"node3", 0.12784695463841839},  {"node4", 0.12763253980885519},
      {"node5", 0.12526439082913279},  {"bs", 0.49432756199387679},
  };
  const auto snapshot = net.energy_snapshot();
  ASSERT_EQ(snapshot.size(), 6u);
  for (std::size_t i = 0; i < snapshot.size(); ++i) {
    EXPECT_EQ(snapshot[i].node, want[i].node);
    EXPECT_EQ(snapshot[i].total_joules(), want[i].total) << snapshot[i].node;
  }
  // One fully pinned component split.
  EXPECT_EQ(snapshot[0].component_joules("mcu"), 0.017184053881959999);
  EXPECT_EQ(snapshot[0].component_joules("radio"), 0.044729127722221595);
  EXPECT_EQ(snapshot[0].component_joules("asic"), 0.06405000000000001);
}

TEST(GoldenEnergy, MultiBanCoexistencePerNodeTotals) {
  auto cell = [](std::uint8_t pan, net::NodeId offset, int cycle_ms) {
    BanConfig cfg;
    cfg.num_nodes = 3;
    cfg.tdma =
        mac::TdmaConfig::static_plan(Duration::milliseconds(cycle_ms), 5);
    cfg.tdma.pan_id = pan;
    cfg.address_offset = offset;
    cfg.app = AppKind::kEcgStreaming;
    cfg.streaming.sample_rate_hz = 6000.0 / cycle_ms;
    cfg.seed = 77 + pan;
    return cfg;
  };
  BanNetwork net{{cell(1, 0, 30), cell(2, 100, 60)}};
  net.start();
  ASSERT_TRUE(net.run_until_joined(Duration::milliseconds(500),
                                   TimePoint::zero() + Duration::seconds(30)));
  net.run_until(net.simulator().now() + Duration::seconds(5));

  const double want[2][3] = {
      {0.17318972373117802, 0.17163197963310001, 0.17270097465688483},
      {0.22684708000117521, 0.22731155495588118, 0.22562166905933756},
  };
  ASSERT_EQ(net.num_cells(), 2u);
  for (std::size_t c = 0; c < net.num_cells(); ++c) {
    ASSERT_EQ(net.cell(c).num_nodes(), 3u);
    for (std::size_t i = 0; i < net.cell(c).num_nodes(); ++i) {
      double total = 0;
      for (const auto& comp :
           net.cell(c).node(i).board().breakdown(net.simulator().now())) {
        total += comp.joules;
      }
      EXPECT_EQ(total, want[c][i]) << "cell" << c << " node" << i;
    }
  }
}

// The roster is the refactor's new surface: an all-default roster of the
// same length must compose a bit-identical network to the homogeneous
// config (same streams drawn in the same order).
TEST(GoldenEnergy, AllDefaultRosterIsBitIdenticalToHomogeneous) {
  PaperSetup setup;
  BanConfig cfg = streaming_static_config(setup, Duration::milliseconds(30));
  cfg.roster.resize(cfg.num_nodes);  // explicit, all-default roster
  expect_row(run_golden(cfg, Fidelity::kReference),
             {35.626988186675206, 14.013109779087998, 52.500000000000007,
              167});
}

// --- Crash/reboot -----------------------------------------------------------
//
// The modelled fault path: node2 crashes at 0.8 s and reboots at 1.2 s, and
// every per-component, per-state joule of the whole cell at 2 s is pinned
// for all four MAC protocols.

std::vector<double> flatten_energies(const BanNetwork& network) {
  std::vector<double> flat;
  for (const auto& n : network.energy_snapshot()) {
    for (const auto& c : n.components) {
      flat.push_back(c.joules);
      for (const auto& [state, joules] : c.per_state) flat.push_back(joules);
    }
  }
  return flat;
}

std::vector<double> run_with_crash(const BanConfig& config) {
  BanNetwork network{config};
  network.start();
  mac::NodeMacBase& victim = network.node(1).mac_base();
  network.simulator().schedule_at(
      TimePoint::zero() + Duration::milliseconds(800),
      [&victim] { victim.crash(); });
  network.simulator().schedule_at(
      TimePoint::zero() + Duration::milliseconds(1200),
      [&victim] { victim.reboot(); });
  network.run_until(TimePoint::zero() + Duration::seconds(2));
  EXPECT_EQ(victim.stats_snapshot().crashes, 1u);
  EXPECT_EQ(victim.stats_snapshot().reboots, 1u);
  return flatten_energies(network);
}

TEST(GoldenEnergy, CrashRebootStaticTdma) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 41;
  EXPECT_EQ(run_with_crash(cfg), (std::vector<double>{
      0.0056219865077599997, 0.0028746067280000002, 0.0027473797797599999, 0,
      0, 0.0104391913940328, 3.7187175199999997e-08, 6.127773845759999e-05,
      1.0079999999999999e-07, 9.1280000000000014e-06, 0.00031745996800000001,
      0.00039564627199999998, 0.00047729852799999997, 0.0086206069963999984,
      0.00055763590399999987, 0.021000000000000001, 0.021000000000000001,
      0.0055993096673919995, 0.0028407606976000002, 0.0027585489697919997, 0,
      0, 0.013114928993445999, 1.1528966092e-06, 4.6584952948799996e-05,
      2.0159999999999998e-07, 6.6080000000000001e-06, 0.00023809497599999998,
      0.000288385664, 0.00039306937599999998, 0.011692721319887998,
      0.00044811020799999997, 0.021000000000000001, 0.021000000000000001,
      0.0056050838978399997, 0.0028493789520000002, 0.0027557049458399995, 0,
      0, 0.010972488697822398, 1.9169236800000001e-08,
      6.1224718497599994e-05, 1.0079999999999999e-07, 9.4192000000000012e-06,
      0.00032738059199999997, 0.00040821894399999998, 0.00047729852799999997,
      0.0091311908420879974, 0.00055763590399999987, 0.021000000000000001,
      0.021000000000000001, 0.0056023448628000003, 0.00284529084,
      0.0027570540227999998, 0, 0, 0.011172462621748399,
      2.0159039600000001e-08, 6.1144660348799997e-05, 1.0079999999999999e-07,
      8.6464000000000008e-06, 0.00030753934399999999, 0.00037639436799999999,
      0.00049133671999999993, 0.0093696442663599982, 0.00055763590399999987,
      0.021000000000000001, 0.021000000000000001, 0.0038817874463199994,
      0.00027729469600000002, 0.0036044927503199996, 0, 0,
      0.13770486247656319, 0, 5.41760352e-08, 1.0079999999999999e-07,
      1.2152e-05, 0.00038690433600000005, 0.000518229824,
      0.00054748948799999996, 0.134562020428528, 0.0016779114239999999,
      0.021000000000000001, 0.021000000000000001
  }));
}

TEST(GoldenEnergy, CrashRebootDynamicTdma) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 42;
  cfg.tdma.variant = mac::TdmaVariant::kDynamic;
  cfg.tdma.max_slots = 0;
  EXPECT_EQ(run_with_crash(cfg), (std::vector<double>{
      0.0056709765105839999, 0.0029477261352000004, 0.0027232503753839999, 0,
      0, 0.010474075529091999, 7.2377754400000002e-08,
      6.0758819721599996e-05, 1.0079999999999999e-07, 1.11664e-05,
      0.00038690433600000005, 0.00048365497599999998, 0.00057556587199999998,
      0.008327052139615999, 0.0006287998079999999, 0.021000000000000001,
      0.021000000000000001, 0.00559604317244, 0.0028358853320000002,
      0.0027601578404400002, 0, 0, 0.010268091041149199,
      1.1342185876000001e-06, 4.8106676049599999e-05, 2.0159999999999998e-07,
      8.6464000000000008e-06, 0.00030753934399999999, 0.00037639436799999999,
      0.00050537491199999999, 0.0084847403705119988, 0.00053595315199999986,
      0.021000000000000001, 0.021000000000000001, 0.0056241698490880005,
      0.0028778654464000006, 0.0027463044026879999, 0, 0,
      0.0091570778788663994, 2.7073608799999999e-08, 6.1928394729600006e-05,
      1.0079999999999999e-07, 1.14576e-05, 0.00039682496000000001,
      0.00049622764799999992, 0.000603642256, 0.0069336067465279993,
      0.00065326239999999997, 0.021000000000000001, 0.021000000000000001,
      0.005611695383336, 0.0028592468408000001, 0.0027524485425359999, 0, 0,
      0.010269245363972, 1.1722653599999999e-08, 6.1574715854399999e-05,
      1.0079999999999999e-07, 1.14576e-05, 0.00039682496000000001,
      0.00049622764799999992, 0.00061768044799999995, 0.0080454483014639998,
      0.00063991916799999995, 0.021000000000000001, 0.021000000000000001,
      0.0039241951879759995, 0.0003405898328, 0.0035836053551759998, 0, 0,
      0.13751459473839359, 0, 6.8558649599999993e-08, 1.0079999999999999e-07,
      1.3966400000000001e-05, 0.00047618995199999995, 0.00060309535999999997,
      0.00067383321599999988, 0.133626322531744, 0.0021210179199999996,
      0.021000000000000001, 0.021000000000000001
  }));
}

TEST(GoldenEnergy, CrashRebootCsmaCa) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 43;
  cfg.mac = MacKind::kCsmaCa;
  EXPECT_EQ(run_with_crash(cfg), (std::vector<double>{
      0.0057498488183920001, 0.0030654459976, 0.0026844028207919997, 0, 0,
      0.038255543116109202, 4.0599470800000003e-08, 4.6945960118399998e-05,
      1.0079999999999999e-07, 3.0576e-05, 0.0010416655199999999,
      0.00132013056, 0.0038511899190239998, 0.030977494589495998,
      0.00098739916799999989, 0.021000000000000001, 0.021000000000000001,
      0.0056773623132800001, 0.0029572571840000002, 0.0027201051292799999, 0,
      0, 0.0284490158628984, 1.1474613752000001e-06, 3.8709711499200002e-05,
      2.0159999999999998e-07, 2.0092799999999998e-05, 0.00068452305600000003,
      0.00086751436800000005, 0.0026860158132639999, 0.023394280307103998,
      0.00075653074565599999, 0.021000000000000001, 0.021000000000000001,
      0.0057298838523360002, 0.0030356475408000001, 0.0026942363115359997, 0,
      0, 0.03729921041687119, 2.6583508e-08, 4.7645021995200002e-05,
      1.0079999999999999e-07, 2.8828800000000004e-05, 0.00098214177600000011,
      0.001244694528, 0.0036827364797439996, 0.030312294027623993,
      0.0010007423999999999, 0.021000000000000001, 0.021000000000000001,
      0.0057380092960959998, 0.0030477750687999999, 0.0026902342272959998, 0,
      0, 0.036853964966739199, 3.4268079999999999e-08,
      4.7756770891199997e-05, 1.0079999999999999e-07, 2.9120000000000002e-05,
      0.00099206240000000007, 0.0012572671999999999, 0.0037246694626959995,
      0.029824450385071997, 0.00097850367999999981, 0.021000000000000001,
      0.021000000000000001, 0.0041639381427279994, 0.00069841513840000009,
      0.0034655230043279996, 0, 0, 0.13429274818075199, 0, 1.06785672e-07,
      1.0079999999999999e-07, 3.9827200000000004e-05, 0.003412694656,
      0.00220807552, 0.004829138048, 0.11979872363508, 0.0040040815359999992,
      0.021000000000000001, 0.021000000000000001
  }));
}

TEST(GoldenEnergy, CrashRebootAloha) {
  BanConfig cfg;
  cfg.num_nodes = 4;
  cfg.seed = 44;
  cfg.mac = MacKind::kAloha;
  EXPECT_EQ(run_with_crash(cfg), (std::vector<double>{
      0.0056916535049360006, 0.0029785873208000003, 0.0027130661841359999, 0,
      0, 0.011107010654546799, 5.1031313200000003e-08, 5.99301385536e-05,
      1.0079999999999999e-07, 3.1158400000000003e-05, 0.001061506768,
      0.001345275904, 0.0015020865439999999, 0.0068000067326799991,
      0.00030689433600000001, 0.021000000000000001, 0.021000000000000001,
      0.0056816053900480001, 0.0029635901344000006, 0.002718015255648, 0, 0,
      0.010131248421142798, 1.1738536404000002e-06, 4.6923792014399998e-05,
      2.0159999999999998e-07, 2.8537600000000003e-05, 0.00097222115199999994,
      0.0012321218560000001, 0.0013757428159999999, 0.0062296998314879991,
      0.00024462591999999995, 0.021000000000000001, 0.021000000000000001,
      0.0057045305152640001, 0.0029978067392000003, 0.0027067237760639998, 0,
      0, 0.016303116306453196, 2.2898106000000002e-08,
      5.7333865579199999e-05, 1.0079999999999999e-07, 4.1932800000000006e-05,
      0.001428569856, 0.0018104647679999999, 0.002021499648,
      0.010614058614767998, 0.000329133056, 0.021000000000000001,
      0.021000000000000001, 0.0057729233932720002, 0.0030998856616000002,
      0.002673037731672, 0, 0, 0.0140965584256336, 1.0787807520000001e-07,
      5.7551507126400001e-05, 1.0079999999999999e-07, 3.7564800000000003e-05,
      0.001279760496, 0.001621874688, 0.0018109267679999998,
      0.008990672640431999, 0.00029799884799999997, 0.021000000000000001,
      0.021000000000000001, 0.00090314473090576, 0.00090211494240000003, 0,
      0, 1.0297885057599999e-06, 0.13542689215999998, 0, 0,
      1.0079999999999999e-07, 2.79552e-05, 0.0030952346880000004,
      0.0017161697279999999, 0.0043939540959999999, 0.12168346523199998,
      0.0045100124159999999, 0.021000000000000001, 0.021000000000000001
  }));
}

}  // namespace
}  // namespace bansim::core
