#include "core/config_io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "check/scenario_fuzzer.hpp"
#include "core/experiment.hpp"
#include "core/paper_experiments.hpp"

namespace bansim::core {
namespace {

using namespace bansim::sim::literals;

TEST(ConfigIo, ParsesFullScenario) {
  const BanConfig cfg = parse_config(R"(
    ; the paper's Table 1 first row
    [network]
    nodes = 5
    seed = 42
    app = ecg_streaming

    [tdma]
    variant = static
    max_slots = 5
    cycle_ms = 30
    ack_data = true
    fast_grant = false

    [streaming]
    sample_rate_hz = 205
  )");
  EXPECT_EQ(cfg.num_nodes, 5u);
  EXPECT_EQ(cfg.seed, 42u);
  EXPECT_EQ(cfg.app, AppKind::kEcgStreaming);
  EXPECT_EQ(cfg.tdma.variant, mac::TdmaVariant::kStatic);
  EXPECT_EQ(cfg.tdma.static_cycle(), 30_ms);
  EXPECT_EQ(cfg.tdma.slot, 5_ms);
  EXPECT_TRUE(cfg.tdma.ack_data);
  EXPECT_FALSE(cfg.tdma.fast_grant);
  EXPECT_DOUBLE_EQ(cfg.streaming.sample_rate_hz, 205.0);
}

TEST(ConfigIo, ParsesDynamicAndLink) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    app = rpeak
    [tdma]
    variant = dynamic
    slot_ms = 10
    radio_power_down = on
    [link]
    enabled = yes
    tx_power_dbm = -12.5
  )");
  EXPECT_EQ(cfg.tdma.variant, mac::TdmaVariant::kDynamic);
  EXPECT_EQ(cfg.tdma.slot, 10_ms);
  EXPECT_TRUE(cfg.tdma.radio_power_down);
  EXPECT_TRUE(cfg.use_link_model);
  EXPECT_DOUBLE_EQ(cfg.link_budget.tx_power_dbm, -12.5);
  EXPECT_EQ(cfg.app, AppKind::kRpeak);
}

TEST(ConfigIo, EegKeysCoupleChannelCounts) {
  const BanConfig cfg = parse_config(R"(
    [network]
    app = eeg_monitoring
    [eeg]
    channels = 12
    sample_rate_hz = 128
    block_samples = 32
  )");
  EXPECT_EQ(cfg.app, AppKind::kEegMonitoring);
  EXPECT_EQ(cfg.eeg.channels, 12u);
  EXPECT_EQ(cfg.eeg_signal.channels, 12u);
  EXPECT_DOUBLE_EQ(cfg.eeg.sample_rate_hz, 128.0);
  EXPECT_EQ(cfg.eeg.block_samples, 32u);
}

TEST(ConfigIo, UnknownKeyIsAnError) {
  EXPECT_THROW(parse_config("[network]\nnods = 5\n"), ConfigError);
  EXPECT_THROW(parse_config("[nonsense]\nnodes = 5\n"), ConfigError);
}

TEST(ConfigIo, MalformedValuesAreErrors) {
  EXPECT_THROW(parse_config("[network]\nnodes = five\n"), ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nack_data = maybe\n"), ConfigError);
  EXPECT_THROW(parse_config("[network]\napp = tetris\n"), ConfigError);
  EXPECT_THROW(parse_config("[network\nnodes = 5\n"), ConfigError);
  EXPECT_THROW(parse_config("nodes 5\n"), ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nmax_slots = 260\n"), ConfigError);
  EXPECT_THROW(parse_config("[network]\nnodes = -3\n"), ConfigError);
  EXPECT_THROW(parse_config("[tdma]\ntx_queue_cap = -1\n"), ConfigError);
  EXPECT_THROW(parse_config("[node.1]\naddress = 65537\n"), ConfigError);
}

TEST(ConfigIo, IntegerErrorsNameTheKeyAndValue) {
  const std::pair<const char*, const char*> cases[] = {
      {"[tdma]\nmax_slots = 260\n", "tdma.max_slots: 260"},
      {"[network]\nnodes = -3\n", "network.nodes: -3"},
      {"[tdma]\ntx_queue_cap = -1\n", "tdma.tx_queue_cap: -1"},
      {"[node.1]\naddress = 65537\n", "node.1.address: 65537"},
      {"[network]\nseed = 18446744073709551616\n",
       "network.seed: 18446744073709551616"},
  };
  for (const auto& [text, named] : cases) {
    try {
      (void)parse_config(text);
      ADD_FAILURE() << "expected ConfigError for " << text;
    } catch (const ConfigError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(named), std::string::npos) << what;
      EXPECT_NE(what.find("line 2"), std::string::npos) << what;
    }
  }
}

TEST(ConfigIo, SeedsSpanTheFullUint64Range) {
  // Population patient seeds are 64-bit hashes.
  EXPECT_EQ(parse_config("[network]\nseed = 0x9E3779B97F4A7C15\n").seed,
            0x9E3779B97F4A7C15u);
  for (const std::uint64_t seed :
       {std::uint64_t{0x9E3779B97F4A7C15}, UINT64_MAX}) {
    BanConfig cfg;
    cfg.seed = seed;
    EXPECT_EQ(parse_config(serialize_config(cfg)).seed, seed);
  }
}

TEST(ConfigIo, PanIdAndAddressOffsetRoundTrip) {
  BanConfig cfg;
  cfg.tdma.pan_id = 3;
  cfg.address_offset = 0x40;
  const BanConfig back = parse_config(serialize_config(cfg));
  EXPECT_EQ(back.tdma.pan_id, 3);
  EXPECT_EQ(back.address_offset, 0x40);
  // Both stay out of the text at their defaults.
  const std::string plain = serialize_config(BanConfig{});
  EXPECT_EQ(plain.find("pan_id"), std::string::npos);
  EXPECT_EQ(plain.find("address_offset"), std::string::npos);
  EXPECT_THROW(parse_config("[tdma]\npan_id = 256\n"), ConfigError);
}

TEST(ConfigIo, CycleChangeKeepsOtherTdmaFields) {
  BanConfig cfg = parse_config(R"(
    [tdma]
    variant = static
    max_slots = 5
    cycle_ms = 30
    max_retries = 6
    guard_fraction = 0.02
    tx_queue_cap = 3
    pan_id = 2
  )");
  EXPECT_EQ(cfg.tdma.slot, 5_ms);
  cfg.tdma.set_static_cycle(60_ms);
  EXPECT_EQ(cfg.tdma.slot, 10_ms);
  EXPECT_EQ(cfg.tdma.static_cycle(), 60_ms);
  EXPECT_EQ(cfg.tdma.max_slots, 5);
  EXPECT_EQ(cfg.tdma.max_retries, 6);
  EXPECT_DOUBLE_EQ(cfg.tdma.guard_fraction, 0.02);
  EXPECT_EQ(cfg.tdma.tx_queue_cap, 3u);
  EXPECT_EQ(cfg.tdma.pan_id, 2);
}

TEST(ConfigIo, CommentsAndWhitespaceTolerated) {
  const BanConfig cfg = parse_config(
      "  [network]   # section\n"
      "   nodes=2;inline\n"
      "\n"
      "# full-line comment\n");
  EXPECT_EQ(cfg.num_nodes, 2u);
}

TEST(ConfigIo, SerializeParseRoundTrip) {
  BanConfig original;
  original.num_nodes = 4;
  original.seed = 99;
  original.app = AppKind::kRpeak;
  original.tdma = mac::TdmaConfig::dynamic_plan();
  original.tdma.ack_data = true;
  original.tdma.radio_power_down = true;
  original.use_link_model = true;
  original.link_budget.tx_power_dbm = -10.0;

  const BanConfig back = parse_config(serialize_config(original));
  EXPECT_EQ(back.num_nodes, original.num_nodes);
  EXPECT_EQ(back.seed, original.seed);
  EXPECT_EQ(back.app, original.app);
  EXPECT_EQ(back.tdma.variant, original.tdma.variant);
  EXPECT_EQ(back.tdma.slot, original.tdma.slot);
  EXPECT_EQ(back.tdma.ack_data, original.tdma.ack_data);
  EXPECT_EQ(back.tdma.radio_power_down, original.tdma.radio_power_down);
  EXPECT_EQ(back.use_link_model, original.use_link_model);
  EXPECT_DOUBLE_EQ(back.link_budget.tx_power_dbm,
                   original.link_budget.tx_power_dbm);
}

TEST(ConfigIo, EnumParsersNameTheOffendingToken) {
  EXPECT_EQ(parse_app_kind("rpeak"), AppKind::kRpeak);
  EXPECT_EQ(parse_tdma_variant("dynamic"), mac::TdmaVariant::kDynamic);
  EXPECT_EQ(parse_fidelity("model"), Fidelity::kModel);
  try {
    (void)parse_app_kind("ecg_streamign");
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string{e.what()}.find("ecg_streamign"), std::string::npos);
  }
  // The CLI historically coerced any non-"dynamic" token to static; the
  // shared parser must reject typos instead.
  EXPECT_THROW((void)parse_tdma_variant("statik"), ConfigError);
  EXPECT_THROW((void)parse_fidelity("reel"), ConfigError);
}

TEST(ConfigIo, NodeSectionsFillTheRoster) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 4
    app = ecg_streaming
    [node.2]
    app = rpeak
    rpeak.sample_rate_hz = 250
    boot_ms = 3
    [node.3]
    clock_skew = -1e-4
    fidelity = model
  )");
  ASSERT_EQ(cfg.roster.size(), 4u);
  EXPECT_EQ(cfg.effective_nodes(), 4u);
  EXPECT_FALSE(cfg.roster[0].app.has_value());  // inherits the default
  ASSERT_TRUE(cfg.roster[1].app.has_value());
  EXPECT_EQ(*cfg.roster[1].app, AppKind::kRpeak);
  ASSERT_TRUE(cfg.roster[1].rpeak.has_value());
  EXPECT_DOUBLE_EQ(cfg.roster[1].rpeak->sample_rate_hz, 250.0);
  ASSERT_TRUE(cfg.roster[1].boot_offset.has_value());
  EXPECT_EQ(*cfg.roster[1].boot_offset, 3_ms);
  ASSERT_TRUE(cfg.roster[2].clock_skew.has_value());
  EXPECT_DOUBLE_EQ(*cfg.roster[2].clock_skew, -1e-4);
  ASSERT_TRUE(cfg.roster[2].fidelity.has_value());
  EXPECT_EQ(*cfg.roster[2].fidelity, Fidelity::kModel);
}

TEST(ConfigIo, RosterLengthFromLargestIndexWithoutExplicitNodes) {
  const BanConfig cfg = parse_config("[node.3]\napp = rpeak\n");
  EXPECT_EQ(cfg.roster.size(), 3u);
  EXPECT_EQ(cfg.effective_nodes(), 3u);
}

TEST(ConfigIo, NodeIndexBeyondExplicitCountIsAnError) {
  EXPECT_THROW(parse_config("[network]\nnodes = 2\n[node.5]\napp = rpeak\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[node.0]\napp = rpeak\n"), ConfigError);
  EXPECT_THROW(parse_config("[node.x]\napp = rpeak\n"), ConfigError);
  EXPECT_THROW(parse_config("[node.1]\nbogus_key = 1\n"), ConfigError);
}

TEST(ConfigIo, RosterRoundTrip) {
  BanConfig original;
  original.num_nodes = 3;
  original.seed = 7;
  original.roster.resize(3);
  original.roster[1].app = AppKind::kRpeak;
  original.roster[1].rpeak = original.rpeak;
  original.roster[1].rpeak->sample_rate_hz = 300.0;
  original.roster[2].clock_skew = 2.5e-5;
  original.roster[2].boot_offset = sim::Duration::milliseconds(7);
  original.roster[2].fidelity = Fidelity::kModel;

  const BanConfig back = parse_config(serialize_config(original));
  ASSERT_EQ(back.roster.size(), 3u);
  EXPECT_FALSE(back.roster[0].app.has_value());
  ASSERT_TRUE(back.roster[1].app.has_value());
  EXPECT_EQ(*back.roster[1].app, AppKind::kRpeak);
  ASSERT_TRUE(back.roster[1].rpeak.has_value());
  EXPECT_DOUBLE_EQ(back.roster[1].rpeak->sample_rate_hz, 300.0);
  ASSERT_TRUE(back.roster[2].clock_skew.has_value());
  EXPECT_DOUBLE_EQ(*back.roster[2].clock_skew, 2.5e-5);
  ASSERT_TRUE(back.roster[2].boot_offset.has_value());
  EXPECT_EQ(*back.roster[2].boot_offset, 7_ms);
  ASSERT_TRUE(back.roster[2].fidelity.has_value());
  EXPECT_EQ(*back.roster[2].fidelity, Fidelity::kModel);
}

TEST(ConfigIo, ParsedConfigActuallyRuns) {
  BanConfig cfg = parse_config(R"(
    [network]
    nodes = 2
    app = ecg_streaming
    [tdma]
    variant = static
    max_slots = 5
    cycle_ms = 60
    [streaming]
    sample_rate_hz = 100
  )");
  MeasurementProtocol protocol;
  protocol.measure = sim::Duration::seconds(5);
  const ScenarioResult r = run_scenario(cfg, protocol);
  EXPECT_TRUE(r.joined);
  EXPECT_GT(r.data_packets, 50u);
}

TEST(ConfigIo, TdmaValidationHardErrors) {
  // ack_data with zero retries abandons every payload on the first lost
  // ACK — a config that silently delivers nothing must not parse.
  EXPECT_THROW(parse_config("[tdma]\nack_data = true\nmax_retries = 0\n"),
               ConfigError);
  // A zero-capacity TX queue drops every payload before transmission.
  EXPECT_THROW(parse_config("[tdma]\ntx_queue_cap = 0\n"), ConfigError);
  // Reclaiming at or before the dead-reckoning limit regrants a slot the
  // owner may still legally transmit in.
  EXPECT_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                            "reclaim_after_cycles = 4\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                            "reclaim_after_cycles = 3\n"),
               ConfigError);
  // Bounded search needs a sane backoff progression.
  EXPECT_THROW(parse_config("[tdma]\nsearch_listen_ms = 100\n"
                            "search_backoff_factor = 0.5\n"),
               ConfigError);
  EXPECT_THROW(parse_config("[tdma]\nsearch_listen_ms = 100\n"
                            "search_backoff_base_ms = 50\n"
                            "search_backoff_max_ms = 10\n"),
               ConfigError);
  // The boundary cases that must still parse.
  EXPECT_NO_THROW(parse_config("[tdma]\nack_data = true\nmax_retries = 1\n"));
  EXPECT_NO_THROW(parse_config("[tdma]\nmissed_beacon_limit = 4\n"
                               "reclaim_after_cycles = 5\n"));
  EXPECT_NO_THROW(parse_config("[tdma]\nreclaim_after_cycles = 0\n"));
}

TEST(ConfigIo, FaultSectionsParse) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    [fault]
    enabled = true
    [fault.fade]
    enabled = true
    p_enter = 0.03
    p_exit = 0.25
    step_ms = 4
    extra_loss_db = 15
    fer = 0.7
    [fault.interferer]
    enabled = true
    period_ms = 120
    burst_ms = 4
    fer = 0.4
    [fault.crashes]
    enabled = true
    rate_hz = 0.1
    min_down_ms = 150
    max_down_ms = 900
    [fault.brownout]
    enabled = true
    capacity_mah = 0.05
    esr_ohms = 80
    brownout_volts = 3.7
    [fault.episode.1]
    node = 2
    start_ms = 3000
    duration_ms = 1500
    extra_loss_db = 22
    fer = 0.5
    [fault.event.1]
    kind = crash
    node = 1
    at_ms = 5000
    down_ms = 700
    [fault.event.2]
    kind = skew_step
    node = 3
    at_ms = 8000
    skew_delta = -0.001
  )");
  const fault::FaultPlan& plan = cfg.fault_plan;
  ASSERT_TRUE(plan.enabled);
  EXPECT_TRUE(plan.fade.enabled);
  EXPECT_DOUBLE_EQ(plan.fade.p_enter, 0.03);
  EXPECT_DOUBLE_EQ(plan.fade.p_exit, 0.25);
  EXPECT_EQ(plan.fade.step, 4_ms);
  EXPECT_DOUBLE_EQ(plan.fade.extra_loss_db, 15.0);
  EXPECT_DOUBLE_EQ(plan.fade.fer, 0.7);
  EXPECT_TRUE(plan.interferer.enabled);
  EXPECT_EQ(plan.interferer.period, 120_ms);
  EXPECT_EQ(plan.interferer.burst, 4_ms);
  EXPECT_TRUE(plan.crashes.enabled);
  EXPECT_DOUBLE_EQ(plan.crashes.rate_hz, 0.1);
  EXPECT_EQ(plan.crashes.min_down, 150_ms);
  EXPECT_EQ(plan.crashes.max_down, 900_ms);
  EXPECT_TRUE(plan.brownout.enabled);
  EXPECT_DOUBLE_EQ(plan.brownout.capacity_mah, 0.05);
  ASSERT_EQ(plan.episodes.size(), 1u);
  EXPECT_EQ(plan.episodes[0].node, 2u);
  EXPECT_EQ(plan.episodes[0].start, sim::TimePoint::zero() + 3_s);
  EXPECT_EQ(plan.episodes[0].duration, 1500_ms);
  ASSERT_EQ(plan.events.size(), 2u);
  EXPECT_EQ(plan.events[0].kind, fault::FaultKind::kCrash);
  EXPECT_EQ(plan.events[0].node, 1u);
  EXPECT_EQ(plan.events[0].down, 700_ms);
  EXPECT_EQ(plan.events[1].kind, fault::FaultKind::kSkewStep);
  EXPECT_DOUBLE_EQ(plan.events[1].skew_delta, -0.001);
}

TEST(ConfigIo, FaultPlanRoundTripsAndDisabledStaysSilent) {
  // A plan-free config serializes without any [fault sections at all.
  BanConfig plain;
  EXPECT_EQ(serialize_config(plain).find("[fault"), std::string::npos);

  BanConfig cfg;
  cfg.fault_plan.enabled = true;
  cfg.fault_plan.fade.enabled = true;
  cfg.fault_plan.fade.fer = 0.8;
  fault::ShadowEpisode ep;
  ep.node = 1;
  ep.start = sim::TimePoint::zero() + 2_s;
  cfg.fault_plan.episodes.push_back(ep);
  fault::FaultEvent ev;
  ev.kind = fault::FaultKind::kRadioLockup;
  ev.node = 2;
  ev.at = sim::TimePoint::zero() + 4_s;
  cfg.fault_plan.events.push_back(ev);

  const BanConfig round = parse_config(serialize_config(cfg));
  EXPECT_TRUE(round.fault_plan.enabled);
  EXPECT_TRUE(round.fault_plan.fade.enabled);
  EXPECT_DOUBLE_EQ(round.fault_plan.fade.fer, 0.8);
  ASSERT_EQ(round.fault_plan.episodes.size(), 1u);
  EXPECT_EQ(round.fault_plan.episodes[0].node, 1u);
  ASSERT_EQ(round.fault_plan.events.size(), 1u);
  EXPECT_EQ(round.fault_plan.events[0].kind, fault::FaultKind::kRadioLockup);
  EXPECT_EQ(round.fault_plan.events[0].at, sim::TimePoint::zero() + 4_s);
}

TEST(ConfigIo, FaultValidationErrors) {
  // Probabilities outside [0, 1].
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.fade]\nenabled = true\np_enter = 1.5\n"),
               ConfigError);
  // Interferer burst longer than its period.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.interferer]\nenabled = true\n"
                            "period_ms = 10\nburst_ms = 20\n"),
               ConfigError);
  // Scripted events address nodes 1-based; 0 is reserved for "all" in
  // episodes only.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.event.1]\nkind = crash\nnode = 0\n"),
               ConfigError);
  // Crash churn with an inverted down-time window.
  EXPECT_THROW(parse_config("[fault]\nenabled = true\n"
                            "[fault.crashes]\nenabled = true\n"
                            "min_down_ms = 500\nmax_down_ms = 100\n"),
               ConfigError);
  // Indexed sections are 1-based.
  EXPECT_THROW(parse_config("[fault.episode.0]\nnode = 1\n"), ConfigError);
  // Unknown fault keys are hard errors like everywhere else.
  EXPECT_THROW(parse_config("[fault.fade]\nspeed = 9\n"), ConfigError);
}

TEST(ConfigIo, StorageSectionsParse) {
  const BanConfig cfg = parse_config(R"(
    [network]
    nodes = 3
    [storage]
    enabled = true
    kind = battery
    check_ms = 50
    [battery]
    capacity_mah = 40
    nominal_volts = 3.1
    full_volts = 4.1
    empty_volts = 3.2
    dead_volts = 2.6
    rated_c = 2
    peukert_exponent = 1.2
    [harvest]
    enabled = true
    profile = square
    watts = 0.004
    floor_watts = 0.0005
    period_ms = 1200
    duty = 0.4
    phase_ms = 100
    [node.2]
    storage.kind = capacitor
    capacitor.capacitance_f = 0.05
    [node.3]
    storage.enabled = false
  )");
  const hw::StorageParams& s = cfg.storage;
  ASSERT_TRUE(s.enabled);
  EXPECT_EQ(s.kind, hw::StorageKind::kBattery);
  EXPECT_EQ(s.check, 50_ms);
  EXPECT_DOUBLE_EQ(s.battery.capacity_mah, 40.0);
  EXPECT_DOUBLE_EQ(s.battery.nominal_volts, 3.1);
  EXPECT_DOUBLE_EQ(s.battery.full_volts, 4.1);
  EXPECT_DOUBLE_EQ(s.battery.empty_volts, 3.2);
  EXPECT_DOUBLE_EQ(s.battery.dead_volts, 2.6);
  EXPECT_DOUBLE_EQ(s.battery.rated_c, 2.0);
  EXPECT_DOUBLE_EQ(s.battery.peukert_exponent, 1.2);
  ASSERT_TRUE(s.harvest.enabled);
  EXPECT_EQ(s.harvest.profile, hw::HarvestParams::Profile::kSquare);
  EXPECT_DOUBLE_EQ(s.harvest.watts, 0.004);
  EXPECT_DOUBLE_EQ(s.harvest.floor_watts, 0.0005);
  EXPECT_EQ(s.harvest.period, 1200_ms);
  EXPECT_DOUBLE_EQ(s.harvest.duty, 0.4);
  EXPECT_EQ(s.harvest.phase, 100_ms);
  // Per-node overrides inherit the globals they do not name.
  ASSERT_EQ(cfg.roster.size(), 3u);
  EXPECT_FALSE(cfg.roster[0].storage.has_value());  // pure global
  ASSERT_TRUE(cfg.roster[1].storage.has_value());
  EXPECT_EQ(cfg.roster[1].storage->kind, hw::StorageKind::kCapacitor);
  EXPECT_DOUBLE_EQ(cfg.roster[1].storage->capacitor.capacitance_farads, 0.05);
  EXPECT_EQ(cfg.roster[1].storage->check, 50_ms);  // inherited
  ASSERT_TRUE(cfg.roster[2].storage.has_value());
  EXPECT_FALSE(cfg.roster[2].storage->enabled);  // bench-supplied node
}

TEST(ConfigIo, StorageRoundTripsAndDisabledStaysSilent) {
  // Storage-free configs serialize without any storage sections at all,
  // byte-compatible with pre-storage builds.
  BanConfig plain;
  const std::string text = serialize_config(plain);
  EXPECT_EQ(text.find("[storage]"), std::string::npos);
  EXPECT_EQ(text.find("[battery]"), std::string::npos);
  EXPECT_EQ(text.find("[harvest]"), std::string::npos);

  BanConfig cfg;
  cfg.storage.enabled = true;
  cfg.storage.kind = hw::StorageKind::kCapacitor;
  cfg.storage.capacitor.capacitance_farads = 0.02;
  cfg.storage.capacitor.turnon_volts = 3.3;
  cfg.storage.check = 25_ms;
  cfg.storage.harvest.enabled = true;
  cfg.storage.harvest.profile = hw::HarvestParams::Profile::kSine;
  cfg.storage.harvest.watts = 0.002;
  cfg.storage.harvest.period = 900_ms;
  cfg.roster.resize(2);
  cfg.num_nodes = 2;
  cfg.roster[1].storage = cfg.storage;
  cfg.roster[1].storage->kind = hw::StorageKind::kBattery;
  cfg.roster[1].storage->battery.capacity_mah = 0.5;

  const BanConfig round = parse_config(serialize_config(cfg));
  ASSERT_TRUE(round.storage.enabled);
  EXPECT_EQ(round.storage.kind, hw::StorageKind::kCapacitor);
  EXPECT_DOUBLE_EQ(round.storage.capacitor.capacitance_farads, 0.02);
  EXPECT_DOUBLE_EQ(round.storage.capacitor.turnon_volts, 3.3);
  EXPECT_EQ(round.storage.check, 25_ms);
  ASSERT_TRUE(round.storage.harvest.enabled);
  EXPECT_EQ(round.storage.harvest.profile, hw::HarvestParams::Profile::kSine);
  EXPECT_DOUBLE_EQ(round.storage.harvest.watts, 0.002);
  EXPECT_EQ(round.storage.harvest.period, 900_ms);
  ASSERT_EQ(round.roster.size(), 2u);
  ASSERT_TRUE(round.roster[1].storage.has_value());
  EXPECT_EQ(round.roster[1].storage->kind, hw::StorageKind::kBattery);
  EXPECT_DOUBLE_EQ(round.roster[1].storage->battery.capacity_mah, 0.5);
}

TEST(ConfigIo, StorageValidationErrors) {
  // Enabled battery with nonsense capacity.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\n"
                            "[battery]\ncapacity_mah = -5\n"),
               ConfigError);
  // Sampling interval must be positive.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\ncheck_ms = 0\n"),
               ConfigError);
  // Capacitor hysteresis thresholds out of order.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\nkind = capacitor\n"
                            "[capacitor]\nturnoff_volts = 4\n"
                            "turnon_volts = 3\n"),
               ConfigError);
  // Sine/square harvest needs a period.
  EXPECT_THROW(parse_config("[storage]\nenabled = true\n"
                            "[harvest]\nenabled = true\nprofile = sine\n"
                            "period_ms = 0\n"),
               ConfigError);
  // Per-node overrides are validated with the node named.
  EXPECT_THROW(parse_config("[network]\nnodes = 2\n"
                            "[node.2]\nstorage.enabled = true\n"
                            "battery.capacity_mah = -1\n"),
               ConfigError);
  // Unknown storage keys are hard errors like everywhere else.
  EXPECT_THROW(parse_config("[storage]\nvolts = 3\n"), ConfigError);
  EXPECT_THROW(parse_config("[harvest]\nprofile = triangle\n"), ConfigError);
}

std::vector<double> energies_after(const BanConfig& config,
                                   sim::Duration horizon) {
  BanNetwork network{config};
  network.start();
  network.run_until(sim::TimePoint::zero() + horizon);
  std::vector<double> flat;
  for (const auto& node : network.energy_snapshot()) {
    for (const auto& component : node.components) {
      flat.push_back(component.joules);
      for (const auto& [state, joules] : component.per_state) {
        flat.push_back(joules);
      }
    }
  }
  return flat;
}

TEST(ConfigIo, FuzzConfigsReplayExactly) {
  // A fuzzer failure dumped as INI must replay the very same cell: the
  // text is a fixpoint of parse + serialize, and the re-parsed config runs
  // to bit-identical per-node energies.
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    SCOPED_TRACE("fuzz seed " + std::to_string(seed));
    const BanConfig original = check::make_fuzz_config(seed);
    const std::string text = serialize_config(original);
    const BanConfig replay = parse_config(text);
    ASSERT_EQ(serialize_config(replay), text);
    EXPECT_EQ(energies_after(replay, 2_s), energies_after(original, 2_s));
  }
}

// --- Golden serialization pins -------------------------------------------
//
// The exact serialize_config text of every config family the repository
// ships or measures, pinned byte-for-byte in tests/golden/config_io/.  A
// deliberate format change regenerates them with
//   BANSIM_UPDATE_GOLDEN=1 build/tests/test_config_io
// and the diff shows up in review.

/// A config that switches on every conditional section the serializer
/// knows: the [mac] section with its protocol's own section, all four
/// [fault.*] sub-sections plus shadowing episodes and one scripted event
/// of each kind, a global store with harvest, and a roster whose nodes
/// override apps, addresses, clocks and storage of the other kind.
BanConfig every_section_config(MacKind mac) {
  using sim::Duration;
  BanConfig c;
  c.num_nodes = 3;
  c.seed = 77;
  c.stagger = 25_ms;
  c.app = AppKind::kRpeak;
  c.mac = mac;
  c.tdma = mac::TdmaConfig::dynamic_plan(Duration::milliseconds(8));
  c.tdma.reclaim_after_cycles = 6;
  c.tdma.missed_beacon_limit = 3;
  c.tdma.search_listen = 150_ms;
  c.tdma.search_backoff_base = 40_ms;
  c.tdma.search_backoff_max = 500_ms;
  c.aloha.ack_data = true;
  c.aloha.max_retries = 4;
  c.aloha.backoff_base = Duration::from_milliseconds(3.5);
  c.csma.cycle = 45_ms;
  c.csma.gts_slots = 1;
  c.csma.gts_slot = 4_ms;
  c.csma.max_be = 4;
  c.csma.ack_data = true;
  c.streaming.sample_rate_hz = 120.5;
  c.use_link_model = true;
  c.link_budget.tx_power_dbm = -7.5;

  fault::FaultPlan& plan = c.fault_plan;
  plan.enabled = true;
  plan.fade.enabled = true;
  plan.fade.p_enter = 0.02;
  plan.fade.p_exit = 0.3;
  plan.fade.step = 5_ms;
  plan.fade.extra_loss_db = 12;
  plan.fade.fer = 0.6;
  plan.interferer.enabled = true;
  plan.interferer.period = 150_ms;
  plan.interferer.burst = 3_ms;
  plan.interferer.fer = 0.5;
  plan.crashes.enabled = true;
  plan.crashes.rate_hz = 0.05;
  plan.crashes.min_down = 200_ms;
  plan.crashes.max_down = 600_ms;
  plan.brownout.enabled = true;
  plan.brownout.capacity_mah = 0.08;
  plan.brownout.esr_ohms = 90;
  plan.brownout.brownout_volts = 3.6;
  plan.brownout.recovery = 800_ms;
  fault::ShadowEpisode all_nodes;
  all_nodes.node = 0;
  all_nodes.start = sim::TimePoint::zero() + 2500_ms;
  all_nodes.duration = 400_ms;
  all_nodes.extra_loss_db = 18;
  all_nodes.fer = 0.25;
  fault::ShadowEpisode one_node = all_nodes;
  one_node.node = 2;
  one_node.start = sim::TimePoint::zero() + 3200_ms;
  plan.episodes = {all_nodes, one_node};
  fault::FaultEvent crash;
  crash.kind = fault::FaultKind::kCrash;
  crash.node = 1;
  crash.at = sim::TimePoint::zero() + 3_s;
  crash.down = 450_ms;
  fault::FaultEvent lockup;
  lockup.kind = fault::FaultKind::kRadioLockup;
  lockup.node = 2;
  lockup.at = sim::TimePoint::zero() + 3500_ms;
  fault::FaultEvent skew;
  skew.kind = fault::FaultKind::kSkewStep;
  skew.node = 3;
  skew.at = sim::TimePoint::zero() + 4_s;
  skew.skew_delta = -5e-4;
  plan.events = {crash, lockup, skew};

  // The global store is a battery on the ALOHA cell and a capacitor on the
  // CSMA/CA cell; node 2 overrides it with the other kind either way.
  hw::StorageParams& storage = c.storage;
  storage.enabled = true;
  storage.check = 50_ms;
  storage.kind = mac == MacKind::kAloha ? hw::StorageKind::kBattery
                                        : hw::StorageKind::kCapacitor;
  storage.battery.capacity_mah = 30;
  storage.battery.rated_c = 2;
  storage.capacitor.capacitance_farads = 0.04;
  storage.capacitor.turnon_volts = 3.4;
  storage.harvest.enabled = true;
  storage.harvest.profile = mac == MacKind::kAloha
                                ? hw::HarvestParams::Profile::kSine
                                : hw::HarvestParams::Profile::kSquare;
  storage.harvest.watts = 0.003;
  storage.harvest.floor_watts = 0.0005;
  storage.harvest.period = 1500_ms;
  storage.harvest.duty = 0.4;
  storage.harvest.phase = 100_ms;

  c.roster.resize(3);
  NodeSpec& first = c.roster[0];
  first.app = AppKind::kEcgStreaming;
  first.address = 0x31;
  first.streaming = c.streaming;
  first.streaming->sample_rate_hz = 250;
  first.streaming->payload_bytes = 20;
  first.ecg = c.ecg;
  first.ecg->heart_rate_bpm = 72;
  NodeSpec& second = c.roster[1];
  second.clock_skew = 1.5e-4;
  second.boot_offset = 4_ms;
  second.fidelity = Fidelity::kModel;
  second.rpeak = c.rpeak;
  second.rpeak->sample_rate_hz = 300;
  second.storage = storage;
  second.storage->kind = mac == MacKind::kAloha ? hw::StorageKind::kCapacitor
                                                : hw::StorageKind::kBattery;
  second.storage->capacitor.capacitance_farads = 0.02;
  second.storage->battery.capacity_mah = 12;
  second.storage->harvest.watts = 0.006;
  NodeSpec& third = c.roster[2];
  third.app = AppKind::kNone;
  third.storage = storage;
  third.storage->enabled = false;
  if (mac == MacKind::kCsmaCa) {
    first.csma_gts = true;
    third.csma_gts = false;
  }
  return c;
}

/// Every pinned (golden file name, config) pair.
std::vector<std::pair<std::string, BanConfig>> golden_cases() {
  std::vector<std::pair<std::string, BanConfig>> cases;
  cases.emplace_back("default", BanConfig{});
  cases.emplace_back("rpeak_dynamic_5",
                     rpeak_dynamic_config(PaperSetup{}, 5));
  cases.emplace_back("every_section_aloha",
                     every_section_config(MacKind::kAloha));
  cases.emplace_back("every_section_csma",
                     every_section_config(MacKind::kCsmaCa));
  std::vector<std::filesystem::path> examples;
  for (const auto& entry :
       std::filesystem::directory_iterator{BANSIM_CONFIG_DIR}) {
    if (entry.path().extension() == ".ini") examples.push_back(entry.path());
  }
  std::sort(examples.begin(), examples.end());
  for (const auto& path : examples) {
    std::ifstream in{path};
    std::ostringstream text;
    text << in.rdbuf();
    cases.emplace_back("example_" + path.stem().string(),
                       parse_config(text.str()));
  }
  return cases;
}

TEST(ConfigIo, SerializationMatchesGoldenText) {
  const bool update = std::getenv("BANSIM_UPDATE_GOLDEN") != nullptr;
  const auto cases = golden_cases();
  ASSERT_GE(cases.size(), 15u);  // 4 built here + 11 examples/configs
  for (const auto& [name, config] : cases) {
    SCOPED_TRACE(name);
    const std::filesystem::path path =
        std::filesystem::path{BANSIM_GOLDEN_DIR} / (name + ".ini");
    const std::string text = serialize_config(config);
    if (update) {
      std::ofstream{path} << text;
      continue;
    }
    std::ifstream in{path};
    ASSERT_TRUE(in) << "missing golden file " << path;
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(text, golden.str());
    // The pinned text is itself a fixpoint of parse + serialize.
    EXPECT_EQ(serialize_config(parse_config(golden.str())), golden.str());
  }
}

}  // namespace
}  // namespace bansim::core
