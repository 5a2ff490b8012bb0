#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "campaign/manifest.hpp"
#include "check/fault_campaign.hpp"
#include "check/invariant_monitor.hpp"
#include "core/config_io.hpp"
#include "core/experiment.hpp"
#include "core/paper_experiments.hpp"
#include "core/population.hpp"
#include "layers.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr std::size_t kSetupSamples = 21;
constexpr std::size_t kSetupPerRound = 10;
constexpr std::size_t kValidationsPerRound = 3;
constexpr std::size_t kMinRounds = 3;
// Wall seconds of steady stepping per round: the reference ward gets more.
// Short slices give many rounds, so the few-per-round samples (set-up,
// validation, lifetime) are spread over the whole run.
constexpr double kReferenceSlice_s = 0.6;
constexpr double kModelSlice_s = 0.4;
// In-process campaign passes, and shards per round: two passes over the
// 40 shards take four rounds, about 22 s with the N-worker runs.
constexpr std::size_t kInprocPasses = 2;
constexpr std::size_t kInprocChunk = 20;
constexpr std::size_t kCaptureFrames = 4096;

// fade_lifetime's cell: 2 mAh lasts about 800 simulated seconds on the
// burst-fade ward, so fault recovery and the storage driver run for most
// of a life that still ends within a couple of wall seconds.
constexpr const char* kFadeBattery =
    "\n[storage]\nenabled = true\nkind = battery\n\n"
    "[battery]\ncapacity_mah = 2\n";

std::string read_text(const fs::path& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A workload's ward: the INI text parsed during set-up, the seed it runs
/// under, and how its layer pass steps it.
struct Ward {
  std::string text;
  std::uint64_t seed{42};
  StepPlan plan;
};

bool is_campaign(const Options& o) { return o.workload == "ward_campaign"; }

Ward make_ward(const Options& o) {
  const fs::path configs = o.root / "examples" / "configs";
  Ward w;
  w.seed = o.seed;
  if (o.workload == "table1_ecg") {
    w.text = read_text(configs / "table1_row1.ini");
  } else if (o.workload == "table4_rpeak") {
    // Table 4's 5-node row exactly as the paper reproduction defines it.
    core::PaperSetup setup;
    setup.seed = o.seed;
    w.text = core::serialize_config(core::rpeak_dynamic_config(setup, 5));
  } else if (o.workload == "fade_lifetime") {
    w.text = read_text(configs / "burst_fade_static.ini") + kFadeBattery;
    w.plan.until_first_death = true;
  } else {
    w.text = read_text(configs / "population_ward.ini");
  }
  return w;
}

core::BanConfig parse_ward(const std::string& text, std::uint64_t seed) {
  core::BanConfig cfg = core::parse_config(text);
  cfg.seed = seed;
  return cfg;
}

/// One set-up sample: what a user pays before the first simulated event —
/// parse the ward, build it, start() it.
double setup_sample(const Ward& ward, SpanLog& spans) {
  std::unique_ptr<core::BanNetwork> net;
  return spans.time("setup", "core", [&] {
    core::BanConfig cfg;
    spans.time("parse", "core", [&] { cfg = parse_ward(ward.text, ward.seed); });
    spans.time("build", "core",
               [&] { net = std::make_unique<core::BanNetwork>(cfg); });
    spans.time("start", "core", [&] { net->start(); });
  });
}

bool same_row(const energy::ValidationRow& a, const energy::ValidationRow& b) {
  return a.radio_real_mj == b.radio_real_mj && a.radio_sim_mj == b.radio_sim_mj &&
         a.mcu_real_mj == b.mcu_real_mj && a.mcu_sim_mj == b.mcu_sim_mj;
}

bool positive(double v) { return std::isfinite(v) && v > 0.0; }

/// The paper's Sim-vs-Real protocol (join, settle, 60 s window, both
/// fidelities) through core::validation_row.
struct Validation {
  energy::ValidationRow row;
  double wall_s{0};
};

Validation validate(const core::BanConfig& cfg, SpanLog& spans,
                    Result& result) {
  Validation v;
  const core::MeasurementProtocol protocol;
  v.wall_s = spans.time("validate", "core", [&] {
    v.row = core::validation_row(cfg, protocol, "focus", 0.0);
  });
  result.check(positive(v.row.radio_real_mj) && positive(v.row.radio_sim_mj) &&
                   positive(v.row.mcu_real_mj) && positive(v.row.mcu_sim_mj),
               "validation energies finite and positive");
  return v;
}

/// Wall times are reported at their 95th percentile.  Host speed switches
/// between two levels, each held for a tenth of a second to several
/// seconds, and a central value (mean or median) lands between or on
/// either level depending on the mix a run happens to get.  The 95th
/// percentile stays on the slower level unless a run spends nearly all of
/// its time on the faster one (the 90th did not, on some runs).
double slow_side(const std::vector<double>& wall) {
  return quantile(wall, 0.95);
}

void set_common(Result& r, const std::vector<double>& setup,
                const std::vector<double>& step_ms,
                const energy::ValidationRow& row) {
  r.set("setup_s", median(setup), "s");
  r.set("step_ms_p95", slow_side(step_ms), "ms");
  r.set("step_ms_p99", quantile(step_ms, 0.99), "ms");
  r.set("est_mcu_err_pct", row.mcu_error() * 100.0, "%");
  r.set("peak_rss_mb", peak_rss_mb(), "MB");
  std::cerr << "step samples: " << step_ms.size() << "\n";
}

/// Stops the fault and storage processes and runs the monitor's closing
/// audit, as check::run_lifetime_campaign does.
std::uint64_t close_monitor(core::BanNetwork& net,
                            check::InvariantMonitor& monitor) {
  if (auto* injector = net.fault_injector()) injector->stop();
  if (auto* driver = net.storage_driver()) driver->stop();
  monitor.final_audit(net.simulator().now());
  if (monitor.total_violations() != 0) std::cerr << monitor.report() << "\n";
  return monitor.total_violations();
}

campaign::CampaignSpec ward_campaign_spec(std::uint64_t seed) {
  campaign::CampaignSpec spec;
  spec.patients = 1000;
  spec.shard_size = 25;
  spec.seeds = {seed};
  spec.motion = true;
  spec.measure = sim::Duration::seconds(1);
  return spec;
}

// --- End-to-end passes (no hooks, no probe) ----------------------------------
//
// Host speed on a shared machine swings between levels that last seconds,
// so each pass cycles through all of its measurements until the budget is
// spent, instead of timing them one after another: every metric then sees
// the same mix of fast and slow stretches.  Single-thread throughputs are
// taken from the slow side of many short samples (slow_side), not from run
// totals.

void table_e2e(const Options& o, const Ward& w, Result& res, SpanLog& spans) {
  const Clock::time_point begin = Clock::now();
  const core::BanConfig cfg = parse_ward(w.text, w.seed);
  std::vector<double> setup;
  std::vector<double> validation_wall;
  energy::ValidationRow row;
  std::vector<double> steps[2];  // reference, model
  std::vector<double> allocs;
  for (std::size_t round = 0;
       round < kMinRounds || seconds_since(begin) < o.seconds; ++round) {
    for (std::size_t i = 0; i < kSetupPerRound; ++i) {
      setup.push_back(setup_sample(w, spans));
    }
    for (std::size_t i = 0; i < kValidationsPerRound; ++i) {
      const Validation v = validate(cfg, spans, res);
      validation_wall.push_back(v.wall_s);
      if (validation_wall.size() == 1) row = v.row;
      res.check(same_row(v.row, row), "validation row repeats bit-exact");
    }

    // A steady-state episode at each fidelity, stepped from outside.
    for (int f = 0; f < 2; ++f) {
      core::BanConfig fcfg = cfg;
      fcfg.fidelity =
          f == 0 ? core::Fidelity::kReference : core::Fidelity::kModel;
      StepPlan plan;
      plan.wall_budget_s = f == 0 ? kReferenceSlice_s : kModelSlice_s;
      core::BanNetwork net{fcfg};
      const WardRun run = run_ward(
          net, plan, spans, f == 0 ? "measure_reference" : "measure_model");
      check_ward(net, run, plan, f == 0 ? "reference" : "model", res);
      steps[f].insert(steps[f].end(), run.step_ms.begin(), run.step_ms.end());
      if (f == 0) {
        allocs.push_back(static_cast<double>(run.exact_allocs) /
                         run.exact_sim_s);
      }
    }
  }
  res.check(std::equal(allocs.begin() + 1, allocs.end(), allocs.begin()),
            "exact allocation counts repeat in every episode");
  set_common(res, setup, steps[0], row);
  // One simulated second at each fidelity, as the paper's protocol pairs
  // them, at each fidelity's slow-side step time.
  res.set("sim_s_per_wall_s",
          2e3 / (slow_side(steps[0]) + slow_side(steps[1])), "s/s");
  res.set("patients_per_s", 1.0 / slow_side(validation_wall), "1/s");
  res.set("heap_allocs_per_sim_s", allocs.front(), "1/sim_s");
}

void fade_e2e(const Options& o, const Ward& w, Result& res, SpanLog& spans) {
  const Clock::time_point begin = Clock::now();
  const core::BanConfig cfg = parse_ward(w.text, w.seed);
  // Sim-vs-Real is defined on the fault-free ward, as in the paper.
  core::BanConfig fault_free = cfg;
  fault_free.fault_plan.enabled = false;
  const Validation v = validate(fault_free, spans, res);

  std::vector<double> setup;
  std::vector<double> steps;            // monitor off
  std::vector<double> monitored_steps;  // monitor on
  std::vector<double> allocs;
  std::vector<double> deaths;
  for (std::size_t round = 0;
       round < kMinRounds || seconds_since(begin) < o.seconds; ++round) {
    for (std::size_t i = 0; i < kSetupPerRound; ++i) {
      setup.push_back(setup_sample(w, spans));
    }
    // A monitor-off life stepped from outside: step latency, exact counts.
    {
      core::BanNetwork net{cfg};
      const WardRun run = run_ward(net, w.plan, spans, "measure_to_death");
      check_ward(net, run, w.plan, "stepped life", res);
      steps.insert(steps.end(), run.step_ms.begin(), run.step_ms.end());
      allocs.push_back(static_cast<double>(run.exact_allocs) / run.exact_sim_s);
      deaths.push_back(run.first_death_s);
    }
    // The workload proper: a life to first death with the invariant monitor
    // on, stepped from outside so its speed is sampled every simulated
    // second.
    {
      core::BanNetwork net{cfg};
      check::InvariantMonitor monitor{net.context()};
      monitor.watch_network(net);
      const WardRun run = run_ward(net, w.plan, spans, "measure_monitored");
      res.check(close_monitor(net, monitor) == 0,
                "monitor reports no violations");
      check_ward(net, run, w.plan, "monitored life", res);
      res.check(run.first_death_s == deaths.back(),
                "monitored first death equals the unmonitored one");
      monitored_steps.insert(monitored_steps.end(), run.step_ms.begin(),
                             run.step_ms.end());
    }
  }
  res.check(std::equal(allocs.begin() + 1, allocs.end(), allocs.begin()) &&
                std::equal(deaths.begin() + 1, deaths.end(), deaths.begin()),
            "stepped lives of one seed identical");

  // The same life through check::run_lifetime_campaign, once: it must agree.
  check::LifetimeCampaignOptions options;
  options.horizon = sim::Duration::seconds(7200);
  options.monitor = true;
  check::LifetimeOutcome out;
  spans.time("lifetime", "check",
             [&] { out = check::run_lifetime_campaign(cfg, options); });
  res.check(out.death_observed, "lifetime run reached a first death");
  if (!res.check(out.violations == 0, "lifetime monitor reports no violations")) {
    std::cerr << out.violation_report << "\n";
  }
  res.check(out.first_death.to_seconds() == deaths.front(),
            "lifetime first death equals the stepped life's");
  for (const energy::LifetimeRow& row : out.report.rows) {
    res.check(positive(row.average_watts),
              "node " + row.node + " average power finite and positive");
  }

  set_common(res, setup, steps, v.row);
  const double sim_s_per_wall_s = 1e3 / slow_side(monitored_steps);
  res.set("sim_s_per_wall_s", sim_s_per_wall_s, "s/s");
  res.set("patients_per_s", sim_s_per_wall_s / deaths.front(), "1/s");
  res.set("heap_allocs_per_sim_s", allocs.front(), "1/sim_s");
}

void campaign_e2e(const Options& o, const Ward& w, Result& res,
                  SpanLog& spans) {
  CampaignPlan plan;
  plan.base_text = w.text;
  plan.seed = w.seed;
  plan.spec = ward_campaign_spec(w.seed);
  plan.workers = o.workers;
  plan.wall_budget_s = o.seconds;
  plan.min_reps = kMinRounds;
  plan.inproc_chunk = kInprocChunk;
  plan.inproc_passes = kInprocPasses;
  const CampaignMeasure m = measure_campaign(plan, o.work, spans, res);
  const Validation v = validate(parse_ward(w.text, w.seed), spans, res);

  set_common(res, m.setup_s, m.patient_step_ms, v.row);
  res.set("sim_s_per_wall_s", m.sim_s / m.run_s, "s/s");
  res.set("patients_per_s", m.patients / m.run_s, "1/s");
  res.set("heap_allocs_per_sim_s", m.inproc_allocs_per_sim_s, "1/sim_s");
}

// --- Per-layer pass (traced) -------------------------------------------------

struct MacTotals {
  std::uint64_t sent{0};
  std::uint64_t delivered{0};
};

MacTotals mac_totals(core::BanNetwork& net) {
  MacTotals t;
  for (std::size_t i = 0; i < net.num_nodes(); ++i) {
    t.sent += net.node(i).mac_base().stats_snapshot().data_sent;
  }
  t.delivered = net.base_station_app().total_packets();
  return t;
}

bool same_focus(const WardRun& a, const WardRun& b) {
  return a.exact_steady_events == b.exact_steady_events &&
         a.focus_radio_mj == b.focus_radio_mj &&
         a.focus_mcu_mj == b.focus_mcu_mj;
}

void layer_pass(const Ward& w, const core::BanConfig& cfg,
                const core::BanConfig& validation_cfg,
                const CampaignPlan& campaign_plan, const Options& o,
                Result& res, SpanLog& spans) {
  const StepPlan& plan = w.plan;
  // Radio Sim-vs-Real error swings several-fold from seed to seed (the
  // reference radio energy varies, the model's does not), so it is a
  // per-layer reading here rather than a gated end-to-end metric.
  const Validation v = validate(validation_cfg, spans, res);
  res.set("energy.est_radio_err_pct", v.row.radio_error() * 100.0, "%");
  for (std::size_t i = 0; i < kSetupSamples; ++i) setup_sample(w, spans);
  res.set("core.parse_ms", median(spans.durations("parse")) * 1e3, "ms");
  res.set("core.build_us", median(spans.durations("build")) * 1e6, "us");
  res.set("core.start_us", median(spans.durations("start")) * 1e6, "us");

  // Untraced pair: the reference for every ratio, and the self-test that
  // one seed repeats its counts and energies exactly.
  WardRun plain[2];
  double snapshot = 0;
  for (int i = 0; i < 2; ++i) {
    core::BanNetwork net{cfg};
    plain[i] = run_ward(net, plan, spans, "measure_untraced");
    check_ward(net, plain[i], plan, "untraced", res);
    if (i == 0) snapshot = snapshot_us(net);
  }
  res.check(plain[0].exact_allocs == plain[1].exact_allocs &&
                plain[0].exact_steady_allocs == plain[1].exact_steady_allocs &&
                plain[0].events_total == plain[1].events_total,
            "self-test: two runs of one seed give identical counts");
  res.check(same_focus(plain[0], plain[1]),
            "self-test: two runs of one seed give identical energy.focus_*");
  const double untraced_wall =
      0.5 * (plain[0].exact_steady_wall_s + plain[1].exact_steady_wall_s);

  // Traced run: counters on both observer seams.
  LayerCounter counter{kCaptureFrames};
  LayerCounts at_steady;
  MacTotals mac0;
  MacTotals mac1;
  WardRun traced;
  {
    core::BanNetwork net{cfg, &counter};
    net.context().set_check_hooks(&counter);
    // Meters emit only once a hook is attached to them individually.
    auto watch = [&](hw::Board& board) {
      board.radio().meter().set_check_hooks(&counter);
      board.mcu().meter().set_check_hooks(&counter);
    };
    watch(net.base_station_board());
    for (std::size_t i = 0; i < net.num_nodes(); ++i) {
      watch(net.node(i).board());
    }
    traced = run_ward(net, plan, spans, "measure_traced", [&] {
      at_steady = counter.counts;
      counter.capturing = true;
      mac0 = mac_totals(net);
    });
    mac1 = mac_totals(net);
    check_ward(net, traced, plan, "traced", res);
  }
  res.check(same_focus(traced, plain[0]),
            "counting observers leave the run bit-identical");
  const LayerCounts c = counter.counts.since(at_steady);

  // Invariant-monitor run.
  WardRun monitored;
  std::uint64_t violations = 0;
  {
    core::BanNetwork net{cfg};
    check::InvariantMonitor monitor{net.context()};
    monitor.watch_network(net);
    monitored = run_ward(net, plan, spans, "measure_monitor");
    violations = close_monitor(net, monitor);
    check_ward(net, monitored, plan, "monitored", res);
  }
  res.check(violations == 0, "invariant monitor reports no violations");
  res.check(same_focus(monitored, plain[0]),
            "invariant monitor leaves the run bit-identical");

  const WardRun& p = plain[0];
  const double sim_s = p.exact_steady_sim_s;
  const auto events = static_cast<double>(p.exact_steady_events);
  const double wall_per_sim_s = untraced_wall / sim_s;
  const double wall_ns_per_event = untraced_wall * 1e9 / events;
  auto per_sim_s = [&](std::uint64_t n) {
    return static_cast<double>(n) / sim_s;
  };

  double kernel_ns = 0;
  spans.time("replay_kernel", "sim",
             [&] { kernel_ns = kernel_ns_per_event(p.pending_max); });
  res.set("sim.events_per_sim_s", events / sim_s, "1/sim_s");
  res.set("sim.events_per_wall_s", events / untraced_wall, "1/s");
  res.set("sim.pending_max", static_cast<double>(p.pending_max), "count");
  res.set("sim.allocs_per_event",
          static_cast<double>(p.exact_steady_allocs) / events, "ratio");
  res.set("sim.kernel_ns_per_event", kernel_ns, "ns");
  res.set("sim.stack_ns_per_event", wall_ns_per_event - kernel_ns, "ns");
  res.set("sim.kernel_est_share", kernel_ns / wall_ns_per_event, "ratio");

  const double frames = static_cast<double>(c.frames);
  const double deliveries_per_frame =
      static_cast<double>(c.deliveries) / frames;
  res.set("phy.frames_per_sim_s", per_sim_s(c.frames), "1/sim_s");
  res.set("phy.deliveries_per_frame", deliveries_per_frame, "ratio");
  res.set("phy.collisions_per_sim_s", per_sim_s(c.collisions), "1/sim_s");
  res.set("phy.corrupt_delivery_ratio",
          static_cast<double>(c.corrupt_deliveries) /
              static_cast<double>(c.deliveries),
          "ratio");

  NetReplay replay;
  spans.time("replay_net", "net", [&] { replay = replay_frames(counter.frames); });
  res.check(replay.ok, "captured frames parse and re-serialize byte-equal");
  res.set("net.frame_bytes_mean", static_cast<double>(c.frame_bytes) / frames,
          "B");
  res.set("net.crc_ns_per_frame", replay.crc_ns, "ns");
  res.set("net.serialize_ns_per_frame", replay.serialize_ns, "ns");
  res.set("net.deserialize_ns_per_frame", replay.deserialize_ns, "ns");
  res.set("net.est_share",
          per_sim_s(c.frames) *
              (replay.serialize_ns + deliveries_per_frame * replay.deserialize_ns) *
              1e-9 / wall_per_sim_s,
          "ratio");

  res.set("hw.radio_transitions_per_sim_s", per_sim_s(c.radio_transitions),
          "1/sim_s");
  res.set("hw.mcu_mode_changes_per_sim_s", per_sim_s(c.mcu_mode_changes),
          "1/sim_s");
  res.set("hw.meter_transitions_per_sim_s", per_sim_s(c.meter_transitions),
          "1/sim_s");

  res.set("os.tasks_per_sim_s", per_sim_s(c.tasks), "1/sim_s");
  res.set("os.radio_tx_per_sim_s", per_sim_s(c.radio_tx), "1/sim_s");
  res.set("os.rx_windows_per_sim_s", per_sim_s(c.rx_windows), "1/sim_s");

  const std::uint64_t sent = mac1.sent - mac0.sent;
  res.set("mac.data_pkts_per_sim_s", per_sim_s(c.data_tx), "1/sim_s");
  res.set("mac.control_pkts_per_sim_s", per_sim_s(c.control_tx), "1/sim_s");
  res.set("mac.beacons_per_sim_s", per_sim_s(c.beacon_tx), "1/sim_s");
  res.set("mac.pdr",
          sent == 0 ? 1.0
                    : static_cast<double>(mac1.delivered - mac0.delivered) /
                          static_cast<double>(sent),
          "ratio");
  res.set("mac.join_sim_ms", p.join_sim_s * 1e3, "sim_ms");

  const bool rpeak = cfg.app == core::AppKind::kRpeak;
  const double fs = rpeak ? cfg.rpeak.sample_rate_hz
                          : cfg.streaming.sample_rate_hz;
  const double channels = rpeak ? cfg.rpeak.channels : cfg.streaming.channels;
  AppsReplay apps_replay;
  spans.time("replay_apps", "apps",
             [&] { apps_replay = replay_apps(cfg.ecg, fs, cfg.seed); });
  const double samples_per_sim_s =
      static_cast<double>(cfg.effective_nodes()) * channels * fs;
  res.set("apps.ecg_synth_ns_per_sample", apps_replay.synth_ns, "ns");
  res.set("apps.rpeak_ns_per_sample", apps_replay.rpeak_ns, "ns");
  res.set("apps.est_share",
          samples_per_sim_s *
              (apps_replay.synth_ns + (rpeak ? apps_replay.rpeak_ns : 0.0)) *
              1e-9 / wall_per_sim_s,
          "ratio");

  res.set("energy.snapshot_us", snapshot, "us");
  res.set("energy.focus_radio_mj", p.focus_radio_mj, "mJ");
  res.set("energy.focus_mcu_mj", p.focus_mcu_mj, "mJ");

  res.set("core.join_wall_ms",
          0.5 * (plain[0].join_wall_s + plain[1].join_wall_s) * 1e3, "ms");

  const CampaignMeasure m = measure_campaign(campaign_plan, o.work, spans, res);
  const double parallel = m.patients / m.run_s;
  res.set("campaign.create_ms", median(m.create_s) * 1e3, "ms");
  res.set("campaign.collect_ms", median(m.collect_s) * 1e3, "ms");
  res.set("campaign.store_bytes_per_patient", m.store_bytes_per_patient, "B");
  res.set("campaign.inproc_patients_per_s", m.inproc_patients_per_s, "1/s");
  res.set("campaign.parallel_eff",
          parallel / (campaign_plan.workers * m.inproc_patients_per_s),
          "ratio");
  res.set("campaign.workers_died", m.workers_died, "count");

  res.set("fault.depletion_deaths", static_cast<double>(p.depletion_deaths),
          "count");
  res.set("fault.sim_s_to_first_death", p.first_death_s, "sim_s");

  res.set("check.monitor_overhead_ratio",
          monitored.exact_steady_wall_s / untraced_wall, "ratio");
  res.set("check.violations", static_cast<double>(violations), "count");
  res.set("trace_overhead_ratio", untraced_wall / traced.exact_steady_wall_s,
          "ratio");
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "table1_ecg" || name == "table4_rpeak" ||
         name == "ward_campaign" || name == "fade_lifetime";
}

void run_workload(const Options& o, Result& result, SpanLog& spans) {
  const Ward w = make_ward(o);
  if (!o.trace) {
    if (is_campaign(o)) {
      campaign_e2e(o, w, result, spans);
    } else if (w.plan.until_first_death) {
      fade_e2e(o, w, result, spans);
    } else {
      table_e2e(o, w, result, spans);
    }
    return;
  }

  CampaignPlan plan;
  plan.base_text = w.text;
  plan.seed = w.seed;
  plan.workers = o.workers;
  core::BanConfig cfg = parse_ward(w.text, w.seed);
  core::BanConfig validation_cfg = cfg;
  validation_cfg.fault_plan.enabled = false;
  if (is_campaign(o)) {
    // The real campaign, once; its layer pass steps patient 0's ward.
    plan.spec = ward_campaign_spec(w.seed);
    plan.inproc_chunk = campaign::plan_shards(plan.spec).size();
    const auto variant = campaign::variants(plan.spec).front();
    cfg = core::PopulationGenerator{campaign::variant_config(cfg, variant),
                                    campaign::population_config(plan.spec)}
              .patient(0);
  } else {
    // A small campaign of this workload's own ward measures the campaign
    // layer's fixed costs on it.
    plan.spec.patients = 16;
    plan.spec.shard_size = 4;
    plan.spec.seeds = {w.seed};
    plan.spec.protocols = {cfg.protocol()};
    plan.spec.fault_modes = {cfg.fault_plan.enabled};
    plan.spec.measure = sim::Duration::seconds(1);
    plan.inproc_chunk = campaign::plan_shards(plan.spec).size();
  }
  layer_pass(w, cfg, validation_cfg, plan, o, result, spans);
}

}  // namespace perfbench
