// Command-line experiment driver.
//
// The tool a platform team would actually run: configure a scenario from
// flags and/or an INI file, execute it at one or both fidelities, and emit
// human-readable results or CSV.
//
// usage:
//   bansim_cli [--config FILE] [--app ecg_streaming|rpeak|eeg_monitoring]
//              [--variant static|dynamic] [--cycle-ms N] [--nodes N]
//              [--seconds N] [--seed N] [--fidelity ref|model|both]
//              [--analyze] [--csv] [--dump-config]
//              [--sweep KEY=V1,V2,... | KEY=LO..HI] [--jobs N]
//
// Sweep mode runs the configured scenario once per value of KEY (one of
// cycle-ms, nodes, seed) at each selected fidelity, fanning the runs out
// across cores (--jobs N; 0 = all cores).  Results are printed in sweep
// order regardless of the worker count — each run owns its own simulator,
// so the numbers are bit-identical to a serial sweep.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "check/fault_campaign.hpp"
#include "core/bansim.hpp"
#include "core/config_io.hpp"
#include "core/mac_analyzer.hpp"
#include "fault/degradation_report.hpp"
#include "sim/scenario_runner.hpp"

namespace {

using namespace bansim;
using sim::Duration;

struct CliOptions {
  std::optional<std::string> config_file;
  std::optional<std::string> fault_plan_file;
  std::optional<std::string> app;
  std::optional<std::string> protocol;
  std::optional<std::string> variant;
  std::optional<int> cycle_ms;
  std::optional<int> nodes;
  std::optional<std::uint64_t> seed;
  int seconds{60};
  std::string fidelity{"both"};
  std::optional<std::string> sweep;
  unsigned jobs{0};  ///< sweep workers; 0 = hardware_concurrency()
  bool analyze{false};
  bool csv{false};
  bool dump_config{false};
  bool lifetime{false};
  bool per_node{false};  ///< forced on when the config carries a roster
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--config FILE] [--app NAME] [--variant "
               "static|dynamic]\n"
               "          [--protocol static_tdma|dynamic_tdma|aloha|csma_ca]\n"
               "          [--cycle-ms N] [--nodes N] [--seconds N] [--seed N]\n"
               "          [--fidelity ref|model|both] [--analyze] [--csv] "
               "[--dump-config]\n"
               "          [--per-node] [--sweep KEY=V1,V2,...|KEY=LO..HI] "
               "[--jobs N]\n"
               "          [--fault-plan FILE] [--lifetime]\n"
               "       sweep KEY is one of: cycle-ms, nodes, seed\n"
               "       --lifetime runs a lifetime campaign on a config with "
               "an\n"
               "       enabled [storage] section: advance until the first "
               "store\n"
               "       runs dry (or --seconds pass), then print each node's\n"
               "       measured draw and extrapolated lifetime\n"
               "       --per-node prints a per-node energy table (implied by\n"
               "       a config with [node.K] roster sections)\n"
               "       --fault-plan overlays FILE's [fault.*] sections onto "
               "the\n"
               "       config, runs a fault campaign plus a fault-free "
               "baseline\n"
               "       under the invariant monitor, and prints the "
               "degradation\n"
               "       report (PDR, resync/rejoin times, recovery energy)\n",
               argv0);
  return 2;
}

bool parse_cli(int argc, char** argv, CliOptions& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--config") {
      const char* v = next();
      if (!v) return false;
      options.config_file = v;
    } else if (arg == "--fault-plan") {
      const char* v = next();
      if (!v) return false;
      options.fault_plan_file = v;
    } else if (arg == "--app") {
      const char* v = next();
      if (!v) return false;
      options.app = v;
    } else if (arg == "--protocol") {
      const char* v = next();
      if (!v) return false;
      options.protocol = v;
    } else if (arg == "--variant") {
      const char* v = next();
      if (!v) return false;
      options.variant = v;
    } else if (arg == "--cycle-ms") {
      const char* v = next();
      if (!v) return false;
      options.cycle_ms = std::atoi(v);
    } else if (arg == "--nodes") {
      const char* v = next();
      if (!v) return false;
      options.nodes = std::atoi(v);
    } else if (arg == "--seconds") {
      const char* v = next();
      if (!v) return false;
      options.seconds = std::atoi(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (!v) return false;
      options.seed = std::strtoull(v, nullptr, 0);
    } else if (arg == "--fidelity") {
      const char* v = next();
      if (!v) return false;
      options.fidelity = v;
    } else if (arg == "--sweep") {
      const char* v = next();
      if (!v) return false;
      options.sweep = v;
    } else if (arg == "--jobs") {
      const char* v = next();
      if (!v) return false;
      options.jobs = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (arg == "--per-node") {
      options.per_node = true;
    } else if (arg == "--analyze") {
      options.analyze = true;
    } else if (arg == "--csv") {
      options.csv = true;
    } else if (arg == "--dump-config") {
      options.dump_config = true;
    } else if (arg == "--lifetime") {
      options.lifetime = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

std::string read_file(const std::string& path) {
  std::ifstream file{path};
  if (!file) throw core::ConfigError("cannot open " + path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  return buffer.str();
}

core::BanConfig build_config(const CliOptions& options) {
  core::BanConfig config;
  // Paper-flavoured defaults.
  config.num_nodes = 5;
  config.tdma = mac::TdmaConfig::static_plan(Duration::milliseconds(30), 5);
  config.app = core::AppKind::kEcgStreaming;
  config.streaming.sample_rate_hz = 205;

  if (options.config_file) {
    config = core::parse_config(read_file(*options.config_file));
  }
  if (options.fault_plan_file) {
    // A fault-plan file is an ordinary config INI; only its [fault.*]
    // sections are taken (the scenario itself stays whatever --config and
    // the flags say).  The same file can therefore double as a complete
    // runnable config.
    const core::BanConfig plan_cfg =
        core::parse_config(read_file(*options.fault_plan_file));
    if (!plan_cfg.fault_plan.any()) {
      throw core::ConfigError(*options.fault_plan_file +
                              " has no enabled [fault] sections");
    }
    config.fault_plan = plan_cfg.fault_plan;
  }

  if (options.nodes) config.num_nodes = static_cast<std::size_t>(*options.nodes);
  if (options.seed) config.seed = *options.seed;
  if (options.protocol) {
    core::apply_mac_protocol(config,
                             core::parse_mac_protocol(*options.protocol));
  }
  if (options.variant) {
    config.tdma.variant = core::parse_tdma_variant(*options.variant);
  }
  if (options.cycle_ms && config.tdma.variant == mac::TdmaVariant::kStatic) {
    config.tdma.set_static_cycle(Duration::milliseconds(*options.cycle_ms));
  }
  if (options.app) config.app = core::parse_app_kind(*options.app);
  return config;
}

void report(const char* fidelity, const core::ScenarioResult& r, bool csv) {
  if (csv) {
    std::printf("%s,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n", fidelity, r.radio_mj,
                r.mcu_mj, r.asic_mj, r.total_mj,
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.beacons_missed));
    return;
  }
  std::printf(
      "  [%s] radio %.1f mJ, uC %.1f mJ (validated total %.1f mJ), asic %.1f "
      "mJ; %llu data packets, %llu missed beacons\n",
      fidelity, r.radio_mj, r.mcu_mj, r.total_mj, r.asic_mj,
      static_cast<unsigned long long>(r.data_packets),
      static_cast<unsigned long long>(r.beacons_missed));
}

/// Runs the scenario once per fidelity and prints one energy row per
/// device (nodes, then the base station) over the measurement window.
/// This is the heterogeneous-roster view: each row names the node's app
/// so a mixed ECG/R-peak ward reads at a glance.
int report_per_node(const core::BanConfig& base, core::Fidelity fidelity,
                    const char* fidelity_name, int seconds) {
  core::BanConfig config = base;
  config.fidelity = fidelity;
  core::BanNetwork network{config};
  network.start();
  if (!network.run_until_joined(
          Duration::seconds(1),
          sim::TimePoint::zero() + Duration::seconds(30))) {
    std::fprintf(stderr, "per-node [%s]: network failed to join\n",
                 fidelity_name);
    return 1;
  }
  const sim::TimePoint t0 = network.simulator().now();
  const std::vector<energy::NodeEnergy> before = network.energy_snapshot();
  network.run_until(t0 + Duration::seconds(seconds));
  const std::vector<energy::NodeEnergy> after = network.energy_snapshot();

  std::printf("\nper-node energy [%s], %d s window:\n", fidelity_name,
              seconds);
  for (std::size_t i = 0; i < after.size(); ++i) {
    const bool is_bs = i >= network.num_nodes();
    const char* app =
        is_bs ? "base_station" : to_string(network.node(i).app_kind());
    auto delta_mj = [&](const char* component) {
      return (after[i].component_joules(component) -
              before[i].component_joules(component)) *
             1e3;
    };
    const double total_mj =
        (after[i].total_joules() - before[i].total_joules()) * 1e3;
    std::printf("  %-10s %-16s mcu %8.3f  radio %8.3f  asic %8.3f  total "
                "%8.3f mJ\n",
                after[i].node.c_str(), app, delta_mj("mcu"), delta_mj("radio"),
                delta_mj("asic"), total_mj);
  }
  return 0;
}

struct SweepSpec {
  std::string key;                   ///< cycle-ms | nodes | seed
  std::vector<std::uint64_t> values;
};

std::optional<SweepSpec> parse_sweep(const std::string& text) {
  const auto eq = text.find('=');
  if (eq == std::string::npos || eq == 0 || eq + 1 >= text.size()) {
    return std::nullopt;
  }
  SweepSpec spec;
  spec.key = text.substr(0, eq);
  if (spec.key != "cycle-ms" && spec.key != "nodes" && spec.key != "seed") {
    return std::nullopt;
  }
  const std::string body = text.substr(eq + 1);
  const auto range = body.find("..");
  if (range != std::string::npos) {
    const std::uint64_t lo = std::strtoull(body.c_str(), nullptr, 10);
    const std::uint64_t hi =
        std::strtoull(body.c_str() + range + 2, nullptr, 10);
    if (hi < lo) return std::nullopt;
    for (std::uint64_t v = lo; v <= hi; ++v) spec.values.push_back(v);
  } else {
    std::stringstream ss{body};
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      spec.values.push_back(std::strtoull(item.c_str(), nullptr, 10));
    }
  }
  if (spec.values.empty()) return std::nullopt;
  return spec;
}

core::BanConfig apply_sweep_value(core::BanConfig config,
                                  const std::string& key, std::uint64_t value) {
  if (key == "seed") {
    config.seed = value;
  } else if (key == "nodes") {
    config.num_nodes = static_cast<std::size_t>(value);
  } else {  // cycle-ms (static TDMA only; dynamic plans own their slot size)
    config.tdma.set_static_cycle(
        Duration::milliseconds(static_cast<std::int64_t>(value)));
  }
  return config;
}

int run_sweep(const CliOptions& options, const core::BanConfig& base,
              const core::MeasurementProtocol& protocol) {
  const auto spec = parse_sweep(*options.sweep);
  if (!spec) {
    std::fprintf(stderr, "bad --sweep spec: %s\n", options.sweep->c_str());
    return 2;
  }
  if (spec->key == "cycle-ms" &&
      base.protocol() != mac::Protocol::kStaticTdma) {
    std::fprintf(stderr, "--sweep cycle-ms needs a static_tdma cell (this "
                         "one is %s)\n",
                 mac::to_string(base.protocol()));
    return 2;
  }

  std::vector<core::Fidelity> fidelities;
  if (options.fidelity == "ref" || options.fidelity == "both") {
    fidelities.push_back(core::Fidelity::kReference);
  }
  if (options.fidelity == "model" || options.fidelity == "both") {
    fidelities.push_back(core::Fidelity::kModel);
  }

  // One scenario per (value, fidelity), index-ordered so the report below
  // is identical for any --jobs count.
  std::vector<std::function<core::ScenarioResult()>> scenarios;
  std::vector<std::pair<std::uint64_t, const char*>> labels;
  for (const std::uint64_t value : spec->values) {
    for (const core::Fidelity fidelity : fidelities) {
      core::BanConfig cfg = apply_sweep_value(base, spec->key, value);
      cfg.fidelity = fidelity;
      scenarios.push_back(
          [cfg, protocol] { return core::run_scenario(cfg, protocol); });
      labels.emplace_back(value, fidelity == core::Fidelity::kReference
                                     ? "reference"
                                     : "model");
    }
  }

  sim::ScenarioRunner runner{options.jobs};
  const auto results = runner.run(scenarios);

  std::printf(
      "%s,fidelity,radio_mj,mcu_mj,asic_mj,total_mj,data_packets,"
      "beacons_missed\n",
      spec->key.c_str());
  std::uint64_t events = 0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    const core::ScenarioResult& r = results[i];
    events += r.events;
    std::printf("%llu,%s,%.3f,%.3f,%.3f,%.3f,%llu,%llu\n",
                static_cast<unsigned long long>(labels[i].first),
                labels[i].second, r.radio_mj, r.mcu_mj, r.asic_mj, r.total_mj,
                static_cast<unsigned long long>(r.data_packets),
                static_cast<unsigned long long>(r.beacons_missed));
  }
  // Throughput summary to stderr so the CSV on stdout stays machine-clean.
  std::fprintf(stderr,
               "sweep: %zu scenarios, %llu kernel events, %.2f s wall "
               "(jobs=%u), %.2f Mevents/s\n",
               results.size(), static_cast<unsigned long long>(events),
               runner.last_wall_seconds(), runner.jobs(),
               static_cast<double>(events) / runner.last_wall_seconds() / 1e6);
  return 0;
}

/// Fault-campaign mode: the faulted run and a fault-free baseline from the
/// same seed, both under the invariant monitor, distilled into a
/// DegradationReport.  Non-zero exit if any invariant was violated — a
/// campaign that breaks conservation laws is a simulator bug, not a result.
int run_campaign(const CliOptions& options, const core::BanConfig& config) {
  check::CampaignOptions campaign;
  campaign.horizon = Duration::seconds(options.seconds);

  std::printf("fault campaign: %s, %zu nodes%s, %s MAC, %d s horizon, "
              "seed %llu\n",
              to_string(config.app), config.effective_nodes(),
              config.roster.empty() ? "" : " (roster)",
              mac::to_string(config.protocol()), options.seconds,
              static_cast<unsigned long long>(config.seed));

  const check::CampaignOutcome faulted = run_fault_campaign(config, campaign);

  core::BanConfig baseline_cfg = config;
  baseline_cfg.fault_plan = fault::FaultPlan{};  // bit-identical wiring
  const check::CampaignOutcome baseline =
      run_fault_campaign(baseline_cfg, campaign);

  const auto& stats = faulted.injector;
  std::printf("injected: %llu scripted faults, %llu stochastic crashes, "
              "%llu brown-outs, %llu fade transitions, %llu permanent "
              "deaths\n",
              static_cast<unsigned long long>(stats.scripted_faults),
              static_cast<unsigned long long>(stats.stochastic_crashes),
              static_cast<unsigned long long>(stats.brownouts),
              static_cast<unsigned long long>(stats.fade_transitions),
              static_cast<unsigned long long>(stats.permanent_deaths));

  const fault::DegradationReport report =
      fault::DegradationReport::build(faulted.run, baseline.run);
  std::printf("%s", report.to_string().c_str());

  const std::uint64_t violations = faulted.violations + baseline.violations;
  if (violations != 0) {
    std::fprintf(stderr, "invariant violations: %llu\n%s%s",
                 static_cast<unsigned long long>(violations),
                 faulted.violation_report.c_str(),
                 baseline.violation_report.c_str());
    return 1;
  }
  std::printf("invariants: clean (0 violations across both runs)\n");
  return 0;
}

/// Lifetime-campaign mode: advance the cell until the first store runs dry
/// (or the horizon passes), then print each node's measured average draw
/// and its extrapolated lifetime.  Non-zero exit on invariant violations.
int run_lifetime(const CliOptions& options, const core::BanConfig& config) {
  check::LifetimeCampaignOptions campaign;
  campaign.horizon = Duration::seconds(options.seconds);

  bool any_storage = config.storage.enabled;
  for (const auto& spec : config.roster) {
    if (spec.storage && spec.storage->enabled) any_storage = true;
  }
  if (!any_storage) {
    std::fprintf(stderr,
                 "note: no enabled [storage] section — every node runs off "
                 "the bench supply and never dies\n");
  }

  const check::LifetimeOutcome outcome =
      check::run_lifetime_campaign(config, campaign);

  if (options.csv) {
    std::printf("%s", outcome.report.render_csv().c_str());
  } else {
    std::printf("lifetime campaign: %s, %zu nodes%s, %s MAC, %d s horizon, "
                "seed %llu\n",
                to_string(config.app), config.effective_nodes(),
                config.roster.empty() ? "" : " (roster)",
                mac::to_string(config.protocol()), options.seconds,
                static_cast<unsigned long long>(config.seed));
    std::printf("%s", outcome.report.render().c_str());
    if (outcome.death_observed) {
      std::printf("first depletion at %.2f s simulated (%llu deaths, %llu "
                  "recharge reboots)\n",
                  outcome.first_death.to_seconds(),
                  static_cast<unsigned long long>(
                      outcome.storage.depletion_deaths),
                  static_cast<unsigned long long>(
                      outcome.storage.recharge_reboots));
    } else {
      std::printf("no depletion within the %.1f s simulated window (%llu "
                  "recharge reboots)\n",
                  outcome.simulated.to_seconds(),
                  static_cast<unsigned long long>(
                      outcome.storage.recharge_reboots));
    }
  }
  if (outcome.violations != 0) {
    std::fprintf(stderr, "invariant violations: %llu\n%s",
                 static_cast<unsigned long long>(outcome.violations),
                 outcome.violation_report.c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!parse_cli(argc, argv, options)) return usage(argv[0]);

  try {
    core::BanConfig config = build_config(options);
    if (options.dump_config) {
      std::printf("%s", core::serialize_config(config).c_str());
      return 0;
    }

    if (options.lifetime) return run_lifetime(options, config);
    if (options.fault_plan_file) return run_campaign(options, config);

    core::MeasurementProtocol protocol;
    protocol.measure = Duration::seconds(options.seconds);

    if (options.sweep) return run_sweep(options, config, protocol);

    if (!options.csv) {
      std::printf(
          "scenario: %s, %zu nodes%s, %s MAC, %d s window, seed %llu\n",
          to_string(config.app), config.effective_nodes(),
          config.roster.empty() ? "" : " (roster)",
          mac::to_string(config.protocol()), options.seconds,
          static_cast<unsigned long long>(config.seed));
    } else {
      std::printf(
          "fidelity,radio_mj,mcu_mj,asic_mj,total_mj,data_packets,"
          "beacons_missed\n");
    }

    if (options.fidelity == "ref" || options.fidelity == "both") {
      config.fidelity = core::Fidelity::kReference;
      report("reference", core::run_scenario(config, protocol), options.csv);
    }
    if (options.fidelity == "model" || options.fidelity == "both") {
      config.fidelity = core::Fidelity::kModel;
      report("model", core::run_scenario(config, protocol), options.csv);
    }

    // A roster config describes a heterogeneous ward network, where the
    // aggregate focus-node numbers above hide the interesting structure —
    // always show the per-node table for those.
    if ((options.per_node || !config.roster.empty()) && !options.csv) {
      int rc = 0;
      if (options.fidelity == "ref" || options.fidelity == "both") {
        rc |= report_per_node(config, core::Fidelity::kReference, "reference",
                              options.seconds);
      }
      if (options.fidelity == "model" || options.fidelity == "both") {
        rc |= report_per_node(config, core::Fidelity::kModel, "model",
                              options.seconds);
      }
      if (rc != 0) return 1;
    }

    if (options.analyze) {
      config.fidelity = core::Fidelity::kReference;
      core::BanNetwork network{config};
      auto sink = std::make_shared<sim::MemorySink>();
      network.tracer().attach(sink, {sim::TraceCategory::kMac});
      network.start();
      if (network.run_until_joined(
              Duration::seconds(1),
              sim::TimePoint::zero() + Duration::seconds(30))) {
        const sim::TimePoint t0 = network.simulator().now();
        network.run_until(t0 + Duration::seconds(options.seconds));
        std::printf("\n%s",
                    core::analyze_mac(network, sink->records(), t0).render().c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
