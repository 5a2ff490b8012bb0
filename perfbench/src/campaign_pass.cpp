#include <filesystem>
#include <memory>
#include <optional>
#include <system_error>

#include "campaign/orchestrator.hpp"
#include "campaign/report.hpp"
#include "campaign/shard_runner.hpp"
#include "core/config_io.hpp"
#include "layers.hpp"

namespace perfbench {

namespace fs = std::filesystem;

double patient_sim_seconds(const energy::CampaignRunRow& row,
                           const campaign::CampaignSpec& spec) {
  if (!row.joined) return spec.join_deadline.to_seconds();
  return row.join_ms * 1e-3 + spec.settle.to_seconds() +
         spec.measure.to_seconds();
}

namespace {

// Set-up samples per N-worker run (one of them is the run's own store).
// One more follows every in-process shard: create_campaign's file-system
// cost drifts by 2x within a run, so samples are spread over all of it.
constexpr std::size_t kSetupPerRun = 3;

std::uintmax_t tree_bytes(const fs::path& dir) {
  std::uintmax_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// Parses the base ward and creates a fresh campaign in `dir`: the
/// campaign's set-up, timed as one sample.
double set_up(const CampaignPlan& plan, const fs::path& dir, SpanLog& spans,
              CampaignMeasure& m) {
  return spans.time("setup", "core", [&] {
    core::BanConfig base;
    spans.time("parse", "core", [&] {
      base = core::parse_config(plan.base_text);
      base.seed = plan.seed;
    });
    m.create_s.push_back(spans.time(
        "create", "campaign",
        [&] { campaign::create_campaign(dir, plan.spec, base); }));
  });
}

}  // namespace

CampaignMeasure measure_campaign(const CampaignPlan& plan,
                                 const fs::path& work, SpanLog& spans,
                                 Result& result) {
  CampaignMeasure m;
  std::size_t serial = 0;
  auto fresh_dir = [&] {
    fs::path dir = work / ("store-" + std::to_string(serial++));
    fs::remove_all(dir);
    return dir;
  };
  // A set-up sample into a throwaway store.
  auto sample_setup = [&] {
    const fs::path scratch = fresh_dir();
    m.setup_s.push_back(set_up(plan, scratch, spans, m));
    fs::remove_all(scratch);
  };
  const std::vector<campaign::ShardSpec> shards =
      campaign::plan_shards(plan.spec);
  const std::size_t planned = plan.spec.patients * plan.spec.variant_count();
  campaign::RunCampaignOptions options;
  options.workers = plan.workers;

  // The first N-worker store is the reference every later run and the
  // in-process (workers = 0) pass must reproduce exactly.
  std::optional<campaign::LoadedCampaign> loaded;
  campaign::CollectedResults reference;

  // In-process passes.  They advance a chunk of shards after every
  // N-worker run, so both see the same stretch of host time.  Each patient
  // is timed once per pass.
  std::vector<std::size_t> first_slot;  // per shard position
  for (std::size_t i = 0, slot = 0; i < shards.size(); ++i) {
    first_slot.push_back(slot);
    slot += shards[i].count;
  }
  std::vector<std::vector<double>> patient_wall(planned);
  std::size_t slot = 0;
  Clock::time_point prev = Clock::now();
  std::unique_ptr<campaign::ShardRunner> runner;
  campaign::CollectedResults inproc;
  std::uint64_t inproc_allocs = 0;
  double inproc_wall = 0;
  std::size_t inproc_runs = 0;  // shard runs over all passes
  std::size_t repeat_mismatches = 0;
  const std::size_t inproc_total = plan.inproc_passes * shards.size();

  const Clock::time_point t0 = Clock::now();
  for (std::size_t rep = 0; inproc_runs < inproc_total ||
                            rep < plan.min_reps ||
                            seconds_since(t0) < plan.wall_budget_s;) {
    if (rep < plan.min_reps || seconds_since(t0) < plan.wall_budget_s) {
      for (std::size_t i = 1; i < kSetupPerRun; ++i) sample_setup();
      const fs::path dir = fresh_dir();
      m.setup_s.push_back(set_up(plan, dir, spans, m));
      campaign::RunCampaignResult run;
      const double wall = spans.time("run", "campaign", [&] {
        run = campaign::run_campaign(dir, options);
      });
      campaign::CollectedResults collected;
      m.collect_s.push_back(spans.time("collect", "campaign", [&] {
        collected = campaign::collect_results(dir);
      }));
      m.workers_died += run.workers_died;

      result.check(!run.incomplete, "campaign run complete");
      result.check(run.shards_quarantined == 0 && collected.quarantined.empty(),
                   "no shard quarantined");
      result.check(collected.decode_errors.empty(), "store records decode");
      std::size_t durable = 0;
      std::size_t failed = 0;
      double sim_s = 0;
      for (const campaign::ShardSpec& shard : shards) {
        const auto it = collected.by_shard.find(shard.index);
        if (it == collected.by_shard.end() ||
            it->second.rows.size() != shard.count) {
          failed += shard.count;  // missing shard: none of its patients done
          continue;
        }
        for (const energy::CampaignRunRow& row : it->second.rows) {
          ++durable;
          if (!row.joined) ++failed;
          sim_s += patient_sim_seconds(row, plan.spec);
        }
      }
      result.count(planned, failed, "campaign patients durable and joined");
      m.run_s += wall;
      m.patients += static_cast<double>(durable);
      m.sim_s += sim_s;

      if (!loaded) {
        loaded = campaign::load_campaign(dir);
        reference = std::move(collected);
        m.store_bytes_per_patient =
            static_cast<double>(tree_bytes(dir / "segments")) /
            static_cast<double>(planned);
        runner = std::make_unique<campaign::ShardRunner>(loaded->spec,
                                                         loaded->base);
        runner->set_progress([&](std::size_t) {
          const Clock::time_point now = Clock::now();
          if (slot < planned) {
            patient_wall[slot++].push_back(seconds_between(prev, now));
          }
          prev = now;
        });
      } else {
        result.check(collected.by_shard == reference.by_shard,
                     "repeated N-worker runs store identical rows");
      }
      fs::remove_all(dir);
      ++rep;
    }
    for (std::size_t c = 0; c < plan.inproc_chunk && inproc_runs < inproc_total;
         ++c) {
      const std::size_t position = inproc_runs++ % shards.size();
      const bool first_pass = inproc_runs <= shards.size();
      const campaign::ShardSpec& shard = shards[position];
      slot = first_slot[position];
      const std::uint64_t a0 = heap_allocations();
      const Clock::time_point s0 = Clock::now();
      prev = s0;
      campaign::ShardResult shard_result = runner->run(shard);
      const Clock::time_point s1 = Clock::now();
      // Exact count over the first pass; later passes reuse warm cells.
      if (first_pass) inproc_allocs += heap_allocations() - a0;
      inproc_wall += seconds_between(s0, s1);
      spans.record("inproc_shard", "campaign", s0, s1);
      sample_setup();
      if (first_pass) {
        inproc.by_shard.emplace(shard.index, std::move(shard_result));
      } else if (!(inproc.by_shard.at(shard.index) == shard_result)) {
        ++repeat_mismatches;
      }
    }
  }
  result.count(inproc_total - shards.size(), repeat_mismatches,
               "repeated in-process passes give identical rows");

  double inproc_sim_s = 0;
  std::size_t patient = 0;
  bool every_pass_timed = true;
  for (const campaign::ShardSpec& shard : shards) {
    for (const energy::CampaignRunRow& row :
         inproc.by_shard.at(shard.index).rows) {
      const double sim_s = patient_sim_seconds(row, loaded->spec);
      inproc_sim_s += sim_s;
      const std::vector<double>& walls = patient_wall.at(patient++);
      every_pass_timed &= walls.size() == plan.inproc_passes;
      for (const double wall : walls) {
        m.patient_step_ms.push_back(wall * 1e3 / sim_s);
      }
    }
  }
  result.check(patient == planned && every_pass_timed,
               "in-process passes ran and timed every patient");
  m.inproc_patients_per_s =
      static_cast<double>(patient * plan.inproc_passes) / inproc_wall;
  m.inproc_allocs_per_sim_s =
      static_cast<double>(inproc_allocs) / inproc_sim_s;

  std::size_t mismatched = 0;
  for (const auto& [index, shard_result] : inproc.by_shard) {
    const auto it = reference.by_shard.find(index);
    if (it == reference.by_shard.end() || !(it->second == shard_result)) {
      ++mismatched;
    }
  }
  result.count(shards.size(), mismatched,
               "N-worker shard rows equal the in-process rows");
  std::string report_workers;
  std::string report_inproc;
  spans.time("render_reports", "campaign", [&] {
    report_workers =
        campaign::render_report(campaign::aggregate(*loaded, reference));
    report_inproc =
        campaign::render_report(campaign::aggregate(*loaded, inproc));
  });
  result.check(report_workers == report_inproc,
               "N-worker report byte-identical to the workers = 0 report");
  return m;
}

}  // namespace perfbench
