// Parallel scenario executor for parameter sweeps.
//
// The paper's evaluation (Tables 1-4, Fig. 4) and every bench/sweep target
// re-run essentially the same simulation dozens of times with different
// parameters.  Each configuration owns its entire stack — Simulator, event
// queue, node models, RNG streams — so scenarios are embarrassingly
// parallel.  ScenarioRunner fans N scenario factories out over a pool of
// worker threads and collects results deterministically ordered by scenario
// index.  Because no state is shared between scenarios, the results are
// bit-identical to running the same factories serially; only wall-clock
// time changes.
//
// Usage:
//   ScenarioRunner runner{jobs};            // 0 -> hardware_concurrency()
//   std::vector<std::function<R()>> work = ...;
//   std::vector<R> results = runner.run(work);   // results[i] from work[i]
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace bansim::sim {

/// Resolves a requested worker count: 0 means "use every hardware thread"
/// (at least 1); anything else is taken literally.
[[nodiscard]] unsigned resolve_jobs(unsigned requested);

/// Strips a `--jobs N` / `--jobs=N` flag out of argv (so downstream parsers
/// such as benchmark::Initialize never see it) and returns the requested
/// count, or `fallback` when the flag is absent.  Malformed values fall back
/// to serial (1).
[[nodiscard]] unsigned consume_jobs_flag(int& argc, char** argv,
                                         unsigned fallback = 1);

/// One scenario's result plus how long that scenario took on its worker.
template <typename Result>
struct TimedResult {
  Result value{};
  double seconds{0};
};

class ScenarioRunner {
 public:
  /// `jobs` == 0 uses hardware_concurrency(); 1 runs inline (no threads).
  explicit ScenarioRunner(unsigned jobs = 0) : jobs_{resolve_jobs(jobs)} {}

  [[nodiscard]] unsigned jobs() const { return jobs_; }

  /// Wall-clock seconds of the most recent run()/run_timed() call.
  [[nodiscard]] double last_wall_seconds() const { return wall_seconds_; }

  /// Runs every scenario and returns results ordered by scenario index.
  /// If any scenario throws, the first exception (by scenario index) is
  /// rethrown after all workers finish.
  template <typename Result>
  std::vector<Result> run(const std::vector<std::function<Result()>>& scenarios) {
    auto timed = run_timed(scenarios);
    std::vector<Result> results;
    results.reserve(timed.size());
    for (auto& t : timed) results.push_back(std::move(t.value));
    return results;
  }

  /// Like run(), but also reports per-scenario execution time (for
  /// event-throughput reporting in the benches).
  template <typename Result>
  std::vector<TimedResult<Result>> run_timed(
      const std::vector<std::function<Result()>>& scenarios) {
    using Clock = std::chrono::steady_clock;
    const auto wall_start = Clock::now();

    std::vector<std::optional<TimedResult<Result>>> slots(scenarios.size());
    std::vector<std::exception_ptr> errors(scenarios.size());

    auto run_one = [&](std::size_t i) {
      const auto start = Clock::now();
      try {
        TimedResult<Result> timed;
        timed.value = scenarios[i]();
        timed.seconds = std::chrono::duration<double>(Clock::now() - start).count();
        slots[i] = std::move(timed);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    };

    const unsigned workers =
        static_cast<unsigned>(std::min<std::size_t>(jobs_, scenarios.size()));
    if (workers <= 1) {
      for (std::size_t i = 0; i < scenarios.size(); ++i) run_one(i);
    } else {
      std::atomic<std::size_t> next{0};
      std::vector<std::thread> pool;
      pool.reserve(workers);
      for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&] {
          for (std::size_t i = next.fetch_add(1); i < scenarios.size();
               i = next.fetch_add(1)) {
            run_one(i);
          }
        });
      }
      for (auto& worker : pool) worker.join();
    }

    wall_seconds_ = std::chrono::duration<double>(Clock::now() - wall_start).count();

    for (const auto& error : errors) {
      if (error) std::rethrow_exception(error);
    }
    std::vector<TimedResult<Result>> results;
    results.reserve(slots.size());
    for (auto& slot : slots) results.push_back(std::move(*slot));
    return results;
  }

 private:
  unsigned jobs_;
  double wall_seconds_{0};
};

}  // namespace bansim::sim
