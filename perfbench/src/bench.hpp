// Shared plumbing of the bansim benchmark: wall-clock timing, the
// process-wide heap-allocation counter, peak RSS, order statistics, the
// result record printed as the last stdout line, and the in-memory span
// log written out as Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}

/// operator new calls made by this process so far (alloc_count.cpp replaces
/// the global allocation functions of the benchmark binary).
[[nodiscard]] std::uint64_t heap_allocations();

/// Largest resident set of this process or of any reaped child (campaign
/// workers), in MiB.
[[nodiscard]] double peak_rss_mb();

[[nodiscard]] double median(std::vector<double> values);

/// Quantile q in [0, 1] with linear interpolation between order statistics
/// (the "inclusive" definition).  Empty input yields 0.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Result of one benchmark run: named metrics plus the output checks that
/// feed `attempted` / `failed`.
class Result {
 public:
  void set(const std::string& name, double value, const std::string& unit);

  /// Counts one attempted operation; a false `ok` counts it as failed and
  /// names it on stderr.
  bool check(bool ok, const std::string& what);

  /// Counts `attempted` operations of which `failed` failed (patients,
  /// shards) in one go.
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

  /// The result as one line of JSON: correct, attempted, failed, metrics.
  [[nodiscard]] std::string json() const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::uint64_t attempted_{0};
  std::uint64_t failed_{0};
};

/// Spans around the benchmark's own calls into each layer.  Kept in memory
/// while the run lasts; write() emits Chrome trace-event JSON once at the
/// end.  A disabled log still times its scopes (end-to-end metrics need the
/// durations) but records nothing.
class SpanLog {
 public:
  explicit SpanLog(bool enabled);

  /// Runs `fn` and returns its wall seconds, recording a span when enabled.
  template <class F>
  double time(const char* name, const char* layer, F&& fn) {
    const Clock::time_point t0 = Clock::now();
    std::forward<F>(fn)();
    const Clock::time_point t1 = Clock::now();
    record(name, layer, t0, t1);
    return seconds_between(t0, t1);
  }

  void record(const char* name, const char* layer, Clock::time_point start,
              Clock::time_point end);

  /// Durations (seconds) of every recorded span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Writes {"traceEvents": [...]} to `path`; false on I/O failure.
  bool write(const std::filesystem::path& path) const;

 private:
  struct Span {
    const char* name;
    const char* layer;
    double start_us;
    double dur_us;
  };
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
