// Lightweight statistics primitives used across the models and the
// experiment harness: counters, running scalar summaries, fixed-bin
// histograms, and time-weighted state-residency accumulators (the workhorse
// behind all the energy accounting).
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace bansim::sim {

/// Running summary of a scalar sample stream: n, mean, min, max, variance
/// (Welford's algorithm, numerically stable).
class Summary {
 public:
  void add(double x);

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] double mean() const { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double min() const { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const { return n_ ? max_ : 0.0; }
  [[nodiscard]] double variance() const { return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0; }
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double sum() const { return sum_; }

  void reset() { *this = Summary{}; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Fixed-width-bin histogram over [lo, hi); out-of-range samples land in
/// saturating under/overflow bins.
class Histogram {
 public:
  Histogram(double lo, double hi, std::size_t bins);

  void add(double x);

  [[nodiscard]] std::size_t bins() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t bin_count(std::size_t i) const { return counts_[i]; }
  [[nodiscard]] double bin_low(std::size_t i) const {
    return lo_ + width_ * static_cast<double>(i);
  }
  [[nodiscard]] std::uint64_t underflow() const { return underflow_; }
  [[nodiscard]] std::uint64_t overflow() const { return overflow_; }
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Approximate quantile from bin midpoints; q in [0, 1].
  [[nodiscard]] double quantile(double q) const;

  /// Multi-line ASCII rendering (for reports).
  [[nodiscard]] std::string render(std::size_t width = 50) const;

 private:
  double lo_;
  double hi_;
  double width_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t underflow_{0};
  std::uint64_t overflow_{0};
  std::uint64_t total_{0};
};

/// Accumulates how long an integer-labelled state machine spent in each
/// state.  The caller reports transitions; residency in the current state is
/// counted up to the query time.  This is the primitive both fidelity levels
/// use to integrate I*V*t energy.
class StateResidency {
 public:
  explicit StateResidency(std::size_t num_states, int initial_state = 0,
                          TimePoint start = TimePoint::zero());

  /// Records a transition at time `when` (must be >= the previous event).
  void transition(int new_state, TimePoint when);

  /// Flushes the in-progress stretch up to `when` without entering a new
  /// state: residency is accumulated, the entry count is untouched.
  /// Idempotent — closing twice at the same instant (the teardown pattern
  /// a fuzzer drives: every layer flushes "at sim end") adds zero.
  void close(TimePoint when);

  [[nodiscard]] int current_state() const { return state_; }

  /// Total time spent in `state`, counting the in-progress stretch up to `now`.
  [[nodiscard]] Duration time_in(int state, TimePoint now) const;

  /// Number of entries into `state`.
  [[nodiscard]] std::uint64_t entries(int state) const {
    return entries_[static_cast<std::size_t>(state)];
  }

  [[nodiscard]] std::size_t num_states() const { return acc_.size(); }

 private:
  std::vector<Duration> acc_;
  std::vector<std::uint64_t> entries_;
  int state_;
  TimePoint since_;
};

/// Named monotonically-increasing counter set.
class Counters {
 public:
  void add(const std::string& name, std::uint64_t delta = 1);
  [[nodiscard]] std::uint64_t get(const std::string& name) const;
  [[nodiscard]] const std::vector<std::pair<std::string, std::uint64_t>>& items() const {
    return items_;
  }

 private:
  std::vector<std::pair<std::string, std::uint64_t>> items_;
};

}  // namespace bansim::sim
