#include "sim/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace bansim::sim {

void Summary::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::stddev() const { return std::sqrt(variance()); }

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_{lo}, hi_{hi}, width_{(hi - lo) / static_cast<double>(bins)},
      counts_(bins, 0) {
  assert(hi > lo && bins > 0);
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto i = static_cast<std::size_t>((x - lo_) / width_);
    if (i >= counts_.size()) i = counts_.size() - 1;  // guards fp edge cases
    ++counts_[i];
  }
}

double Histogram::quantile(double q) const {
  if (total_ == 0) return lo_;
  const auto target = static_cast<std::uint64_t>(
      q * static_cast<double>(total_));
  std::uint64_t seen = underflow_;
  if (seen > target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    seen += counts_[i];
    if (seen > target) return bin_low(i) + width_ * 0.5;
  }
  return hi_;
}

std::string Histogram::render(std::size_t width) const {
  std::uint64_t peak = 1;
  for (auto c : counts_) peak = std::max(peak, c);
  std::string out;
  char line[160];
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const auto bar = static_cast<std::size_t>(
        static_cast<double>(counts_[i]) / static_cast<double>(peak) *
        static_cast<double>(width));
    std::snprintf(line, sizeof line, "[%10.4g, %10.4g) %8llu |", bin_low(i),
                  bin_low(i) + width_,
                  static_cast<unsigned long long>(counts_[i]));
    out += line;
    out.append(bar, '#');
    out += '\n';
  }
  return out;
}

StateResidency::StateResidency(std::size_t num_states, int initial_state,
                               TimePoint start)
    : acc_(num_states, Duration::zero()), entries_(num_states, 0),
      state_{initial_state}, since_{start} {
  assert(static_cast<std::size_t>(initial_state) < num_states);
  ++entries_[static_cast<std::size_t>(initial_state)];
}

void StateResidency::transition(int new_state, TimePoint when) {
  assert(when >= since_ && "transitions must be time-ordered");
  assert(static_cast<std::size_t>(new_state) < acc_.size());
  acc_[static_cast<std::size_t>(state_)] += when - since_;
  state_ = new_state;
  since_ = when;
  ++entries_[static_cast<std::size_t>(new_state)];
}

void StateResidency::close(TimePoint when) {
  assert(when >= since_ && "close must not move time backwards");
  acc_[static_cast<std::size_t>(state_)] += when - since_;
  since_ = when;
}

Duration StateResidency::time_in(int state, TimePoint now) const {
  Duration t = acc_[static_cast<std::size_t>(state)];
  if (state == state_ && now > since_) t += now - since_;
  return t;
}

void Counters::add(const std::string& name, std::uint64_t delta) {
  for (auto& [key, value] : items_) {
    if (key == name) {
      value += delta;
      return;
    }
  }
  items_.emplace_back(name, delta);
}

std::uint64_t Counters::get(const std::string& name) const {
  for (const auto& [key, value] : items_) {
    if (key == name) return value;
  }
  return 0;
}

}  // namespace bansim::sim
