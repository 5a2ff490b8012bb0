// Columnar (struct-of-arrays) campaign metrics.
//
// A population-scale Monte Carlo campaign runs thousands of patients, and a
// short campaign unit finishes in tens of microseconds — at that scale,
// materialising a per-run report object (NodeEnergy's strings + per-state
// vectors) costs more than the simulation it describes.  CampaignColumns
// keeps one scalar per metric per run in parallel columns instead: a run
// appends by reading its meters directly, with no intermediate report, and
// the reductions the campaign needs (mean, percentiles, the lifetime CDF)
// stream over a column in one pass.  reserve() once per campaign; appends
// are then allocation-free.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace bansim::energy {

/// One run's scalar metrics — the row every column stores one entry of.
/// This is also the unit the campaign store serializes, so keep it plain
/// scalars (bit-exact round-trip through the on-disk record framing).
struct CampaignRunRow {
  std::uint64_t seed{0};
  double total_mj{0};
  double radio_mj{0};
  double mcu_mj{0};
  double asic_mj{0};
  /// Projected hours until the ward's first store depletes (+inf when
  /// harvest covers the load; see MetricCdf's unbounded tail).
  double lifetime_hours{std::numeric_limits<double>::infinity()};
  /// Time until the whole cell had joined and settled (the campaign's
  /// join-latency metric); 0 when the run never joined.
  double join_ms{0};
  std::uint64_t data_packets{0};
  /// Payloads counted at the base station over the measured window; with
  /// data_packets this gives the run's delivery ratio.
  std::uint64_t delivered_packets{0};
  bool joined{false};

  /// Delivered / sent over the measured window (1 when nothing was sent —
  /// an idle cell dropped nothing).
  [[nodiscard]] double pdr() const {
    return data_packets == 0 ? 1.0
                             : static_cast<double>(delivered_packets) /
                                   static_cast<double>(data_packets);
  }

  [[nodiscard]] bool operator==(const CampaignRunRow&) const = default;
};

/// Per-run metric columns of one campaign.  Every column has exactly
/// runs() entries; append_run() grows them in lockstep.
struct CampaignColumns {
  std::vector<std::uint64_t> seed;
  std::vector<double> total_mj;
  std::vector<double> radio_mj;
  std::vector<double> mcu_mj;
  std::vector<double> asic_mj;
  std::vector<double> lifetime_hours;
  std::vector<double> join_ms;
  std::vector<std::uint64_t> data_packets;
  std::vector<std::uint64_t> delivered_packets;
  std::vector<std::uint8_t> joined;

  void reserve(std::size_t runs);
  void clear();
  [[nodiscard]] std::size_t runs() const { return seed.size(); }

  /// Appends one run's scalars to every column.
  void append_run(const CampaignRunRow& row);

  /// The i-th run read back out of the columns.
  [[nodiscard]] CampaignRunRow row(std::size_t i) const;

  /// Appends every run of `other` (merging per-worker/per-shard columns).
  void append_columns(const CampaignColumns& other);

  /// Per-run delivery ratios (delivered/sent, 1 when idle) — the PDR
  /// distribution column report percentiles run over.
  [[nodiscard]] std::vector<double> pdr_column() const;

  /// Exact elementwise equality across every column (the currency of the
  /// resumed-vs-uninterrupted aggregate checks).
  [[nodiscard]] bool operator==(const CampaignColumns& other) const = default;
};

/// Mean of a column (0 for an empty one); non-finite entries are skipped.
[[nodiscard]] double column_mean(std::span<const double> column);

/// Exact nearest-rank percentile of a column, q in [0, 1].  `scratch` is
/// the caller's sort buffer, reused across calls so a summary that asks
/// for p5/p50/p95 allocates at most once.
[[nodiscard]] double column_percentile(std::span<const double> column,
                                       double q, std::vector<double>& scratch);

/// Fixed-bin cumulative distribution built in one streaming pass over a
/// column — the campaign's CDF artifact without storing a sorted copy.
/// Non-finite entries (a node that never depletes projects +inf hours)
/// count into `unbounded`, so cum_fraction asymptotes below 1 when part of
/// the population outlives any horizon.
struct MetricCdf {
  double lo{0};
  double hi{0};
  double mean{0};
  std::uint64_t count{0};      ///< finite entries binned below
  std::uint64_t unbounded{0};  ///< non-finite entries (never-depleting)
  std::vector<double> upper_edge;       ///< bin upper edges, ascending
  std::vector<std::uint64_t> bin_count; ///< finite entries per bin
  std::vector<double> cum_fraction;     ///< fraction of ALL entries <= edge

  /// Two passes over `column`: min/max/mean, then the histogram.
  [[nodiscard]] static MetricCdf build(std::span<const double> column,
                                       std::size_t bins = 64);

  /// Histogram over caller-fixed edges [range_lo, range_hi] instead of the
  /// column's own min/max — the shard-mergeable form: two CDFs built over
  /// the same range and bin count merge exactly.  Finite entries outside
  /// the range clamp into the first/last bin.  Requires range_lo <=
  /// range_hi (throws std::invalid_argument otherwise).
  [[nodiscard]] static MetricCdf build_with_range(
      std::span<const double> column, double range_lo, double range_hi,
      std::size_t bins = 64);

  /// Exact streaming merge: adds `other`'s entries into this CDF.  Both
  /// sides must share identical bin edges (same range and bin count, as
  /// built by build_with_range) — throws std::invalid_argument otherwise.
  /// An empty side (no edges yet) adopts the other's edges.  Counts add
  /// integrally and the mean recombines by weight, so merging shard CDFs
  /// in any order yields the same bin counts as one whole-column build.
  void merge(const MetricCdf& other);

  /// Value below which fraction q of ALL entries falls (linear within the
  /// bin); +inf when q reaches into the unbounded tail.
  [[nodiscard]] double percentile(double q) const;

  /// CSV rows `value,cum_fraction` (header included) — the artifact a
  /// campaign smoke job uploads.
  [[nodiscard]] std::string render_csv() const;
};

}  // namespace bansim::energy
