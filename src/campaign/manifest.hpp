// Campaign manifest: the persistent definition of a scenario space — the
// one way a patient population (core/population.hpp) is defined and run.
//
// A campaign directory is created once (`bansim_campaign run`) and then
// only ever appended to; the manifest is what makes every later `resume`
// re-derive exactly the same work.  It pins
//   * the base ward config (base_config.ini, CRC'd from the manifest so a
//     hand-edited config cannot silently change what "the same campaign"
//     means),
//   * the scenario axes — population size, base seeds, MAC protocols,
//     fault-plan on/off — whose cross product forms the variant list,
//   * the population's one switch, motion episodes on/off (the sampling
//     distributions themselves are library constants),
//   * the per-patient measurement window and CDF binning, and
//   * the shard size that partitions each variant's patients.
//
// Shard k is a pure function of the manifest: variant axes are crossed in
// a fixed order (protocol-major, then seed, then fault mode) and patients
// are chunked in index order, so the global shard index k names the same
// (variant, patient range) forever.  That purity is the whole recovery
// story — a shard result lost to a crash is simply recomputed, and the
// recomputation is bit-identical.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/config_io.hpp"
#include "core/population.hpp"
#include "mac/mac_base.hpp"
#include "sim/time.hpp"

namespace bansim::campaign {

/// The scenario-space axes and execution grain.  Everything here round-
/// trips through manifest.ini.
struct CampaignSpec {
  /// Patients per variant (each variant runs the full population).
  std::size_t patients{1000};
  /// Patients per shard — the unit of work, loss, and recovery.
  std::size_t shard_size{250};

  /// Scenario axes.  The variant list is their cross product in this
  /// fixed nesting order: for each protocol, for each seed, for each
  /// fault mode.
  std::vector<mac::Protocol> protocols{mac::Protocol::kStaticTdma};
  std::vector<std::uint64_t> seeds{1};
  /// Fault-plan master-switch values (false = plan disabled).  A `true`
  /// entry only changes behaviour when the base config carries fault
  /// content; each fault mode is its own variant.
  std::vector<bool> fault_modes{false};

  /// Per-patient motion episodes on/off: PopulationConfig's one field.
  bool motion{false};

  /// Per-patient measurement window.
  sim::Duration measure{sim::Duration::seconds(30)};
  sim::Duration settle{sim::Duration::seconds(1)};
  sim::Duration join_deadline{sim::Duration::seconds(30)};

  std::size_t cdf_bins{64};

  /// Worker-health policy (DESIGN.md §5i).  Part of the campaign
  /// definition so a resume retries and times out shards exactly the way
  /// the original run did.
  /// Failed attempts (hang, crash, nonzero exit) a shard may consume
  /// before it is quarantined and skipped by every later resume.
  std::size_t retry_budget{3};
  /// Per-shard wall-clock deadline = clamp(deadline_factor x trailing
  /// per-variant runtime estimate, floor, ceiling); the ceiling alone
  /// applies while a variant has no estimate yet.  The deadline bounds
  /// the gap between worker heartbeats (per-patient), not just whole
  /// shards, so long shards stay safe as long as they make progress.
  std::uint32_t deadline_floor_ms{2000};
  std::uint32_t deadline_ceiling_ms{60000};
  double deadline_factor{4.0};

  [[nodiscard]] std::size_t variant_count() const {
    return protocols.size() * seeds.size() * fault_modes.size();
  }

  /// Empty when well-formed, else the first problem.
  [[nodiscard]] std::string validate() const;
};

/// One point of the scenario cross product.
struct VariantSpec {
  std::size_t index{0};
  mac::Protocol protocol{mac::Protocol::kStaticTdma};
  std::uint64_t seed{1};
  bool faults{false};

  /// Stable one-token label, e.g. "static_tdma/s1/faults" — used by the
  /// report and CSV export.
  [[nodiscard]] std::string label() const;
};

/// The cross product in manifest order (protocol-major, then seed, then
/// fault mode).
[[nodiscard]] std::vector<VariantSpec> variants(const CampaignSpec& spec);

/// Derives one variant's ward config from the campaign's base config.
[[nodiscard]] core::BanConfig variant_config(const core::BanConfig& base,
                                             const VariantSpec& variant);

/// The PopulationConfig every variant samples patients from.
[[nodiscard]] core::PopulationConfig population_config(
    const CampaignSpec& spec);

/// One unit of work: `count` consecutive patients of one variant.
struct ShardSpec {
  std::size_t index{0};    ///< global shard index — the store key
  std::size_t variant{0};  ///< into variants(spec)
  std::size_t first{0};    ///< first patient index
  std::size_t count{0};
};

/// All shards of the campaign, in global-index order (variant-major,
/// patient-range-minor).
[[nodiscard]] std::vector<ShardSpec> plan_shards(const CampaignSpec& spec);

/// Writes manifest.ini + base_config.ini into `dir` (creating it).
/// Throws StoreError when the directory already holds a manifest, or when
/// spec/base fail validation.
void write_campaign(const std::filesystem::path& dir, const CampaignSpec& spec,
                    const core::BanConfig& base);

struct LoadedCampaign {
  CampaignSpec spec;
  core::BanConfig base;
};

/// Reads manifest.ini + base_config.ini back.  Hard StoreError on missing
/// files, unknown keys, format-version mismatch, or a base_config.ini
/// whose CRC no longer matches the manifest's fingerprint.
[[nodiscard]] LoadedCampaign load_campaign(const std::filesystem::path& dir);

}  // namespace bansim::campaign
