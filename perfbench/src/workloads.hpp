// The benchmark's four workloads, each with an untraced end-to-end pass and
// a traced per-layer pass.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed{42};
  double seconds{10};
  bool trace{false};
  std::filesystem::path root{"."};  ///< checkout root (examples/configs)
  std::filesystem::path work{};     ///< scratch directory for campaign stores
  unsigned workers{1};              ///< campaign worker processes
};

[[nodiscard]] bool known_workload(const std::string& name);

/// Runs `options.workload` and fills `result` with its end-to-end metrics
/// (untraced) or per-layer metrics (traced).
void run_workload(const Options& options, Result& result, SpanLog& spans);

}  // namespace perfbench
