// bansim benchmark: runs one workload and prints its result.
//
//   bansim_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--root DIR] [--work DIR] [--trace-file FILE]
//                    [--commit ID]
//
// Prints one "facts {...}" line with host and run facts, then, as the last
// stdout line, {"correct", "attempted", "failed", "metrics"}: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1 (which also
// writes the run's spans to --trace-file as Chrome trace-event JSON).
// Exits 2 on bad arguments, 3 when not built as Release, 1 when a
// workload throws; no result line is printed in those cases.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "campaign/orchestrator.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

#ifdef NDEBUG
constexpr bool kAssertionsOn = false;
#else
constexpr bool kAssertionsOn = true;
#endif

// Campaign workers: at most one per CPU, and never more than two.  On a
// shared 4-vCPU host, four workers measured the host's all-core speed
// drift: patients_per_s spread 0.19 across seeds, against 0.09 with two.
constexpr unsigned kMaxWorkers = 2;

unsigned online_cpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out + "\"";
}

[[noreturn]] void usage(const std::string& problem) {
  std::cerr << "error: " << problem
            << "\nusage: bansim_perfbench --workload "
               "table1_ecg|table4_rpeak|ward_campaign|fade_lifetime "
               "--seed N --seconds S --trace 0|1 [--root DIR] [--work DIR] "
               "[--trace-file FILE] [--commit ID]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // Campaign workers re-exec this binary; they must branch off first.
  if (const int rc = bansim::campaign::maybe_worker_main(argc, argv); rc >= 0) {
    return rc;
  }

  Options o;
  o.workers = std::min(online_cpus(), kMaxWorkers);
  std::string trace_file;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--root") {
        o.root = value;
      } else if (flag == "--work") {
        o.work = value;
      } else if (flag == "--trace-file") {
        trace_file = value;
      } else if (flag == "--commit") {
        commit = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !perfbench::known_workload(o.workload)) {
    usage("unknown or missing --workload");
  }
  if (!(o.seconds >= 1.0 && o.seconds <= 600.0)) {
    usage("--seconds must be within [1, 600]");
  }
  if (o.work.empty()) o.work = o.root / ".bench_build" / "perfbench" / "work";

  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" || kAssertionsOn) {
    std::cerr << "error: refusing to report from a non-Release build ("
              << build_type << (kAssertionsOn ? ", assertions on" : "")
              << ")\n";
    return 3;
  }

  std::cout << "facts {\"workload\": " << quoted(o.workload)
            << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
            << ", \"trace\": " << (o.trace ? 1 : 0)
            << ", \"nproc\": " << online_cpus()
            << ", \"workers\": " << o.workers
            << ", \"cpu_model\": " << quoted(cpu_model())
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quoted(build_type)
            << ", \"commit\": " << quoted(commit) << "}" << std::endl;

  perfbench::Result result;
  perfbench::SpanLog spans{o.trace};
  try {
    std::filesystem::create_directories(o.work);
    perfbench::run_workload(o, result, spans);
  } catch (const std::exception& e) {
    std::cerr << "error: " << o.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (o.trace && !trace_file.empty()) {
    result.check(spans.write(trace_file), "trace written to " + trace_file);
  }
  std::cout << result.json() << std::endl;
  return 0;
}
