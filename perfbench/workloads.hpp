// The benchmark's three workloads and the report each measured run prints.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 7;
  double seconds = 20;
  bool trace = false;
  std::string work_dir = ".";  // working directory (serve_mixed's disk cache)
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run of a workload produced: the operation tally, the metrics
/// of the mode it ran in, and a detail object for the line printed before
/// the result.
struct Report {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Failures outside the defects known at the benchmark's baseline (2-P
  /// output streams and proofs that disagree with the FF golden, proofs
  /// that end unknown). Any such failure makes the run incorrect.
  std::size_t unexpected = 0;
  std::vector<std::string> failures;
  /// Traced mode only: the replay reproduced run_flow() bit for bit and
  /// its layers covered at least 98% of its wall time.
  bool trace_ok = true;
  std::vector<Metric> metrics;
  std::string detail_json = "{}";

  void fail(std::string what, bool known);
  [[nodiscard]] bool correct() const { return unexpected == 0 && trace_ok; }
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report run_workload(const Args& args);

}  // namespace perfbench
