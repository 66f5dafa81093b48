// Summary statistics and process probes used by the benchmark.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
double median(std::vector<double> values);

/// First quartile, median and third quartile, computed exactly as Python's
/// statistics.quantiles(values, n=4) does (its default "exclusive" method),
/// so the benchmark's own spread figures match the ones its users compute.
/// A single value is returned three times; an empty input gives zeros.
std::array<double, 3> quartiles(std::vector<double> values);

/// The tail latency the benchmark reports: the highest percentile that
/// still has at least ten samples beyond it. With n sorted samples that is
/// the sample of rank n-10 (1-based), i.e. percentile 100*(n-10)/n; with
/// fewer than 11 samples it is the slowest one (percentile 100).
struct Tail {
  double value = 0;
  double percentile = 100;
  std::size_t samples = 0;
};
Tail tail(std::vector<double> values);

/// Peak resident set size (VmHWM) in MiB parsed from the text of a
/// /proc/<pid>/status file; negative when the field is missing.
double vm_hwm_mb(std::string_view status_text);

/// Peak resident set size of this process in MiB, from /proc/self/status.
double peak_rss_mb();

}  // namespace perfbench
