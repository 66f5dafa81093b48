// Self-tests of the benchmark's own statistics: median, quartiles (checked
// against values Python's statistics.quantiles gives), the tail-percentile
// rule, and the peak-RSS probe. Exit status 0 when every check passes.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void expect_near(const char* what, double got, double want) {
  if (std::fabs(got - want) > 1e-12 * std::max(1.0, std::fabs(want))) {
    std::fprintf(stderr, "FAIL %s: got %.17g, want %.17g\n", what, got, want);
    ++failures;
  }
}

void expect_true(const char* what, bool ok) {
  if (!ok) {
    std::fprintf(stderr, "FAIL %s\n", what);
    ++failures;
  }
}

std::vector<double> ramp(int n) {  // n, n-1, ..., 1: unsorted on purpose
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

}  // namespace

int main() {
  using namespace perfbench;

  expect_near("median empty", median({}), 0);
  expect_near("median odd", median({3, 1, 2}), 2);
  expect_near("median even", median({4, 1, 3, 2}), 2.5);
  expect_near("median one", median({7.5}), 7.5);

  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  auto q = quartiles(ramp(10));
  expect_near("q1 of 1..10", q[0], 2.75);
  expect_near("q2 of 1..10", q[1], 5.5);
  expect_near("q3 of 1..10", q[2], 8.25);
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
  q = quartiles({2, 1});
  expect_near("q1 of 1,2", q[0], 0.75);
  expect_near("q2 of 1,2", q[1], 1.5);
  expect_near("q3 of 1,2", q[2], 2.25);
  // statistics.quantiles([1.0, 2.0, 4.0, 8.0, 16.0], n=4) == [1.5, 4.0, 12.0]
  q = quartiles({16, 1, 8, 2, 4});
  expect_near("q1 of powers", q[0], 1.5);
  expect_near("q2 of powers", q[1], 4.0);
  expect_near("q3 of powers", q[2], 12.0);
  q = quartiles({3});
  expect_near("q of one", q[0] + q[1] + q[2], 9);

  // Fewer than 11 samples: the slowest one, at percentile 100.
  Tail t = tail(ramp(10));
  expect_near("tail of 10", t.value, 10);
  expect_near("tail pct of 10", t.percentile, 100);
  expect_true("tail samples of 10", t.samples == 10);
  // 11 samples: the minimum has exactly ten beyond it.
  t = tail(ramp(11));
  expect_near("tail of 11", t.value, 1);
  expect_near("tail pct of 11", t.percentile, 100.0 / 11.0);
  // 1000 samples: rank 990, the 99th percentile; ten samples lie beyond.
  t = tail(ramp(1000));
  expect_near("tail of 1000", t.value, 990);
  expect_near("tail pct of 1000", t.percentile, 99.0);
  // 4000 samples: the 99.75th percentile.
  t = tail(ramp(4000));
  expect_near("tail of 4000", t.value, 3990);
  expect_near("tail pct of 4000", t.percentile, 99.75);
  t = tail({});
  expect_true("tail of none", t.samples == 0 && t.value == 0);

  expect_near("hwm parse",
              vm_hwm_mb("Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\n"
                        "VmRSS:\t 1024 kB\n"),
              2.0);
  expect_true("hwm missing", vm_hwm_mb("VmRSS:\t 1024 kB\n") < 0);
  expect_true("hwm garbage", vm_hwm_mb("VmHWM:\t kB\n") < 0);
  // The live probe sees at least the buffer this test touches.
  std::vector<char> block(64 << 20, 1);
  const double rss = peak_rss_mb();
  expect_true("peak rss covers a touched 64 MiB block",
              rss >= 64 && block[block.size() / 2] == 1);

  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
