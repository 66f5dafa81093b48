// End-to-end benchmark: runs one named workload and prints its
// metrics. See perfbench/README.md for the workloads and metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--work-dir DIR]
//
// The last line of standard output is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics"; the line before it holds
// details (failures, tail percentile, trace checks). Exit status 0 when
// the run is correct, 1 when it is not, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <malloc.h>
#include <exception>
#include <string>
#include <string_view>

#include "src/util/json.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--work-dir DIR]\nworkloads:",
               why);
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  // glibc raises its mmap threshold each time a thread frees a large mapped
  // block, so with concurrent callers the peak memory of a run depended on
  // the order their frees happened in (verify_sec: 136 or 163 MB). A fixed
  // threshold, glibc's default value, makes it a property of the work.
#ifdef __GLIBC__
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
#endif
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return usage("missing value after a flag");
    const char* value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &args.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &n) || n == 0) return usage("bad --seconds");
      args.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") {
        return usage("--trace takes 0 or 1");
      }
      args.trace = std::string_view(value) == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else {
      return usage("unknown flag");
    }
  }
  bool known = false;
  for (const std::string& name : perfbench::workload_names()) {
    known = known || name == args.workload;
  }
  if (!known) return usage("unknown or missing --workload");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }

  tp::util::JsonWriter detail;
  detail.begin_object();
  detail.key("workload").value(args.workload);
  detail.key("seed").value(args.seed);
  detail.key("trace").value(args.trace);
  detail.key("unexpected_failures")
      .value(static_cast<std::uint64_t>(report.unexpected));
  detail.key("failures").begin_array();
  for (const std::string& f : report.failures) detail.value(f);
  detail.end_array();
  detail.key("measurement").raw(report.detail_json);
  detail.end_object();
  std::printf("%s\n", detail.str().c_str());

  tp::util::JsonWriter w;
  w.begin_object();
  w.key("correct").value(report.correct());
  w.key("attempted").value(static_cast<std::uint64_t>(report.attempted));
  w.key("failed").value(static_cast<std::uint64_t>(report.failed));
  w.key("metrics").begin_object();
  for (const perfbench::Metric& m : report.metrics) {
    w.key(m.name).begin_object();
    w.key("value").value(m.value);
    w.key("unit").value(m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return report.correct() ? 0 : 1;
}
