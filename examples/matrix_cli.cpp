// matrix_cli — parallel benchmark x style sweeps over the flow engine.
//
// Describe a RunPlan on the command line (which circuits, which design
// styles, shared flow options) and execute it on the executor, printing
// one row per task plus throughput totals:
//
//   $ ./examples/matrix_cli                          # all benchmarks, ff/ms/3p
//   $ ./examples/matrix_cli --circuit s5378 --circuit s9234 --backend 3p
//   $ ./examples/matrix_cli --threads 8 --cycles 96 --check-rules
//   $ ./examples/matrix_cli --preset fast --json
//
// Results are bit-identical for any --threads value (see
// docs/parallelism.md for the determinism contract).
//
// A failing task (unknown benchmark, flow error) does not abort the
// sweep: its error is captured per-cell (MatrixResult::error), printed as
// a row, and turns the exit status nonzero. SIGINT/SIGTERM cancel the
// remaining queued tasks, drain the ones already running, print what
// completed, and exit 130.
//
// Exit status: 0 on success, 1 when any task fails or fails its opt-in
// SEC/lint checks, 2 on usage errors, 130 on signal cancellation.
#include <atomic>
#include <csignal>
#include <cstdio>
#include <string>
#include <vector>

#include "src/flow/matrix.hpp"
#include "src/flow/serialize.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"
#include "src/util/json.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> circuits_arg, backends_arg;
  std::string workload_text = "paper";
  std::string preset = "paper";
  std::size_t cycles = 96, threads = 0, seed = 7, lanes = 1;
  bool check_sec = false, check_rules = false, json = false;

  util::ArgParser parser(
      "matrix_cli", "run a benchmarks x styles matrix of conversion flows "
                    "in parallel and report per-task metrics");
  parser.add_list("--circuit", &circuits_arg,
                  "benchmark to include (repeatable; default all)", "NAME");
  parser.add_list("--backend", &backends_arg,
                  "conversion backend to include: ff|ms|3p|pl|2p|det "
                  "(repeatable; default ff ms 3p)",
                  "B");
  parser.add_value("--workload", &workload_text,
                   "paper|dhrystone|coremark (default paper)", "W");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 96)");
  parser.add_value("--seed", &seed,
                   "base stimulus seed; tasks derive their own (default 7)");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes per task, 1-64; lanes >= 2 split the "
                   "cycle budget across a bit-parallel wide simulation "
                   "(default 1)");
  parser.add_value("--threads", &threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.add_value("--preset", &preset,
                   "FlowOptions preset: paper|fast|no-gating (default "
                   "paper)",
                   "P");
  parser.add_flag("--check", &check_sec,
                  "SEC checkpoint after each transform stage");
  parser.add_flag("--check-rules", &check_rules,
                  "rule-check after each transform stage");
  parser.add_flag("--json", &json, "emit one JSON object per task");
  parser.parse_or_exit(argc, argv);

  RunPlan plan;
  plan.benchmarks = circuits_arg;
  plan.cycles = cycles;
  plan.stimulus_seed = seed;
  plan.lanes = lanes;
  plan.cancel = &g_stop;
  if (lanes < 1 || lanes > kMaxSimLanes) {
    std::fprintf(stderr, "--lanes must be in [1, 64]\n%s",
                 parser.usage().c_str());
    return 2;
  }
  if (!backends_arg.empty()) {
    plan.styles.clear();
    for (const std::string& text : backends_arg) {
      DesignStyle style;
      if (!style_from_name(text, &style)) {
        std::fprintf(stderr, "unknown --backend '%s' (valid: %s)\n%s",
                     text.c_str(), backend_token_list().c_str(),
                     parser.usage().c_str());
        return 2;
      }
      plan.styles.push_back(style);
    }
  }
  if (!options_from_preset(preset, &plan.options)) {
    std::fprintf(stderr, "unknown --preset '%s'\n%s", preset.c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (!workload_from_name(workload_text, &plan.workload)) {
    std::fprintf(stderr, "unknown --workload '%s'\n%s",
                 workload_text.c_str(), parser.usage().c_str());
    return 2;
  }
  plan.options.check_equivalence = check_sec;
  plan.options.check_rules = check_rules;

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  try {
    util::Executor executor(threads);
    Stopwatch wall;
    const std::vector<MatrixResult> results = run_matrix(plan, executor);
    const double wall_s = wall.seconds();

    int failures = 0;
    int errors = 0;
    if (!json) {
      std::printf("%-8s %-5s | %7s %10s %8s %10s | %7s | %s\n", "design",
                  "style", "regs", "area", "power", "hash", "time", "checks");
    }
    for (const MatrixResult& r : results) {
      if (!r.ok()) {
        ++errors;
        if (json) {
          util::JsonWriter w;
          w.begin_object();
          w.key("design").value(r.task.benchmark);
          w.key("style").value(style_token(r.task.style));
          w.key("ok").value(false);
          w.key("error").value(r.error);
          w.end_object();
          std::printf("%s\n", w.take().c_str());
        } else {
          std::printf("%-8s %-5s | ERROR %s\n", r.task.benchmark.c_str(),
                      std::string(style_name(r.task.style)).c_str(),
                      r.error.c_str());
        }
        std::fflush(stdout);
        continue;
      }
      const char* verdict = "-";
      if (check_sec || check_rules) {
        const bool ok = (!check_sec || r.result.equiv.all_proven()) &&
                        (!check_rules || r.result.lint.all_clean());
        verdict = ok ? "ok" : "FAIL";
        if (!ok) ++failures;
      }
      if (json) {
        std::printf(
            "{\"design\":\"%s\",\"style\":\"%s\",\"seed\":%llu,"
            "\"registers\":%d,\"area_um2\":%.1f,\"power_mw\":%.4f,"
            "\"stream_hash\":\"%016llx\",\"seconds\":%.3f,"
            "\"checks\":\"%s\"}\n",
            r.task.benchmark.c_str(),
            std::string(style_name(r.task.style)).c_str(),
            static_cast<unsigned long long>(r.task.seed),
            r.result.registers, r.result.area_um2,
            r.result.power.total_mw(),
            static_cast<unsigned long long>(stream_hash(r.result.outputs)),
            r.seconds, verdict);
      } else {
        std::printf("%-8s %-5s | %7d %10.0f %8.3f %010llx | %6.2fs | %s\n",
                    r.task.benchmark.c_str(),
                    std::string(style_name(r.task.style)).c_str(),
                    r.result.registers, r.result.area_um2,
                    r.result.power.total_mw(),
                    static_cast<unsigned long long>(
                        stream_hash(r.result.outputs) & 0xffffffffffULL),
                    r.seconds, verdict);
      }
      std::fflush(stdout);
    }
    const bool canceled = g_stop.load(std::memory_order_relaxed);
    if (!json) {
      std::printf("\n%zu tasks on %zu thread(s): %.2f s wall, %.2f "
                  "tasks/s\n",
                  results.size(), executor.thread_count(), wall_s,
                  wall_s > 0 ? results.size() / wall_s : 0.0);
      if (errors > 0) std::printf("%d task(s) ERRORED\n", errors);
      if (failures > 0) {
        std::printf("%d task(s) FAILED their checks\n", failures);
      }
      if (canceled) std::printf("sweep canceled by signal\n");
    }
    if (canceled) return 130;
    return failures == 0 && errors == 0 ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
