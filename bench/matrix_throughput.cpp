// Matrix-engine throughput benchmark and parallel-determinism gate.
//
// Runs the lint_smoke matrix (every built-in benchmark x the paper's three
// design styles, per-stage rule checking on) twice through the flow-matrix
// engine — once serially, once on an N-thread executor — verifies the two
// result sets are bit-identical (registers, area, power components, output
// stream hash), and writes a BENCH_matrix.json record: tasks/sec, speedup
// vs the serial run, and the per-stage wall-clock histogram. CI runs this
// and fails the build on any serial/parallel divergence; the JSON is
// uploaded as an artifact to track the perf trajectory over time.
//
// It also gates the stopwatch identity of the parallel pass: every task
// runs whole on one thread, so the tasks' seconds sum to at most
// (workers + the calling thread, which helps) x wall. A ratio above
// kMaxStopwatchRatio means some thread's stopwatch counted another
// thread's work, i.e. a join nested inside a stage.
//
// With --lanes N >= 2 every task simulates N stimulus lanes bit-parallel
// (RunPlan::lanes) in one WideSimulator pass; the serial and parallel
// passes must still match bit-for-bit.
//
//   $ ./bench/matrix_throughput [--cycles N] [--threads N] [--lanes N]
//                               [--out FILE]
//
// Exit status: 0 when every pass is bit-identical and the stopwatch identity
// holds, 1 otherwise.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "src/flow/matrix.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"
#include "src/util/json.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

constexpr double kMaxStopwatchRatio = 1.05;

std::uint64_t bits(double value) {
  std::uint64_t out;
  std::memcpy(&out, &value, sizeof(out));
  return out;
}

/// Bit-exact comparison of everything the tables report; returns a
/// human-readable description of the first difference, or "".
std::string compare(const MatrixResult& serial, const MatrixResult& parallel) {
  const FlowResult& a = serial.result;
  const FlowResult& b = parallel.result;
  if (a.registers != b.registers) return "register count";
  if (bits(a.area_um2) != bits(b.area_um2)) return "area";
  if (bits(a.power.clock_mw) != bits(b.power.clock_mw) ||
      bits(a.power.seq_mw) != bits(b.power.seq_mw) ||
      bits(a.power.comb_mw) != bits(b.power.comb_mw)) {
    return "power breakdown";
  }
  if (stream_hash(a.outputs) != stream_hash(b.outputs)) {
    return "output stream";
  }
  if (a.lint.stages.size() != b.lint.stages.size()) return "lint stages";
  for (std::size_t i = 0; i < a.lint.stages.size(); ++i) {
    if (a.lint.stages[i].stage != b.lint.stages[i].stage ||
        a.lint.stages[i].report.errors != b.lint.stages[i].report.errors ||
        a.lint.stages[i].report.warnings !=
            b.lint.stages[i].report.warnings) {
      return "lint report";
    }
  }
  return "";
}

struct StageSums {
  double synthesis = 0, ilp = 0, convert = 0, retime = 0, cg = 0, hold = 0;
  double timing = 0, place = 0, cts = 0, sim = 0, lint = 0;

  void add(const StepTimes& t) {
    synthesis += t.synthesis_s;
    ilp += t.ilp_s;
    convert += t.convert_s;
    retime += t.retime_s;
    cg += t.clock_gating_s;
    hold += t.hold_s;
    timing += t.timing_s;
    place += t.place_s;
    cts += t.cts_s;
    sim += t.sim_s;
    lint += t.lint_s;
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::size_t cycles = 48, threads = 0, lanes = 1;
  std::string out_file = "BENCH_matrix.json";

  util::ArgParser parser(
      "matrix_throughput",
      "run the lint_smoke matrix serially and on N threads, verify "
      "bit-identical results, and record throughput in BENCH_matrix.json");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 48)");
  parser.add_value("--threads", &threads,
                   "worker threads for the parallel pass (default "
                   "TP_THREADS or hardware)");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes per task, 1-64 (default 1)");
  parser.add_value("--out", &out_file,
                   "JSON output path (default BENCH_matrix.json)", "FILE");
  parser.parse_or_exit(argc, argv);

  if (threads == 0) threads = util::Executor::default_thread_count();
  if (lanes < 1 || lanes > kMaxSimLanes) {
    std::fprintf(stderr, "--lanes must be in [1, 64]\n%s",
                 parser.usage().c_str());
    return 2;
  }

  RunPlan plan;
  plan.cycles = cycles;
  plan.lanes = lanes;
  plan.options.check_rules = true;
  // The per-lane split must leave post-warmup cycles to compare.
  const std::size_t per_lane = (cycles + lanes - 1) / lanes;
  if (per_lane <= plan.options.warmup_cycles) {
    plan.options.warmup_cycles = per_lane / 2;
  }

  std::printf("matrix_throughput: %zu tasks, %zu cycles, %zu lane(s), %zu "
              "thread(s)\n",
              plan.tasks().size(), cycles, lanes, threads);

  Stopwatch wall;
  const std::vector<MatrixResult> serial = run_matrix(plan);
  const double serial_s = wall.seconds();
  std::printf("  serial    %7.2f s (%.2f tasks/s)\n", serial_s,
              serial.size() / serial_s);
  std::fflush(stdout);

  wall.reset();
  std::vector<MatrixResult> parallel;
  {
    util::Executor executor(threads);
    parallel = run_matrix(plan, executor);
  }
  const double parallel_s = wall.seconds();
  const double speedup = parallel_s > 0 ? serial_s / parallel_s : 0.0;
  std::printf("  parallel  %7.2f s (%.2f tasks/s, %.2fx vs serial)\n",
              parallel_s, parallel.size() / parallel_s, speedup);
  double sum_task_s = 0;
  for (const MatrixResult& r : parallel) sum_task_s += r.seconds;
  const double stopwatch_ratio =
      parallel_s > 0
          ? sum_task_s / (static_cast<double>(threads + 1) * parallel_s)
          : 0.0;
  std::printf("  tasks     %7.2f s summed = %.3f x wall x %zu threads "
              "(workers + caller)\n",
              sum_task_s, stopwatch_ratio, threads + 1);

  int divergent = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const std::string diff = compare(serial[i], parallel[i]);
    if (diff.empty()) continue;
    ++divergent;
    std::fprintf(stderr,
                 "DIVERGENCE: %s/%s differs between serial and %zu-thread "
                 "runs (%s)\n",
                 serial[i].task.benchmark.c_str(),
                 std::string(style_name(serial[i].task.style)).c_str(),
                 threads, diff.c_str());
  }

  // Histogram from the serial pass: parallel-run stage stopwatches are
  // inflated by core contention, the serial ones measure the real work.
  StageSums stages;
  for (const MatrixResult& r : serial) stages.add(r.result.times);

  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("matrix_throughput");
  w.key("tasks").value(static_cast<std::uint64_t>(serial.size()));
  w.key("cycles").value(static_cast<std::uint64_t>(cycles));
  w.key("lanes").value(static_cast<std::uint64_t>(lanes));
  w.key("threads").value(static_cast<std::uint64_t>(threads));
  w.key("serial_s").value(serial_s);
  w.key("parallel_s").value(parallel_s);
  w.key("speedup").value(speedup);
  w.key("tasks_per_s").value(parallel.size() / parallel_s);
  w.key("sum_task_s").value(sum_task_s);
  w.key("stopwatch_ratio").value(stopwatch_ratio);
  w.key("identical").value(divergent == 0);
  w.key("stage_seconds").begin_object();
  w.key("synthesis").value(stages.synthesis);
  w.key("ilp").value(stages.ilp);
  w.key("convert").value(stages.convert);
  w.key("retime").value(stages.retime);
  w.key("clock_gating").value(stages.cg);
  w.key("hold").value(stages.hold);
  w.key("timing").value(stages.timing);
  w.key("place").value(stages.place);
  w.key("cts").value(stages.cts);
  w.key("sim").value(stages.sim);
  w.key("lint").value(stages.lint);
  w.end_object();
  w.end_object();
  out << w.take() << "\n";
  std::printf("  wrote     %s\n", out_file.c_str());

  if (divergent > 0) {
    std::fprintf(stderr, "%d/%zu tasks diverged across thread counts\n",
                 divergent, serial.size());
    return 1;
  }
  if (stopwatch_ratio > kMaxStopwatchRatio) {
    std::fprintf(stderr,
                 "task seconds sum to %.3f x wall x threads (allow %.2f): "
                 "a stage joins work on other threads\n",
                 stopwatch_ratio, kMaxStopwatchRatio);
    return 1;
  }
  std::printf("  identical %zu/%zu tasks bit-identical across thread "
              "counts\n",
              serial.size(), serial.size());
  return 0;
}
