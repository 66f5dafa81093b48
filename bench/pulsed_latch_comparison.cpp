// Extension bench: the pulsed-latch alternative discussed in Sec. I,
// compared head-to-head with the FF, master-slave, and 3-phase backends.
// Pulsed latches are as small as 3-phase latches but pay the hold-padding
// bill the paper warns about ("subject to hold problems"): every short
// register-to-register path needs buffers to outlast the pulse. The table
// makes that cost and the remaining power gap visible.
//
// Runs as one RunPlan on the executor; rows stream out in task order.
// --lanes >= 2 splits the cycle budget across a bit-parallel wide
// simulation.
//
//   $ ./bench/pulsed_latch_comparison --cycles 128 --lanes 4
#include <cstdio>
#include <map>
#include <string>

#include "src/flow/matrix.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"

using namespace tp;
using namespace tp::flow;

int main(int argc, char** argv) {
  std::size_t cycles = 128, lanes = 1, threads = 0;

  util::ArgParser parser(
      "pulsed_latch_comparison",
      "compare the pulsed-latch backend against FF and 3-phase");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 128)");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes per task, 1-64 (default 1)");
  parser.add_value("--threads", &threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.parse_or_exit(argc, argv);

  RunPlan plan;
  plan.benchmarks = {"s5378", "s13207", "s35932", "SHA256", "Plasma"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kPulsedLatch,
                 DesignStyle::kThreePhase};
  plan.cycles = cycles;
  plan.lanes = lanes;

  std::printf("Pulsed-latch comparison (extension; Sec. I discussion)\n\n");
  std::printf("%-8s %-4s %7s %8s %9s %9s %9s %6s\n", "design", "style",
              "regs", "holdbuf", "area um2", "total mW", "slack ps", "eq?");

  util::Executor executor(threads);
  const std::vector<MatrixResult> results = run_matrix(plan, executor);

  // Streams are comparable across backends of one benchmark: RunPlan
  // derives the stimulus seed from the benchmark only.
  std::map<std::string, const FlowResult*> reference;
  int mismatches = 0, errors = 0;
  for (const MatrixResult& r : results) {
    if (!r.ok()) {
      std::printf("%-8s %-4s ERROR %s\n", r.task.benchmark.c_str(),
                  std::string(style_name(r.task.style)).c_str(),
                  r.error.c_str());
      ++errors;
      continue;
    }
    bool eq = true;
    if (r.task.style == DesignStyle::kFlipFlop) {
      reference[r.task.benchmark] = &r.result;
    } else if (const FlowResult* ff = reference[r.task.benchmark]) {
      eq = streams_equal(ff->outputs, r.result.outputs);
      if (!eq) ++mismatches;
    }
    std::printf("%-8s %-4s %7d %8d %9.0f %9.3f %9.0f %6s\n",
                r.task.benchmark.c_str(),
                std::string(style_name(r.task.style)).c_str(),
                r.result.registers, r.result.hold.buffers_inserted,
                r.result.area_um2, r.result.power.total_mw(),
                r.result.timing.worst_setup_slack_ps, eq ? "yes" : "NO");
    std::fflush(stdout);
  }
  std::printf("\nPulsed latches need hold padding on every fast path; the "
              "3-phase scheme avoids it with non-overlapping windows.\n");
  return mismatches == 0 && errors == 0 ? 0 : 1;
}
