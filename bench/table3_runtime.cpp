// Reproduces the paper's run-time discussion (Sec. V): per-step wall-clock
// decomposition of the three flows. The paper reports the 3-phase flow at
// +204% vs FF and +44% vs M-S overall, with the ILP solver below 1% of the
// total (<= 27 s with Gurobi) and clock-tree synthesis roughly 3x because
// three trees are routed. Hold repair is accounted in its own column
// (StepTimes::hold_s), separate from the STA signoff pass.
//
// The 5x3 grid runs through the flow-matrix engine. Each flow runs whole on
// one thread, so its per-step times count only its own work at any
// --threads.
//
//   $ ./bench/table3_runtime [--cycles N] [--threads N]
#include <cstdio>

#include "src/flow/matrix.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"

using namespace tp;
using namespace tp::flow;

int main(int argc, char** argv) {
  std::size_t cycles = 96, threads = 0;
  util::ArgParser parser(
      "table3_runtime",
      "reproduce the paper's per-step flow run-time decomposition");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 96)");
  parser.add_value("--threads", &threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.parse_or_exit(argc, argv);

  RunPlan plan;
  plan.benchmarks = {"s13207", "s35932", "SHA256", "Plasma", "RISCV"};
  plan.cycles = cycles;
  util::Executor executor(threads);
  const std::vector<MatrixResult> results = run_matrix(plan, executor);
  const std::size_t num_styles = plan.styles.size();

  std::printf("Run-time decomposition (seconds)\n\n");
  std::printf("%-8s %-4s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s %8s\n",
              "design", "style", "synth", "ilp", "convert", "retime", "cg",
              "hold", "place", "cts", "sta.full", "sta.inc", "total");
  double total[3] = {0, 0, 0};
  double ilp_total = 0, cts_total[3] = {0, 0, 0};
  for (std::size_t b = 0; b < plan.benchmarks.size(); ++b) {
    for (std::size_t i = 0; i < num_styles; ++i) {
      const MatrixResult& run = results[b * num_styles + i];
      const StepTimes& t = run.result.times;
      std::printf("%-8s %-4s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f "
                  "%8.3f %8.3f %8.3f %8.3f\n",
                  run.task.benchmark.c_str(),
                  std::string(style_name(run.task.style)).c_str(),
                  t.synthesis_s, t.ilp_s, t.convert_s, t.retime_s,
                  t.clock_gating_s, t.hold_s, t.place_s, t.cts_s,
                  t.sta_full_s, t.sta_incremental_s, t.total_s());
      std::fflush(stdout);
      total[i] += t.total_s();
      cts_total[i] += t.cts_s;
      if (run.task.style == DesignStyle::kThreePhase) ilp_total += t.ilp_s;
    }
  }
  std::printf("\n3-phase flow run time: %+.0f%% vs FF (paper +204%%), "
              "%+.0f%% vs M-S (paper +44%%)\n",
              100.0 * (total[2] - total[0]) / total[0],
              100.0 * (total[2] - total[1]) / total[1]);
  std::printf("ILP share of the 3-phase flow: %.1f%% (paper < 1%%)\n",
              100.0 * ilp_total / total[2]);
  std::printf("3-phase CTS vs FF CTS: %.1fx (paper ~3x, three clock "
              "trees)\n",
              cts_total[0] > 0 ? cts_total[2] / cts_total[0] : 0.0);
  return 0;
}
