// Extension bench: multi-bit register banking (the future work the paper's
// Sec. IV-D points at via [25]). Estimates how much additional register
// clocking power the converted 3-phase designs could save by merging
// co-located same-clock latches into 2/4/8-bit banks with shared clock
// internals.
//
// The conversions run as one RunPlan on the executor; the banking analysis
// then reuses each task's converted netlist. --lanes >= 2 splits the cycle
// budget across a bit-parallel wide simulation.
//
//   $ ./bench/ext_multibit_banking --cycles 128 --lanes 4
#include <cstdio>

#include "src/flow/matrix.hpp"
#include "src/power/banking.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"

using namespace tp;
using namespace tp::flow;

int main(int argc, char** argv) {
  std::size_t cycles = 128, lanes = 1, threads = 0;

  util::ArgParser parser(
      "ext_multibit_banking",
      "estimate multi-bit banking headroom on converted 3-phase designs");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 128)");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes per task, 1-64 (default 1)");
  parser.add_value("--threads", &threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.parse_or_exit(argc, argv);

  RunPlan plan;
  plan.benchmarks = {"s13207", "s35932", "SHA256", "Plasma", "RISCV",
                     "ArmM0"};
  plan.styles = {DesignStyle::kThreePhase};
  plan.cycles = cycles;
  plan.lanes = lanes;

  const CellLibrary& lib = CellLibrary::nominal_28nm();
  std::printf("Multi-bit banking headroom on 3-phase designs "
              "(extension)\n\n");
  std::printf("%-8s %9s %8s %6s | %12s %12s %7s\n", "design", "latches",
              "banked", "banks", "clk-reg mW", "banked mW", "save");

  util::Executor executor(threads);
  const std::vector<MatrixResult> results = run_matrix(plan, executor);

  int errors = 0;
  for (const MatrixResult& r : results) {
    if (!r.ok()) {
      std::printf("%-8s ERROR %s\n", r.task.benchmark.c_str(),
                  r.error.c_str());
      ++errors;
      continue;
    }
    // Re-derive placement and activity for the final netlist. Lane 0 keeps
    // the task's first-lane stimulus, so the activity matches the flow's.
    const circuits::Benchmark bench =
        circuits::make_benchmark(r.task.benchmark);
    const Stimulus stim = circuits::make_stimulus(
        bench, plan.workload, (cycles + lanes - 1) / lanes,
        lane_seed(r.task.seed, 0));
    const Placement placement = place(r.result.netlist, lib);
    SimOptions opt;
    opt.snapshot_event = 1;
    Simulator sim(r.result.netlist, opt);
    run_stream(sim, stim, 16);

    const BankingReport b =
        analyze_banking(r.result.netlist, lib, placement, sim.stats());
    std::printf("%-8s %9d %8d %6d | %12.3f %12.3f %6.1f%%\n",
                r.task.benchmark.c_str(), b.candidate_latches,
                b.banked_latches, b.banks, b.clock_power_before_mw,
                b.clock_power_after_mw, b.saving_pct());
    std::fflush(stdout);
  }
  std::printf("\n(Clock-register power only; the rest of the clock network "
              "is unchanged by banking.)\n");
  return errors == 0 ? 0 : 1;
}
