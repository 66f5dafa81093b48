// CPU conversion: run the complete flow on the ARM-M0-class core in all
// three design styles and print a Table-II-style comparison.
//
//   $ ./examples/cpu_conversion [benchmark] [cycles]
#include <cstdio>
#include <string>

#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

int run(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "ArmM0";
  const std::size_t cycles =
      argc > 2 ? static_cast<std::size_t>(std::atoi(argv[2])) : 192;

  const circuits::Benchmark bench = circuits::make_benchmark(name);
  std::printf("%s (%s): %zu FFs, %zu cells, %lld ps cycle, workload \"%s\"\n",
              bench.name.c_str(), bench.suite.c_str(),
              bench.netlist.registers().size(),
              bench.netlist.live_cells().size(),
              static_cast<long long>(bench.period_ps),
              bench.paper_workload.c_str());
  const Stimulus stimulus = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, cycles, 7);

  FlowResult results[3];
  const DesignStyle styles[] = {DesignStyle::kFlipFlop,
                                DesignStyle::kMasterSlave,
                                DesignStyle::kThreePhase};
  std::printf("\n%-5s %7s %10s %8s %8s %8s %8s  %s\n", "style", "regs",
              "area um2", "clk mW", "seq mW", "comb mW", "total", "timing");
  for (int i = 0; i < 3; ++i) {
    results[i] = run_flow(bench, styles[i], stimulus);
    const FlowResult& r = results[i];
    std::printf("%-5s %7d %10.0f %8.3f %8.3f %8.3f %8.3f  %s/%s\n",
                std::string(style_name(r.style)).c_str(), r.registers,
                r.area_um2, r.power.clock_mw, r.power.seq_mw,
                r.power.comb_mw, r.power.total_mw(),
                r.timing.setup_ok ? "setup-ok" : "SETUP-FAIL",
                r.timing.hold_ok ? "hold-ok" : "HOLD-FAIL");
  }

  const double ff = results[0].power.total_mw();
  const double ms = results[1].power.total_mw();
  const double p3 = results[2].power.total_mw();
  std::printf("\n3-phase power saving: %.1f%% vs FF, %.1f%% vs M-S\n",
              100.0 * (ff - p3) / ff, 100.0 * (ms - p3) / ms);
  std::printf("conversion details: %d p2 latches inserted, %d moved by "
              "retiming, %d gated by common enables, %d ICGs lost their "
              "latch (M2), %d latches under DDCG\n",
              results[2].inserted_p2, results[2].retime.moved,
              results[2].p2_gating.p2_latches_gated, results[2].m2.converted,
              results[2].ddcg.latches_gated);
  const bool ok = equivalent(results[0], results[1]) &&
                  equivalent(results[0], results[2]);
  std::printf("all styles stream-equivalent: %s\n", ok ? "YES" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [benchmark] [cycles]\n",
                 e.what(), argv[0]);
    return 2;
  }
}
