// Design inspection: structural statistics, slack profiles, phase-schedule
// exploration, and DOT export for a converted design — the debugging
// toolbox around the conversion flow.
//
//   $ ./examples/design_inspection [benchmark] [regs.dot]
#include <cstdio>
#include <fstream>
#include <string>

#include "src/circuits/benchmark.hpp"
#include "src/netlist/stats.hpp"
#include "src/phase/schedule.hpp"
#include "src/timing/report.hpp"
#include "src/transform/buffering.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/retime/retime.hpp"

using namespace tp;

namespace {

int run(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "s9234";
  const CellLibrary& lib = CellLibrary::nominal_28nm();

  circuits::Benchmark bench = circuits::make_benchmark(name);
  infer_clock_gating(bench.netlist);
  buffer_high_fanout(bench.netlist);

  std::printf("=== %s, FF design ===\n%s\n", name.c_str(),
              format_stats(compute_stats(bench.netlist)).c_str());

  ThreePhaseResult converted = to_three_phase(bench.netlist);
  retime_inserted_latches(converted.netlist, lib);
  std::printf("=== 3-phase design ===\n%s\n",
              format_stats(compute_stats(converted.netlist)).c_str());

  std::printf("=== slack profile (3-phase) ===\n%s\n",
              format_profile(profile_timing(converted.netlist, lib), 8)
                  .c_str());

  const ScheduleExploration schedule =
      explore_phase_schedule(converted.netlist, lib, 10);
  std::printf("=== phase schedule ===\nuniform thirds: %+.0f ps worst "
              "slack\nbest (e1=%lld, e2=%lld): %+.0f ps\n\n",
              schedule.uniform.worst_setup_slack_ps,
              static_cast<long long>(schedule.best.e1_ps),
              static_cast<long long>(schedule.best.e2_ps),
              schedule.best.worst_setup_slack_ps);

  if (argc > 2) {
    std::ofstream dot(argv[2]);
    write_register_graph_dot(converted.netlist, dot);
    std::printf("register graph written to %s\n", argv[2]);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [benchmark] [regs.dot]\n",
                 e.what(), argv[0]);
    return 2;
  }
}
