// Quickstart: convert a hand-built FF pipeline to a 3-phase latch design,
// validate it by stream comparison, and print what the flow did.
//
//   $ ./examples/quickstart
#include <cstdio>

#include "src/netlist/traverse.hpp"
#include "src/sim/stimulus.hpp"
#include "src/timing/sta.hpp"
#include "src/transform/convert.hpp"

using namespace tp;

namespace {

/// A 6-stage FF pipeline with an XOR per stage — the linear-pipeline case
/// of the paper's Fig. 1.
Netlist build_pipeline() {
  Netlist nl("pipeline6");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(/*period_ps=*/1500, nl.cell(clk).out);

  const CellId in = nl.add_input("in");
  const CellId key = nl.add_input("key");
  NetId data = nl.cell(in).out;
  for (int stage = 0; stage < 6; ++stage) {
    const CellId x = nl.add_gate(CellKind::kXor2,
                                 "mix" + std::to_string(stage),
                                 {data, nl.cell(key).out});
    const NetId q = nl.add_net("q" + std::to_string(stage));
    nl.add_cell(CellKind::kDff, "stage" + std::to_string(stage),
                {nl.cell(x).out, nl.cell(clk).out}, q, Phase::kClk);
    data = q;
  }
  nl.add_output("out", data);
  return nl;
}

}  // namespace

int main() {
  const Netlist ff = build_pipeline();
  std::printf("FF design: %zu flip-flops, %zu cells\n",
              ff.registers().size(), ff.live_cells().size());

  // Convert: the ILP decides which positions become single p1 latches.
  const ThreePhaseResult converted = to_three_phase(ff);
  const Netlist& latch_design = converted.netlist;
  std::printf("3-phase design: %zu latches (%d inserted p2), optimal=%s\n",
              latch_design.registers().size(), converted.inserted_p2,
              converted.assignment.optimal ? "yes" : "no");
  for (std::size_t u = 0; u < converted.assignment.k.size(); ++u) {
    std::printf("  position %zu: %s latch%s\n", u,
                converted.assignment.k[u] ? "p1" : "p3",
                converted.assignment.g[u] ? " + p2 follower" : "");
  }

  // Validate by streaming the same inputs through both designs (Sec. V).
  Rng rng(2024);
  const Stimulus stimulus = random_stimulus(2, 256, rng, 0.4);
  Simulator ff_sim(ff);
  Simulator latch_sim(latch_design);
  const bool equal = streams_equal(run_stream(ff_sim, stimulus, 8),
                                   run_stream(latch_sim, stimulus, 8));
  std::printf("output streams identical: %s\n", equal ? "YES" : "NO");

  // Both designs meet the same cycle time (constraint C3).
  const CellLibrary& lib = CellLibrary::nominal_28nm();
  std::printf("FF      setup slack: %+6.0f ps\n",
              check_timing(ff, lib).worst_setup_slack_ps);
  std::printf("3-phase setup slack: %+6.0f ps\n",
              check_timing(latch_design, lib).worst_setup_slack_ps);
  return equal ? 0 : 1;
}
