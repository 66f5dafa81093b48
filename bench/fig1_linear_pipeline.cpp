// Reproduces Fig. 1: converting a linear FF pipeline adds exactly one p2
// latch stage for every other original stage — the provable minimum under
// constraints C1-C3. Sweeps pipeline depth, prints the latch counts, and
// verifies stream equivalence at each depth.
//
//   $ ./bench/fig1_linear_pipeline [max_depth]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "src/sim/stimulus.hpp"
#include "src/transform/convert.hpp"

using namespace tp;

namespace {

Netlist linear_pipeline(int depth) {
  // A pure linear pipeline (Fig. 1(a)): one input chain, per-stage logic
  // that does not introduce extra cross-stage fanin (an inverter), so the
  // provable minimum of one inserted latch per two boundaries applies.
  Netlist nl("pipe" + std::to_string(depth));
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1500, nl.cell(clk).out);
  const CellId in = nl.add_input("in");
  NetId d = nl.cell(in).out;
  for (int i = 0; i < depth; ++i) {
    const CellId x =
        nl.add_gate(CellKind::kInv, "x" + std::to_string(i), {d});
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i),
                {nl.cell(x).out, nl.cell(clk).out}, q, Phase::kClk);
    d = q;
  }
  nl.add_output("out", d);
  return nl;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_depth = argc > 1 ? std::atoi(argv[1]) : 32;
  std::printf("Fig. 1 — linear pipeline conversion (minimum: one inserted "
              "p2 per two boundaries)\n\n");
  std::printf("%6s %6s %10s %10s %10s %8s\n", "depth", "FFs", "3P latches",
              "inserted", "minimum", "equal?");
  bool all_min = true, all_equal = true;
  for (int depth = 1; depth <= max_depth; ++depth) {
    const Netlist ff = linear_pipeline(depth);
    const ThreePhaseResult r = to_three_phase(ff);
    // Boundaries = depth FFs plus the PI treated as a p1 source; the
    // minimum inserted latches is ceil((depth + 1) / 2).
    const int minimum = (depth + 1) / 2;

    Rng rng(static_cast<std::uint64_t>(depth));
    const Stimulus stim = random_stimulus(1, 96, rng, 0.5);
    Simulator ff_sim(ff);
    Simulator p3_sim(r.netlist);
    const bool equal = streams_equal(run_stream(ff_sim, stim, 8),
                                     run_stream(p3_sim, stim, 8));
    std::printf("%6d %6d %10zu %10d %10d %8s\n", depth, depth,
                r.netlist.registers().size(), r.inserted_p2, minimum,
                equal ? "yes" : "NO");
    all_min &= (r.inserted_p2 == minimum);
    all_equal &= equal;
  }
  std::printf("\nILP reaches the provable minimum at every depth: %s\n",
              all_min ? "YES" : "NO");
  std::printf("all depths stream-equivalent to the FF pipeline: %s\n",
              all_equal ? "YES" : "NO");
  return all_min && all_equal ? 0 : 1;
}
