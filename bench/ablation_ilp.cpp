// Ablation: the exact phase-assignment solver (the specialized reduction of
// the paper's ILP) against the greedy heuristic, measured by inserted p2
// latches and solver run time on every benchmark's register graph.
//
// A gate: exits 1 when either result is an illegal assignment, or when the
// specialized solver inserts more p2 latches than greedy on any design.
//
//   $ ./bench/ablation_ilp
#include <cstdio>

#include "src/circuits/benchmark.hpp"
#include "src/netlist/traverse.hpp"
#include "src/phase/assignment.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/util/log.hpp"

using namespace tp;

int main() {
  std::printf("Phase-assignment solver ablation (inserted p2 latches / "
              "seconds)\n\n");
  std::printf("%-8s %6s | %16s | %16s\n", "design", "FFs", "specialized",
              "greedy");
  int failures = 0;
  for (const auto& name : circuits::benchmark_names()) {
    circuits::Benchmark bench = circuits::make_benchmark(name);
    infer_clock_gating(bench.netlist);
    const RegisterGraph graph = build_register_graph(bench.netlist);

    Stopwatch sw;
    const PhaseAssignment spec = assign_phases_specialized(graph);
    const double spec_s = sw.seconds();

    sw.reset();
    const PhaseAssignment greedy = assign_phases_greedy(graph);
    const double greedy_s = sw.seconds();

    std::printf("%-8s %6zu | %6d%s /%6.2fs | %6d  /%6.2fs\n", name.c_str(),
                graph.regs.size(), spec.num_inserted(),
                spec.optimal ? "*" : " ", spec_s, greedy.num_inserted(),
                greedy_s);
    std::fflush(stdout);

    for (const auto& [solver, assignment] :
         {std::pair{"specialized", &spec}, std::pair{"greedy", &greedy}}) {
      try {
        validate_assignment(graph, *assignment);
      } catch (const Error& e) {
        std::fprintf(stderr, "FAIL %s: %s assignment is illegal: %s\n",
                     name.c_str(), solver, e.what());
        ++failures;
      }
    }
    if (spec.num_inserted() > greedy.num_inserted()) {
      std::fprintf(stderr,
                   "FAIL %s: specialized inserts %d p2 latches, greedy %d\n",
                   name.c_str(), spec.num_inserted(), greedy.num_inserted());
      ++failures;
    }
  }
  std::printf("\n(* = proven optimal. The paper's Gurobi runs finished "
              "within 27 s on every benchmark.)\n");
  return failures == 0 ? 0 : 1;
}
