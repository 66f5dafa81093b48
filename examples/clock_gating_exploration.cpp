// Clock-gating exploration: sweep the DDCG toggle threshold and maximum CG
// fanout on a crypto core and report the power impact of each setting —
// the tuning questions Sec. IV-D leaves to the designer.
//
//   $ ./examples/clock_gating_exploration [benchmark]
#include <cstdio>
#include <string>

#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

FlowResult run_with(const circuits::Benchmark& bench,
                    const Stimulus& stimulus, const DdcgOptions& ddcg,
                    bool ddcg_enabled) {
  FlowOptions options;
  options.ddcg = ddcg_enabled;
  options.ddcg_options = ddcg;
  return run_flow(bench, DesignStyle::kThreePhase, stimulus, options);
}

int run(int argc, char** argv) {
  const std::string name = argc > 1 ? argv[1] : "DES3";
  const circuits::Benchmark bench = circuits::make_benchmark(name);
  const Stimulus stimulus = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 192, 7);

  std::printf("%s: DDCG design-space sweep (3-phase design)\n\n",
              name.c_str());
  std::printf("%-28s %8s %8s %10s\n", "configuration", "gated", "groups",
              "total mW");

  const FlowResult off = run_with(bench, stimulus, {}, false);
  std::printf("%-28s %8d %8d %10.3f\n", "DDCG off", 0, 0,
              off.power.total_mw());

  for (const double threshold : {0.002, 0.01, 0.05, 0.2}) {
    DdcgOptions ddcg;
    ddcg.toggle_threshold = threshold;
    const FlowResult r = run_with(bench, stimulus, ddcg, true);
    std::printf("threshold %-17.3f %8d %8d %10.3f\n", threshold,
                r.ddcg.latches_gated, r.ddcg.groups, r.power.total_mw());
  }
  for (const int fanout : {4, 16, 32, 64}) {
    DdcgOptions ddcg;
    ddcg.max_fanout = fanout;
    const FlowResult r = run_with(bench, stimulus, ddcg, true);
    std::printf("max fanout %-16d %8d %8d %10.3f\n", fanout,
                r.ddcg.latches_gated, r.ddcg.groups, r.power.total_mw());
  }
  std::printf("\n(The paper uses threshold 1%% of the clock and fanout 32.)\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\nusage: %s [benchmark]\n",
                 e.what(), argv[0]);
    return 2;
  }
}
