// flow_cli — command-line front end to the conversion flow.
//
// Convert a built-in benchmark (or a structural-Verilog netlist using the
// TP_* cell library) to any of the supported design styles, report
// registers / area / timing / power, and optionally export the result:
//
//   $ ./examples/flow_cli --circuit Plasma --backend 3p --out plasma_3p.v
//   $ ./examples/flow_cli --in mydesign.v --backend ms --stats
//   $ ./examples/flow_cli --circuit s5378 --backend 3p --no-retime --no-ddcg
//   $ ./examples/flow_cli --circuit s9234 --preset no-gating
//   $ ./examples/flow_cli --list
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "src/circuits/workload.hpp"
#include "src/flow/matrix.hpp"  // lane_seed; pulls in flow.hpp
#include "src/flow/serialize.hpp"
#include "src/netlist/stats.hpp"
#include "src/netlist/verilog.hpp"
#include "src/timing/report.hpp"
#include "src/util/argparse.hpp"

using namespace tp;
using namespace tp::flow;

int main(int argc, char** argv) {
  std::string circuit, in_file, out_file, dot_file, vcd_file;
  std::string backend_text;
  std::string workload_text = "paper";
  std::string preset = "paper";
  std::size_t cycles = 192, lanes = 1;
  bool greedy = false, no_retime = false, no_cg = false, no_m1 = false;
  bool no_m2 = false, no_ddcg = false, check = false;
  bool enabled_style = false, show_stats = false, show_profile = false;
  bool list = false;

  util::ArgParser parser(
      "flow_cli", "convert a benchmark or Verilog netlist to a design "
                  "style and report registers / area / timing / power");
  parser.add_value("--circuit", &circuit, "built-in benchmark (see --list)",
                   "NAME");
  parser.add_value("--in", &in_file,
                   "structural Verilog netlist (TP_* cells)", "FILE.v");
  parser.add_value("--backend", &backend_text,
                   "conversion backend (see --list-backends; default 3p)",
                   "B");
  parser.add_value("--workload", &workload_text,
                   "paper|dhrystone|coremark (default paper)", "W");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 192)");
  parser.add_value("--lanes", &lanes,
                   "stimulus lanes, 1-64, simulated bit-parallel; the "
                   "cycle budget is split across them (default 1)");
  parser.add_value("--vcd", &vcd_file,
                   "dump a VCD of the validation simulation (first lane)",
                   "FILE.vcd");
  parser.add_value("--preset", &preset,
                   "FlowOptions preset: paper|fast|no-gating (default "
                   "paper)",
                   "P");
  parser.add_value("--out", &out_file, "write the converted netlist",
                   "FILE.v");
  parser.add_flag("--greedy", &greedy,
                  "use the greedy phase heuristic (not the ILP)");
  parser.add_flag("--no-retime", &no_retime, "skip modified retiming");
  parser.add_flag("--no-cg", &no_cg, "skip common-enable p2 clock gating");
  parser.add_flag("--no-m1", &no_m1,
                  "no M1 cells in the p2 common-enable gating (DDCG keeps "
                  "them)");
  parser.add_flag("--no-m2", &no_m2, "skip the M2 gating method");
  parser.add_flag("--no-ddcg", &no_ddcg, "skip data-driven clock gating");
  parser.add_flag("--check", &check,
                  "SEC checkpoint after each transform stage");
  parser.add_flag("--enabled-style", &enabled_style,
                  "synthesize enables as muxes (Fig. 2(a))");
  parser.add_flag("--stats", &show_stats, "print structural statistics");
  parser.add_flag("--profile", &show_profile,
                  "print the slack profile/histogram");
  parser.add_value("--dot", &dot_file,
                   "write the register graph (Graphviz)", "FILE.dot");
  parser.add_flag("--list", &list, "list built-in benchmarks and exit");
  bool list_backends = false;
  parser.add_flag("--list-backends", &list_backends,
                  "list registered conversion backends and exit");
  parser.parse_or_exit(argc, argv);

  if (list) {
    for (const auto& name : circuits::benchmark_names()) {
      std::printf("%s\n", name.c_str());
    }
    return 0;
  }
  if (list_backends) {
    for (const ConversionBackend* backend : backend_registry()) {
      std::printf("%-4s %-4s %s\n", std::string(backend->token()).c_str(),
                  std::string(backend->display_name()).c_str(),
                  std::string(backend->description()).c_str());
    }
    return 0;
  }

  FlowOptions options;
  if (preset == "paper") {
    options = FlowOptions::paper_defaults();
  } else if (preset == "fast") {
    options = FlowOptions::fast();
  } else if (preset == "no-gating") {
    options = FlowOptions::no_gating();
  } else {
    std::fprintf(stderr, "unknown --preset '%s'\n%s", preset.c_str(),
                 parser.usage().c_str());
    return 2;
  }
  if (greedy) options.assign.method = AssignMethod::kGreedy;
  if (no_retime) options.retime = false;
  if (no_cg) options.p2_common_enable_cg = false;
  if (no_m1) options.use_m1 = false;
  if (no_m2) options.use_m2 = false;
  if (no_ddcg) options.ddcg = false;
  if (check) options.check_equivalence = true;
  if (enabled_style) options.synthesis_cg.style = CgStyle::kEnabled;

  const std::string token = !backend_text.empty() ? backend_text : "3p";
  DesignStyle style;
  if (!style_from_name(token, &style)) {
    std::fprintf(stderr, "unknown --backend '%s' (valid: %s)\n%s",
                 token.c_str(), backend_token_list().c_str(),
                 parser.usage().c_str());
    return 2;
  }

  circuits::Workload workload = circuits::Workload::kPaperDefault;
  if (workload_text == "dhrystone") {
    workload = circuits::Workload::kDhrystone;
  } else if (workload_text == "coremark") {
    workload = circuits::Workload::kCoremark;
  } else if (workload_text != "paper") {
    std::fprintf(stderr, "unknown --workload '%s'\n%s",
                 workload_text.c_str(), parser.usage().c_str());
    return 2;
  }

  try {
    circuits::Benchmark bench{"custom", "custom", Netlist("custom"), 0, ""};
    if (!circuit.empty()) {
      bench = circuits::make_benchmark(circuit);
    } else if (!in_file.empty()) {
      std::ifstream in(in_file);
      require(in.good(), "cannot open " + in_file);
      bench.netlist = read_verilog(in);
      bench.name = bench.netlist.name();
      bench.period_ps = bench.netlist.clocks().period_ps;
      require(bench.period_ps > 0,
              "netlist carries no tp-clock directive (clock plan unknown)");
    } else {
      std::fprintf(stderr, "one of --circuit or --in is required\n%s",
                   parser.usage().c_str());
      return 2;
    }

    if (lanes < 1 || lanes > kMaxSimLanes) {
      std::fprintf(stderr, "--lanes must be in [1, 64]\n%s",
                   parser.usage().c_str());
      return 2;
    }
    std::ofstream vcd_out;
    if (!vcd_file.empty()) {
      vcd_out.open(vcd_file);
      require(vcd_out.good(), "cannot open " + vcd_file);
      options.vcd = &vcd_out;
    }
    // Same split as RunPlan::lanes: the cycle budget is divided across
    // lanes, lane 0 keeping the single-lane seed.
    const std::size_t per_lane = (cycles + lanes - 1) / lanes;
    std::vector<Stimulus> stims;
    stims.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      stims.push_back(circuits::make_stimulus(bench, workload, per_lane,
                                              lane_seed(7, l)));
    }
    const FlowResult r = run_flow(bench, style, stims, options);

    std::printf("%s -> %s\n", bench.name.c_str(),
                std::string(style_name(style)).c_str());
    std::printf("  registers        %d\n", r.registers);
    std::printf("  area             %.0f um2\n", r.area_um2);
    std::printf("  power            %.3f mW (clock %.3f, seq %.3f, comb "
                "%.3f)\n",
                r.power.total_mw(), r.power.clock_mw, r.power.seq_mw,
                r.power.comb_mw);
    std::printf("  timing           setup %s (%.0f ps), hold %s (%.0f ps)\n",
                r.timing.setup_ok ? "OK" : "FAIL",
                r.timing.worst_setup_slack_ps,
                r.timing.hold_ok ? "OK" : "FAIL",
                r.timing.worst_hold_slack_ps);
    if (options.hold_repair) {
      std::printf("  hold repair      %d buffer(s) in %d pass(es)\n",
                  r.hold.buffers_inserted, r.hold.passes);
    }
    const StepTimes& t = r.times;
    std::printf("  stage times      synthesis %.3f, convert %.3f (ILP %.3f), "
                "retime %.3f, gating %.3f, hold %.3f, sta %.3f, place "
                "%.3f, cts %.3f, sim %.3f, power %.3f, sec %.3f, lint "
                "%.3f, total %.3f s\n",
                t.synthesis_s, t.convert_s, t.ilp_s, t.retime_s,
                t.clock_gating_s, t.hold_s, t.timing_s, t.place_s, t.cts_s,
                t.sim_s, t.power_s, t.equiv_s, t.lint_s, t.total_s());
    if (style == DesignStyle::kTwoPhase) {
      std::printf("  duplicated ICGs  %d (clkbar side)\n",
                  r.duplicated_icgs);
    }
    if (style == DesignStyle::kDetFf) {
      std::printf("  clock dividers   %d\n", r.dividers);
    }
    if (style == DesignStyle::kThreePhase) {
      std::printf("  inserted p2      %d (retimed %d, merged to %d)\n",
                  r.inserted_p2, r.retime.moved, r.retime.latches_after);
      std::printf("  clock gating     %d common-enable, %d DDCG, M2 %d/%d\n",
                  r.p2_gating.p2_latches_gated, r.ddcg.latches_gated,
                  r.m2.converted, r.m2.converted + r.m2.kept);
    }
    if (options.check_equivalence) {
      for (const StageCheck& stage : r.equiv.stages) {
        const equiv::SecStats& sec = stage.result.stats;
        std::printf("  SEC %-12s %s (%.2f s, sat_calls %lld, sat_conflicts "
                    "%lld, sat_decisions %lld, sat_propagations %lld, "
                    "bmc_depth %d)%s%s\n",
                    stage.stage.c_str(),
                    std::string(equiv::status_name(stage.result.status))
                        .c_str(),
                    stage.seconds, static_cast<long long>(sec.sat_calls),
                    static_cast<long long>(sec.sat_conflicts),
                    static_cast<long long>(sec.sat_decisions),
                    static_cast<long long>(sec.sat_propagations), sec.bmc_depth,
                    stage.result.detail.empty() ? "" : " — ",
                    stage.result.detail.c_str());
      }
      if (const StageCheck* failed = r.equiv.first_failure()) {
        std::fprintf(stderr, "equivalence lost at stage '%s': %s\n",
                     failed->stage.c_str(), failed->result.detail.c_str());
        return 1;
      }
    }
    if (show_stats) {
      std::printf("\n%s", format_stats(compute_stats(r.netlist)).c_str());
    }
    if (show_profile) {
      std::printf("\n%s",
                  format_profile(
                      profile_timing(r.netlist, CellLibrary::nominal_28nm()),
                      10)
                      .c_str());
    }
    if (!dot_file.empty()) {
      std::ofstream dot(dot_file);
      write_register_graph_dot(r.netlist, dot);
      std::printf("  wrote            %s\n", dot_file.c_str());
    }
    if (!out_file.empty()) {
      std::ofstream out(out_file);
      write_verilog(r.netlist, out);
      std::printf("  wrote            %s\n", out_file.c_str());
    }
    if (!vcd_file.empty()) {
      std::printf("  wrote            %s\n", vcd_file.c_str());
    }
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
