#include "src/flow/flow.hpp"

#include <algorithm>

#include "src/analysis/analysis.hpp"
#include "src/flow/backend.hpp"
#include "src/netlist/traverse.hpp"
#include "src/place/placer.hpp"
#include "src/timing/incremental.hpp"

namespace tp::flow {
namespace {

/// Simulates the netlist under every stimulus lane in one bit-parallel
/// WideSimulator pass, returning the lane-major concatenation of the
/// per-lane output streams and leaving the summed-over-lanes activity in
/// `activity_out`. A VCD, when requested, records the first lane.
OutputStream simulate(const Netlist& netlist, std::span<const Stimulus> lanes,
                      std::size_t warmup, std::ostream* vcd,
                      ActivityStats* activity_out) {
  WideSimulator sim(netlist, lanes.size());
  if (vcd != nullptr) sim.start_vcd(*vcd);
  OutputStream stream = run_wide_stream(sim, pack_stimulus(lanes), warmup);
  sim.stop_vcd();
  if (activity_out) *activity_out = sim.stats();
  return stream;
}

/// The StepTimes field a checkpoint closes. Stages a backend adds later
/// count as conversion.
double& stage_time(StepTimes& times, std::string_view stage) {
  if (stage == "synthesis") return times.synthesis_s;
  if (stage == "retime") return times.retime_s;
  if (stage == "p2-gating" || stage == "m2" || stage == "ddcg") {
    return times.clock_gating_s;
  }
  if (stage == "hold-repair") return times.hold_s;
  return times.convert_s;
}

}  // namespace

FlowOptions FlowOptions::paper_defaults() { return {}; }

FlowOptions FlowOptions::fast() {
  FlowOptions options;
  options.retime = false;
  options.retime_master_slave = false;
  options.ddcg = false;
  options.hold_repair = false;
  options.warmup_cycles = 8;
  return options;
}

FlowOptions FlowOptions::no_gating() {
  FlowOptions options;
  options.p2_common_enable_cg = false;
  options.use_m1 = false;
  options.use_m2 = false;
  options.ddcg = false;
  return options;
}

std::string_view style_name(DesignStyle style) {
  return backend_for(style).display_name();
}

FlowResult run_flow(const circuits::Benchmark& benchmark, DesignStyle style,
                    const Stimulus& stimulus, const FlowOptions& options) {
  return run_flow(benchmark, style, std::span<const Stimulus>(&stimulus, 1),
                  options);
}

FlowResult run_flow(const circuits::Benchmark& benchmark, DesignStyle style,
                    std::span<const Stimulus> lanes,
                    const FlowOptions& options) {
  require(!lanes.empty() && lanes.size() <= kMaxSimLanes,
          "run_flow: stimulus lane count must be in [1, 64]");
  const ConversionBackend& backend = backend_for(style);
  CellLibrary library = CellLibrary::nominal_28nm();
  backend.adjust_library(library);
  FlowResult result;
  result.style = style;
  // The one stage clock: every StepTimes field but ilp_s is a lap of it.
  Stopwatch clock;
  const auto lap = [&](double& field) {
    const double seconds = clock.seconds();
    field += seconds;
    clock.reset();
    return seconds;
  };

  Netlist netlist = benchmark.netlist;
  // The lint cap must track the flow's own DDCG configuration, otherwise a
  // deliberately wider flow would flag its own output.
  check::CheckOptions lint_options = options.lint;
  lint_options.ddcg_max_fanout = std::max(lint_options.ddcg_max_fanout,
                                          options.ddcg_options.max_fanout);
  analysis::AnalysisOptions analysis_options;
  analysis_options.check = lint_options;
  analysis_options.timing = options.timing;
  analysis_options.borrow_budget_ps = options.borrow_budget_ps;

  // Closes a stage. The stage hook runs first, so tests can inject a fault
  // "inside" a stage and assert the checkpoint blames it; its time counts
  // toward the stage. Then SEC proves the live netlist still matches the
  // input FF design, and lint runs the structural rules, the dataflow
  // analyses, or both merged into one report; their time goes to
  // equiv_s/lint_s, and the next stage starts after them.
  const auto checkpoint = [&](std::string_view stage) {
    if (options.stage_hook) options.stage_hook(netlist, stage);
    lap(stage_time(result.times, stage));
    if (options.check_equivalence) {
      StageCheck check;
      check.stage = std::string(stage);
      check.result = equiv::check_sequential_equivalence(benchmark.netlist,
                                                         netlist, options.sec);
      check.seconds = lap(result.times.equiv_s);
      result.equiv.stages.push_back(std::move(check));
    }
    if (options.check_rules || options.check_analysis) {
      StageLint lint;
      lint.stage = std::string(stage);
      if (options.check_rules) {
        lint.report = check::run_checks(netlist, lint_options);
      }
      if (options.check_analysis) {
        lint.report.merge(analysis::run_analysis(netlist, analysis_options));
      }
      lint.seconds = lap(result.times.lint_s);
      result.lint.stages.push_back(std::move(lint));
    }
  };

  // 1. "Synthesis": lower enables to the configured clock-gating style.
  result.synthesis_cg = infer_clock_gating(netlist, options.synthesis_cg);
  result.buffering = buffer_high_fanout(netlist, options.buffering);
  checkpoint("synthesis");

  // 2. Conversion: dispatch to the style's registered backend
  // (src/flow/backend.hpp). The backend runs its whole conversion segment —
  // including style-specific retiming and clock-gating stages — calling
  // `checkpoint` to close each stage. The activity hook simulates the
  // *current* working netlist (DDCG's data dependence); the VCD option
  // applies to the final validation simulation only.
  FlowContext ctx{
      .netlist = netlist,
      .options = options,
      .library = library,
      .result = result,
      .checkpoint = checkpoint,
      .activity =
          [&]() {
            ActivityStats activity;
            simulate(netlist, lanes, options.warmup_cycles, nullptr,
                     &activity);
            return activity;
          },
  };
  backend.convert(ctx);
  lap(result.times.convert_s);  // after the backend's last checkpoint

  // 3. Hold repair, then timing signoff, through one IncrementalTimer
  // session: after a repair pass that inserted nothing, the signoff is
  // the report that pass already computed.
  IncrementalTimer timer(library, options.timing);
  if (options.hold_repair) {
    result.hold = repair_hold(netlist, library, options.timing, 10, &timer);
    checkpoint("hold-repair");
  }
  result.timing = timer.sync(netlist);
  lap(result.times.timing_s);

  // 4. Physical design: place, then one clock tree per phase.
  const Placement placement = place(netlist, library, options.place);
  lap(result.times.place_s);
  const ClockTreeReport clock_tree =
      synthesize_clock_trees(netlist, placement, options.cts);
  lap(result.times.cts_s);

  // 5. Gate-level simulation: validation stream + power activity.
  ActivityStats activity;
  result.outputs = simulate(netlist, lanes, options.warmup_cycles,
                            options.vcd, &activity);
  lap(result.times.sim_s);

  // 6. Metrics.
  result.registers = static_cast<int>(netlist.registers().size());
  result.area_um2 = library.total_area_um2(netlist) +
                    clock_tree.buffer_area_um2(library);
  result.power =
      compute_power(netlist, library, activity, &placement, &clock_tree);
  result.netlist = std::move(netlist);
  lap(result.times.power_s);
  return result;
}

std::string StreamDiff::to_string() const {
  if (equal()) return "output streams identical";
  if (length_mismatch()) {
    return "output streams differ in length: expected " +
           std::to_string(expected_cycles) + " cycles, got " +
           std::to_string(got_cycles);
  }
  return "outputs diverge at cycle " + std::to_string(cycle) + " on '" +
         output_name + "': expected " + (expected ? "1" : "0") + ", got " +
         (got ? "1" : "0");
}

StreamDiff equivalent(const FlowResult& a, const FlowResult& b) {
  StreamDiff diff;
  diff.expected_cycles = a.outputs.size();
  diff.got_cycles = b.outputs.size();
  diff.cycle = first_mismatch(a.outputs, b.outputs);
  if (diff.cycle < 0 || diff.length_mismatch()) return diff;
  const auto& row_a = a.outputs[diff.cycle];
  const auto& row_b = b.outputs[diff.cycle];
  const std::size_t width = std::min(row_a.size(), row_b.size());
  diff.output = width;  // row-length mismatch unless a cell differs below
  for (std::size_t j = 0; j < width; ++j) {
    if (row_a[j] != row_b[j]) {
      diff.output = j;
      diff.expected = row_a[j] != 0;
      diff.got = row_b[j] != 0;
      break;
    }
  }
  const auto& outs = a.netlist.outputs();
  if (diff.output < outs.size()) {
    diff.output_name = a.netlist.cell(outs[diff.output]).name;
  }
  return diff;
}

}  // namespace tp::flow
