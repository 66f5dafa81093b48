#include "replay.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>

#include "src/analysis/analysis.hpp"
#include "src/flow/backend.hpp"
#include "src/place/placer.hpp"
#include "src/timing/incremental.hpp"

namespace perfbench {

using namespace tp;
using flow::FlowOptions;
using flow::FlowResult;

void Layers::add(std::string_view layer, double seconds) {
  auto it = busy.find(layer);
  if (it == busy.end()) it = busy.emplace(std::string(layer), 0.0).first;
  it->second += seconds;
}

void Layers::count(std::string_view name, double amount) {
  auto it = counts.find(name);
  if (it == counts.end()) it = counts.emplace(std::string(name), 0.0).first;
  it->second += amount;
}

double Layers::busy_of(std::string_view layer) const {
  const auto it = busy.find(layer);
  return it == busy.end() ? 0.0 : it->second;
}

double Layers::count_of(std::string_view name) const {
  const auto it = counts.find(name);
  return it == counts.end() ? 0.0 : it->second;
}

double Layers::covered_s() const {
  double total = 0;
  for (const auto& [layer, seconds] : busy) total += seconds;
  return total;
}

namespace {

// run_flow()'s single-lane simulation: the scalar engine, snapshotting
// multi-phase plans at their second event.
OutputStream simulate(const Netlist& netlist, const Stimulus& stimulus,
                      std::size_t warmup, ActivityStats* activity) {
  SimOptions options;
  options.snapshot_event = netlist.clocks().phases.size() >= 2 ? 1 : 0;
  Simulator sim(netlist, options);
  OutputStream stream = run_stream(sim, stimulus, warmup);
  if (activity != nullptr) *activity = sim.stats();
  return stream;
}

// The layer a checkpoint's stage name closes. Stages a backend adds later
// fall into its conversion segment.
std::string_view stage_layer(std::string_view stage) {
  if (stage == "synthesis") return "synthesis";
  if (stage == "retime") return "retime";
  if (stage == "p2-gating" || stage == "m2" || stage == "ddcg") {
    return "gating";
  }
  if (stage == "hold-repair") return "hold";
  return "convert";
}

}  // namespace

OutputStream golden_stream(const Netlist& netlist, const Stimulus& stimulus,
                           std::size_t warmup_cycles) {
  return simulate(netlist, stimulus, warmup_cycles, nullptr);
}

FlowResult replay_flow(const circuits::Benchmark& benchmark,
                       flow::DesignStyle style, const Stimulus& stimulus,
                       const FlowOptions& options, Layers& layers) {
  if (options.executor != nullptr || options.vcd != nullptr ||
      options.check_equivalence || options.stage_hook) {
    throw std::invalid_argument(
        "replay_flow: executor, VCD, SEC checkpoints and stage hooks are not "
        "replayed");
  }
  Stopwatch stage;  // time since the last stage boundary
  const flow::ConversionBackend& backend = flow::backend_for(style);
  CellLibrary library = CellLibrary::nominal_28nm();
  backend.adjust_library(library);
  FlowResult result;
  result.style = style;
  Netlist netlist = benchmark.netlist;

  check::CheckOptions lint_options = options.lint;
  lint_options.ddcg_max_fanout = std::max(lint_options.ddcg_max_fanout,
                                          options.ddcg_options.max_fanout);
  analysis::AnalysisOptions analysis_options;
  analysis_options.check = lint_options;
  analysis_options.timing = options.timing;
  analysis_options.borrow_budget_ps = options.borrow_budget_ps;
  // Closes the running stage and runs the opt-in lint checkpoint on its
  // output, as run_flow() does with an executor (full analysis per stage).
  const auto checkpoint = [&](std::string_view name) {
    layers.add(stage_layer(name), stage.seconds());
    if (options.check_rules || options.check_analysis) {
      flow::StageLint lint;
      lint.stage = std::string(name);
      Stopwatch watch;
      if (options.check_rules) {
        lint.report = layers.timed(
            "check", [&] { return check::run_checks(netlist, lint_options); });
      }
      if (options.check_analysis) {
        layers.timed("analysis", [&] {
          lint.report.merge(analysis::run_analysis(netlist, analysis_options));
        });
      }
      lint.seconds = watch.seconds();
      result.lint.stages.push_back(std::move(lint));
    }
    stage.reset();
  };

  result.synthesis_cg = infer_clock_gating(netlist, options.synthesis_cg);
  result.buffering = buffer_high_fanout(netlist, options.buffering);
  checkpoint("synthesis");

  flow::FlowContext ctx{
      .netlist = netlist,
      .options = options,
      .library = library,
      .result = result,
      .checkpoint = checkpoint,
      .activity =
          [&]() {
            ActivityStats activity;
            simulate(netlist, stimulus, options.warmup_cycles, &activity);
            return activity;
          },
  };
  backend.convert(ctx);
  layers.add("convert", stage.seconds());  // after the backend's last stage

  std::optional<IncrementalTimer> timer;
  layers.timed("sta", [&] {
    if (options.incremental_timing) {
      netlist.enable_journal();
      timer.emplace(library, options.timing);
    }
  });
  if (options.hold_repair) {
    stage.reset();
    result.hold = repair_hold(netlist, library, options.timing, 10,
                              timer ? &*timer : nullptr);
    checkpoint("hold-repair");
  }
  result.timing = layers.timed("sta", [&] {
    return timer ? timer->sync(netlist)
                 : check_timing(netlist, library, options.timing);
  });

  PlaceOptions place_options = options.place;
  place_options.executor = nullptr;
  const Placement placement = layers.timed(
      "place", [&] { return place(netlist, library, place_options); });
  layers.count("place.cells", static_cast<double>(netlist.num_cells()));
  CtsOptions cts_options = options.cts;
  cts_options.executor = nullptr;
  const ClockTreeReport clock_tree = layers.timed("cts", [&] {
    return synthesize_clock_trees(netlist, placement, cts_options);
  });

  ActivityStats activity;
  result.outputs = layers.timed("sim", [&] {
    return simulate(netlist, stimulus, options.warmup_cycles, &activity);
  });
  layers.count("sim.toggles",
               static_cast<double>(std::accumulate(
                   activity.net_toggles.begin(), activity.net_toggles.end(),
                   std::uint64_t{0})));

  layers.timed("power", [&] {
    result.registers = static_cast<int>(netlist.registers().size());
    result.area_um2 = library.total_area_um2(netlist) +
                      clock_tree.buffer_area_um2(library);
    result.power =
        compute_power(netlist, library, activity, &placement, &clock_tree);
  });
  result.netlist = std::move(netlist);
  return result;
}

}  // namespace perfbench
