#include "workloads.hpp"

#include <algorithm>
#include <barrier>
#include <cmath>
#include <filesystem>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unistd.h>

#include "replay.hpp"
#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/matrix.hpp"
#include "src/flow/serialize.hpp"
#include "src/serve/protocol.hpp"
#include "src/serve/server.hpp"
#include "src/util/executor.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"
#include "stats.hpp"

namespace perfbench {

void Report::fail(std::string what, bool known) {
  ++failed;
  if (!known) ++unexpected;
  // The first failures name the pattern; the counts carry the rest.
  if (failures.size() < 32) {
    failures.push_back(std::move(what) + (known ? " (known)" : ""));
  }
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"matrix_sweep", "verify_sec",
                                                 "serve_mixed"};
  return names;
}

namespace {

using namespace tp;
using flow::DesignStyle;
using flow::FlowOptions;
using flow::FlowResult;

// Every workload sets up at least kMinSetups times, and more while the
// set-ups so far took under kSetupBudgetS, then reports the median: cheap
// set-ups get enough samples for a steady median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 30;
constexpr double kSetupBudgetS = 1.0;
// Threads of the parallel workloads: three executor workers plus the
// calling thread, which runs queued tasks while it waits (Executor::wait
// helps), so the load never exceeds the reference machine's four cores.
constexpr std::size_t kThreads = 4;
constexpr double kCoverageFloor = 0.98;
// The stimulus seed of the paper's tables (RunPlan's default).
constexpr std::uint64_t kPaperSeed = 7;

std::vector<DesignStyle> all_styles() {
  std::vector<DesignStyle> styles;
  for (const flow::ConversionBackend* backend : flow::backend_registry()) {
    styles.push_back(backend->id());
  }
  return styles;
}

std::string unit_name(std::string_view bench, DesignStyle style) {
  return cat(bench, "/", flow::style_name(style));
}

// Defects present when the benchmark was defined: two-phase conversions
// whose streams and proofs disagree with the FF golden.
bool known_defect(DesignStyle style) { return style == DesignStyle::kTwoPhase; }

// --- End-to-end measurement --------------------------------------------------

struct EndToEnd {
  std::vector<double> setup_s;  // one sample per set-up
  std::vector<double> pass_s;  // one sample per pass over the workload
  // Latency of every unit the caller waited on, one vector per pass.
  std::vector<std::vector<double>> unit_s;
  double power_mw = 0;
};

// Unit statistics are taken per pass and reported as their median over
// passes, like wall_s, so one disturbed pass cannot set the figure.
void report_end_to_end(const EndToEnd& m, Report& report) {
  std::vector<double> p50, tails;
  for (const std::vector<double>& units : m.unit_s) {
    p50.push_back(median(units));
    tails.push_back(tail(units).value);
  }
  const Tail first = m.unit_s.empty() ? Tail{} : tail(m.unit_s.front());
  report.metrics = {
      {"setup_s", median(m.setup_s), "s"},
      {"wall_s", median(m.pass_s), "s"},
      {"unit_p50_ms", 1e3 * median(p50), "ms"},
      {"unit_tail_ms", 1e3 * median(tails), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"power_mw", m.power_mw, "mW"},
  };
  const auto q = quartiles(m.pass_s);
  util::JsonWriter w;
  w.begin_object();
  w.key("passes").value(static_cast<std::uint64_t>(m.pass_s.size()));
  w.key("setups").value(static_cast<std::uint64_t>(m.setup_s.size()));
  w.key("units_per_pass").value(static_cast<std::uint64_t>(first.samples));
  w.key("unit_tail_percentile").value(first.percentile);
  w.key("pass_q1_s").value(q[0]);
  w.key("pass_q3_s").value(q[2]);
  w.end_object();
  report.detail_json = w.take();
}

// Runs `build` as the set-up rule above says, timing each run, and keeps
// the last result.
template <class T, class F>
T set_up(EndToEnd& m, F&& build) {
  std::optional<T> out;
  double spent = 0;
  for (int i = 0; i < kMaxSetups && (i < kMinSetups || spent < kSetupBudgetS);
       ++i) {
    out.reset();
    Stopwatch watch;
    out.emplace(build());
    m.setup_s.push_back(watch.seconds());
    spent += m.setup_s.back();
  }
  return std::move(*out);
}

// Runs `round` for a fixed number of passes: --seconds over the pass's wall
// time on the reference machine (4 cores), rounded, at least one. A count
// that followed the clock would change with the machine's speed, and the
// medians and peak memory with it. `prepare` runs untimed before each pass;
// `round` records its unit latencies in the vector it is given.
template <class Prepare, class F>
void measure(EndToEnd& m, double seconds, double reference_pass_s,
             Prepare&& prepare, F&& round) {
  const long passes = std::max(1L, std::lround(seconds / reference_pass_s));
  for (long i = 0; i < passes; ++i) {
    prepare();
    m.unit_s.emplace_back();
    Stopwatch watch;
    round(m.unit_s.back());
    m.pass_s.push_back(watch.seconds());
  }
}

template <class F>
void measure(EndToEnd& m, double seconds, double reference_pass_s, F&& round) {
  measure(m, seconds, reference_pass_s, [] {}, std::forward<F>(round));
}

// --- Traced replay -----------------------------------------------------------

struct Trace {
  Layers layers;
  double replay_s = 0;      // wall of the traced replay
  double reference_s = 0;   // wall of the same units run untraced, serially
  double timed_wall_s = 0;  // wall of the workload's own timed phase
  std::size_t threads = 1;  // threads of that timed phase
  double longest_unit_s = 0;
  std::size_t units = 0;
  std::vector<std::string> mismatches;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

void report_trace(const Trace& t, Report& report) {
  const Layers& l = t.layers;
  const double coverage = ratio(l.covered_s(), t.replay_s);
  report.trace_ok = t.mismatches.empty() && coverage >= kCoverageFloor;
  for (const std::string& m : t.mismatches) {
    report.failures.push_back("replay differs from run_flow: " + m);
  }
  if (coverage < kCoverageFloor) {
    report.failures.push_back(
        cat("layer times cover only ", coverage, " of the replay"));
  }
  const auto busy = [&](const char* layer) { return l.busy_of(layer); };
  report.metrics = {
      {"place.busy_s", busy("place"), "s"},
      {"place.us_per_cell",
       1e6 * ratio(busy("place"), l.count_of("place.cells")), "us"},
      {"convert.busy_s", busy("convert"), "s"},
      {"retime.busy_s", busy("retime"), "s"},
      {"gating.busy_s", busy("gating"), "s"},
      {"sim.busy_s", busy("sim"), "s"},
      {"sim.toggles", l.count_of("sim.toggles"), "count"},
      {"sim.ns_per_toggle", 1e9 * ratio(busy("sim"), l.count_of("sim.toggles")),
       "ns"},
      {"synthesis.busy_s", busy("synthesis"), "s"},
      {"hold.busy_s", busy("hold"), "s"},
      {"sta.busy_s", busy("sta"), "s"},
      {"cts.busy_s", busy("cts"), "s"},
      {"power.busy_s", busy("power"), "s"},
      {"circuits.busy_s", busy("circuits"), "s"},
      {"check.busy_s", busy("check"), "s"},
      {"analysis.busy_s", busy("analysis"), "s"},
      {"executor.parallel_efficiency",
       ratio(t.reference_s, static_cast<double>(t.threads) * t.timed_wall_s),
       "ratio"},
      {"matrix.longest_unit_s", t.longest_unit_s, "s"},
      {"equiv.busy_s", busy("equiv"), "s"},
      {"equiv.unknown_s", l.count_of("equiv.unknown_s"), "s"},
      {"equiv.sat_calls", l.count_of("equiv.sat_calls"), "count"},
      {"equiv.sat_conflicts", l.count_of("equiv.sat_conflicts"), "count"},
      {"equiv.aig_nodes", l.count_of("equiv.aig_nodes"), "count"},
      {"equiv.proven_ratio",
       ratio(l.count_of("equiv.proven"), l.count_of("equiv.proofs")), "ratio"},
      {"serve.protocol_s", busy("protocol"), "s"},
      {"serve.payload_s", busy("payload"), "s"},
      {"serve.flow_s", l.count_of("serve.flow_s"), "s"},
      {"cache.memory_hits", l.count_of("cache.memory_hits"), "count"},
      {"cache.disk_hits", l.count_of("cache.disk_hits"), "count"},
      {"serve.cells_computed", l.count_of("serve.cells_computed"), "count"},
      {"serve.cells_deduped", l.count_of("serve.cells_deduped"), "count"},
      {"trace.coverage_ratio", coverage, "ratio"},
      {"trace.overhead_ratio", ratio(t.replay_s, t.reference_s) - 1.0,
       "ratio"},
  };
  util::JsonWriter w;
  w.begin_object();
  w.key("replayed_units").value(static_cast<std::uint64_t>(t.units));
  w.key("replay_s").value(t.replay_s);
  w.key("reference_s").value(t.reference_s);
  w.key("timed_wall_s").value(t.timed_wall_s);
  w.key("threads").value(static_cast<std::uint64_t>(t.threads));
  w.key("identity_mismatches")
      .value(static_cast<std::uint64_t>(t.mismatches.size()));
  w.key("layers_s").begin_object();
  for (const auto& [layer, seconds] : l.busy) w.key(layer).value(seconds);
  w.end_object();
  w.end_object();
  report.detail_json = w.take();
}

bool same_outputs(const FlowResult& a, const FlowResult& b) {
  return a.registers == b.registers && a.area_um2 == b.area_um2 &&
         a.power.clock_mw == b.power.clock_mw &&
         a.power.seq_mw == b.power.seq_mw &&
         a.power.comb_mw == b.power.comb_mw &&
         a.power.leakage_mw == b.power.leakage_mw &&
         flow::stream_hash(a.outputs) == flow::stream_hash(b.outputs);
}

// --- Flow units --------------------------------------------------------------

// One design with the stimulus its units run under and the FF golden stream.
struct Design {
  circuits::Benchmark bench;
  Stimulus stimulus;
  OutputStream golden;
};

// Stimulus seeds derive from the workload seed exactly as run_matrix()
// derives them, so every workload's inputs are a function of --seed alone.
std::vector<Design> build_designs(const std::vector<std::string>& names,
                                  std::size_t cycles, std::uint64_t seed,
                                  std::size_t warmup) {
  std::vector<Design> designs;
  for (const std::string& name : names) {
    Design d{circuits::make_benchmark(name), {}, {}};
    d.stimulus = circuits::make_stimulus(d.bench,
                                         circuits::Workload::kPaperDefault,
                                         cycles, flow::task_seed(seed, name));
    d.golden = golden_stream(d.bench.netlist, d.stimulus, warmup);
    designs.push_back(std::move(d));
  }
  return designs;
}

struct Unit {
  std::size_t design = 0;
  DesignStyle style = DesignStyle::kFlipFlop;
};

struct UnitResult {
  FlowResult flow;
  std::optional<equiv::SecResult> sec;
};

// Counts one unit: its stream must match the FF golden and its proof, if
// any, must be proven.
void check_unit(Report& report, const Design& d, DesignStyle style,
                const FlowResult& flow, const equiv::SecResult* sec) {
  ++report.attempted;
  const bool stream_ok = first_mismatch(flow.outputs, d.golden) < 0;
  const bool proven = sec == nullptr || sec->status == equiv::SecStatus::kProven;
  if (stream_ok && proven) return;
  std::string what = unit_name(d.bench.name, style) + ":";
  if (!stream_ok) what += " output stream differs from the FF golden;";
  if (!proven) what += cat(" SEC ", equiv::status_name(sec->status), ";");
  // An unknown proof ran out of budget; it does not claim a wrong answer.
  const bool known = known_defect(style) ||
                     (stream_ok && sec->status == equiv::SecStatus::kUnknown);
  report.fail(std::move(what), known);
}

UnitResult run_unit(const circuits::Benchmark& bench, const Stimulus& stimulus,
                    DesignStyle style, const FlowOptions& options,
                    bool prove) {
  UnitResult r;
  r.flow = flow::run_flow(bench, style, stimulus, options);
  if (prove) {
    r.sec = equiv::check_sequential_equivalence(bench.netlist, r.flow.netlist,
                                                options.sec);
  }
  return r;
}

// The traced replay of one unit, from building its circuit to its proof.
UnitResult replay_unit(const std::string& name, std::size_t cycles,
                       std::uint64_t seed, DesignStyle style,
                       const FlowOptions& options, bool prove,
                       Layers& layers) {
  const circuits::Benchmark bench =
      layers.timed("circuits", [&] { return circuits::make_benchmark(name); });
  const Stimulus stimulus = layers.timed("circuits", [&] {
    return circuits::make_stimulus(bench, circuits::Workload::kPaperDefault,
                                   cycles, flow::task_seed(seed, name));
  });
  UnitResult r;
  r.flow = replay_flow(bench, style, stimulus, options, layers);
  if (prove) {
    Stopwatch watch;
    r.sec = layers.timed("equiv", [&] {
      return equiv::check_sequential_equivalence(bench.netlist, r.flow.netlist,
                                                 options.sec);
    });
    const equiv::SecStats& s = r.sec->stats;
    layers.count("equiv.proofs", 1);
    if (r.sec->status == equiv::SecStatus::kProven) {
      layers.count("equiv.proven", 1);
    }
    if (r.sec->status == equiv::SecStatus::kUnknown) {
      layers.count("equiv.unknown_s", watch.seconds());
    }
    layers.count("equiv.sat_calls", static_cast<double>(s.sat_calls));
    layers.count("equiv.sat_conflicts", static_cast<double>(s.sat_conflicts));
    layers.count("equiv.aig_nodes", static_cast<double>(s.aig_nodes));
  }
  return r;
}

void compare_units(Trace& t, const std::string& name, const UnitResult& ref,
                   const UnitResult& got) {
  if (!same_outputs(ref.flow, got.flow) ||
      (ref.sec && ref.sec->status != got.sec->status)) {
    t.mismatches.push_back(name);
  }
}

// Replays `units` serially: an untraced reference pass through the public
// entry points, then the traced pass, compared unit by unit.
void trace_units(Trace& t, const std::vector<std::string>& names,
                   const std::vector<Unit>& units, std::size_t cycles,
                   std::uint64_t seed, const FlowOptions& options, bool prove,
                   std::vector<UnitResult>* reference) {
  reference->clear();
  Stopwatch pass;
  for (const Unit& u : units) {
    const std::string& name = names[u.design];
    const circuits::Benchmark bench = circuits::make_benchmark(name);
    const Stimulus stimulus =
        circuits::make_stimulus(bench, circuits::Workload::kPaperDefault,
                                cycles, flow::task_seed(seed, name));
    reference->push_back(run_unit(bench, stimulus, u.style, options, prove));
  }
  t.reference_s = pass.seconds();
  for (std::size_t i = 0; i < units.size(); ++i) {
    const Unit& u = units[i];
    Stopwatch watch;
    const UnitResult got = replay_unit(names[u.design], cycles, seed, u.style,
                                       options, prove, t.layers);
    const double seconds = watch.seconds();
    t.replay_s += seconds;
    t.longest_unit_s = std::max(t.longest_unit_s, seconds);
    compare_units(t, unit_name(names[u.design], u.style), (*reference)[i],
                  got);
  }
  t.units += units.size();
}

// --- Workloads ---------------------------------------------------------------

// Four callers, one per core, verify the same unit at the same time, unit
// after unit, so a pass measures the cores together rather than whichever
// one a single caller lands on, and every unit runs beside the same work
// in every pass.
Report verify_sec(const Args& args) {
  const std::vector<std::string> names = {"s9234", "s13207", "DES3"};
  std::vector<Unit> units;
  for (std::size_t d = 0; d < names.size(); ++d) {
    for (const DesignStyle style :
         {DesignStyle::kMasterSlave, DesignStyle::kThreePhase,
          DesignStyle::kTwoPhase}) {
      units.push_back({d, style});
    }
  }
  constexpr std::size_t kCycles = 96;
  FlowOptions options = FlowOptions::paper_defaults();
  // Proofs run on the paper's designs: their flows always use the paper's
  // stimulus seed and --seed drives SEC's random simulation instead. Under
  // other stimuli DDCG groups registers differently, and that flips the
  // s13207/3-P proof between ending unknown after ~10 s and proving in ~1 s,
  // which would make the workload's cost a lottery over seeds.
  options.sec.seed = util::splitmix64(args.seed);
  Report report;
  EndToEnd m;
  const auto designs = set_up<std::vector<Design>>(m, [&] {
    return build_designs(names, kCycles, kPaperSeed, options.warmup_cycles);
  });
  if (args.trace) {
    Trace t;
    std::vector<UnitResult> reference;
    trace_units(t, names, units, kCycles, kPaperSeed, options, true,
                &reference);
    // The untraced run of a serial replay is its reference pass.
    t.timed_wall_s = t.reference_s;
    for (std::size_t i = 0; i < units.size(); ++i) {
      check_unit(report, designs[units[i].design], units[i].style,
                 reference[i].flow, &*reference[i].sec);
    }
    report_trace(t, report);
    return report;
  }
  // The callers live for the whole run, so each keeps its own allocator
  // arena and peak memory does not depend on which arena a fresh thread
  // happens to get.
  std::barrier sync(static_cast<std::ptrdiff_t>(kThreads + 1));
  const Unit* current = nullptr;  // the unit to run; null stops the callers
  std::vector<std::optional<UnitResult>> results(kThreads);
  std::vector<std::string> errors(kThreads);
  std::vector<double> seconds(kThreads);
  std::vector<std::thread> callers;
  for (std::size_t c = 0; c < kThreads; ++c) {
    callers.emplace_back([&, c] {
      for (sync.arrive_and_wait(); current != nullptr;
           sync.arrive_and_wait()) {
        const Design& d = designs[current->design];
        results[c].reset();
        errors[c].clear();
        Stopwatch watch;
        try {
          results[c] =
              run_unit(d.bench, d.stimulus, current->style, options, true);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
        seconds[c] = watch.seconds();
        sync.arrive_and_wait();
      }
    });
  }
  std::optional<double> power;
  measure(m, args.seconds, 17, [&](std::vector<double>& unit_s) {
    double pass_power = 0;
    for (const Unit& u : units) {
      const Design& d = designs[u.design];
      current = &u;
      sync.arrive_and_wait();  // the callers start the unit
      sync.arrive_and_wait();  // and have all finished it
      unit_s.insert(unit_s.end(), seconds.begin(), seconds.end());
      for (std::size_t c = 0; c < kThreads; ++c) {
        if (!results[c]) {
          ++report.attempted;
          report.fail(unit_name(d.bench.name, u.style) + ": " + errors[c],
                      false);
          continue;
        }
        check_unit(report, d, u.style, results[c]->flow, &*results[c]->sec);
      }
      // Power counts each distinct conversion once.
      if (results[0]) pass_power += results[0]->flow.power.total_mw();
    }
    if (power && *power != pass_power) {
      report.fail("power differs between identical passes", false);
    }
    power = pass_power;
  });
  current = nullptr;
  sync.arrive_and_wait();
  for (std::thread& caller : callers) caller.join();
  m.power_mw = *power;
  report_end_to_end(m, report);
  return report;
}

// One run_matrix wave: every paper design but AES under every backend.
Report matrix_sweep(const Args& args) {
  flow::RunPlan plan;
  for (const std::string& name : circuits::benchmark_names()) {
    if (name != "AES") plan.benchmarks.push_back(name);
  }
  plan.styles = all_styles();
  plan.options = FlowOptions::paper_defaults();
  plan.cycles = 96;
  plan.stimulus_seed = args.seed;
  const std::vector<flow::MatrixTask> tasks = plan.tasks();

  Report report;
  EndToEnd m;
  struct Setup {
    std::vector<Design> designs;
    std::unique_ptr<util::Executor> executor;
  };
  Setup setup = set_up<Setup>(m, [&] {
    return Setup{build_designs(plan.benchmarks, plan.cycles, args.seed,
                               plan.options.warmup_cycles),
                 std::make_unique<util::Executor>(kThreads - 1)};
  });
  const auto check_wave = [&](const std::vector<flow::MatrixResult>& wave) {
    double power = 0;
    for (const flow::MatrixResult& r : wave) {
      const Design& d = setup.designs[r.task.index / plan.styles.size()];
      if (!r.ok()) {
        ++report.attempted;
        report.fail(r.error, false);
        continue;
      }
      check_unit(report, d, r.task.style, r.result, nullptr);
      power += r.result.power.total_mw();
    }
    return power;
  };

  if (args.trace) {
    Trace t;
    t.threads = kThreads;
    Stopwatch timed;
    const std::vector<flow::MatrixResult> wave =
        flow::run_matrix(plan, *setup.executor);
    t.timed_wall_s = timed.seconds();
    check_wave(wave);
    std::vector<Unit> units;
    for (const flow::MatrixTask& task : tasks) {
      units.push_back({task.index / plan.styles.size(), task.style});
    }
    std::vector<UnitResult> reference;
    trace_units(t, plan.benchmarks, units, plan.cycles, args.seed,
                plan.options, false, &reference);
    for (std::size_t i = 0; i < wave.size(); ++i) {
      if (wave[i].ok() && !same_outputs(reference[i].flow, wave[i].result)) {
        t.mismatches.push_back(
            "wave " + unit_name(tasks[i].benchmark, tasks[i].style));
      }
    }
    report_trace(t, report);
    return report;
  }
  std::optional<double> power;
  measure(m, args.seconds, 11.5, [&](std::vector<double>& unit_s) {
    Stopwatch watch;
    const std::vector<flow::MatrixResult> wave =
        flow::run_matrix(plan, *setup.executor);
    unit_s.push_back(watch.seconds());
    const double wave_power = check_wave(wave);
    if (power && *power != wave_power) {
      report.fail("power differs between identical waves", false);
    }
    power = wave_power;
  });
  m.power_mw = *power;
  report_end_to_end(m, report);
  return report;
}

// --- serve_mixed -------------------------------------------------------------

constexpr std::size_t kServeRequests = 1024;
constexpr std::size_t kServeWave = 32;
constexpr std::uint64_t kServeCycles = 24;
static_assert(kServeRequests % kServeWave == 0);

struct ServeStream {
  std::vector<std::string> lines;
  std::vector<std::size_t> computation;  // per request
  std::vector<bool> power_bearing;       // per computation
};

// Seeded request stream. A quarter of the requests are novel: every wave
// holds exactly kServeWave / 4 of them, at seeded positions, and they are
// the same computations (design x backend x job type) in every seed, which
// changes only their stimulus seeds, the positions and the repeats. So the
// work of each wave, and with it the wave latencies, does not depend on the
// seed. Repeats favour computations seen early (popularity ~ rank^-2/3),
// so the memory tier holds the hot set and the rest is served from disk.
ServeStream make_stream(std::uint64_t seed) {
  static const std::vector<std::string> designs = {
      "s1196", "s1238", "s1423", "s1488", "s5378", "s9234", "DES3"};
  static const std::vector<std::string> types = {"convert", "power_eval",
                                                 "lint"};
  const auto& backends = flow::backend_registry();
  std::uint64_t counter = 0;
  const auto next = [&] {
    return util::splitmix64(seed ^ util::splitmix64(++counter));
  };
  const std::size_t unique = kServeRequests / 4;
  std::vector<std::string> computations;
  ServeStream s;
  for (std::size_t u = 0; u < unique; ++u) {
    const std::string& type = types[(u / 42) % types.size()];
    util::JsonWriter w;  // the request minus its id
    w.begin_object();
    w.key("type").value(type);
    w.key("benchmark").value(designs[u % designs.size()]);
    w.key("backend").value(
        backends[(u / designs.size()) % backends.size()]->token());
    w.key("preset").value("fast");
    w.key("cycles").value(kServeCycles);
    w.key("seed").value(next() >> 32);
    w.end_object();
    computations.push_back(w.take());
    s.power_bearing.push_back(type != "lint");
  }
  std::vector<char> novel(kServeRequests, 0);
  for (std::size_t base = 0; base < kServeRequests; base += kServeWave) {
    const auto wave = novel.begin() + static_cast<long>(base);
    std::fill(wave, wave + kServeWave / 4, 1);
    for (std::size_t i = kServeWave - 1; i > 0; --i) {
      std::swap(wave[static_cast<long>(i)],
                wave[static_cast<long>(next() % (i + 1))]);
    }
  }
  // The first request has nothing to repeat.
  std::swap(novel[0], *std::find(novel.begin(), novel.end(), 1));
  std::size_t seen = 0;
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    std::size_t u = seen;
    if (novel[i]) {
      ++seen;
    } else {
      const double x =
          static_cast<double>(next() >> 11) / static_cast<double>(1ULL << 53);
      u = std::min(seen - 1,
                   static_cast<std::size_t>(static_cast<double>(seen) * x *
                                            x * x));
    }
    s.computation.push_back(u);
    s.lines.push_back(
        cat("{\"id\":\"r", i, "\",", computations[u].substr(1)));
  }
  return s;
}

// The payload spliced into an ok response ("" for anything else).
std::string payload_of(const std::string& response) {
  constexpr std::string_view kKey = ",\"payload\":";
  const std::size_t at = response.find(kKey);
  if (at == std::string::npos || response.empty()) return {};
  const std::size_t begin = at + kKey.size();
  return response.substr(begin, response.size() - 1 - begin);
}

double payload_power(const std::string& payload) {
  util::Json json;
  std::string error;
  if (!util::Json::parse(payload, &json, &error)) return 0;
  const util::Json* power = json.find("power_mw");
  const util::Json* total = power != nullptr ? power->find("total") : nullptr;
  return total != nullptr && total->is_number() ? total->as_number() : 0;
}

struct ServeSetup {
  ServeStream stream;
  std::string cache_dir;
  std::unique_ptr<serve::Server> server;
};

ServeSetup make_serve(const Args& args, const std::string& cache_dir) {
  ServeSetup s;
  s.stream = make_stream(args.seed);
  s.cache_dir = cache_dir;
  std::filesystem::remove_all(cache_dir);
  std::filesystem::create_directories(cache_dir);
  serve::ServerOptions options;
  options.threads = kThreads - 1;
  options.cache.dir = cache_dir;
  options.cache.memory_entries = s.stream.power_bearing.size() / 4;
  s.server = std::make_unique<serve::Server>(options);
  return s;
}

// Sends the stream in closed-loop waves; checks every response. `first`
// holds the first payload seen per computation across every pass.
double serve_stream(ServeSetup& s, Report& report,
                    std::vector<std::string>& first,
                    std::vector<double>* latencies,
                    std::vector<std::string>* responses) {
  const ServeStream& stream = s.stream;
  std::vector<bool> seen(stream.power_bearing.size(), false);
  Stopwatch total;
  for (std::size_t base = 0; base < stream.lines.size(); base += kServeWave) {
    const std::size_t end = std::min(stream.lines.size(), base + kServeWave);
    const std::vector<std::string> wave(stream.lines.begin() + base,
                                        stream.lines.begin() + end);
    Stopwatch watch;
    const std::vector<serve::Outcome> outcomes = s.server->run_wave(wave);
    const double latency = watch.seconds();
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const serve::Outcome& out = outcomes[i];
      const std::size_t u = stream.computation[base + i];
      const std::string id = cat("r", base + i);
      if (latencies != nullptr) latencies->push_back(latency);
      if (responses != nullptr) responses->push_back(out.line);
      ++report.attempted;
      if (!out.ok) {
        report.fail(id + ": ok:false " + out.line, false);
        continue;
      }
      if (seen[u] && !out.cached) {
        report.fail(id + ": a repeat ran a flow", false);
      }
      seen[u] = true;
      std::string payload = payload_of(out.line);
      if (first[u].empty()) {
        first[u] = std::move(payload);
      } else if (first[u] != payload) {
        report.fail(id + ": payload differs from the first computed", false);
      }
    }
  }
  return total.seconds();
}

void tear_down(ServeSetup& s) {
  s.server.reset();
  std::filesystem::remove_all(s.cache_dir);
}

// The traced serial replay of the stream: parse, run each distinct
// computation's flow once, reduce payloads; compared byte for byte with
// what the server answered.
void trace_serve(Trace& t, const ServeStream& stream,
                 const std::vector<std::string>& served) {
  const auto plan_for = [](const serve::Request& req) {
    flow::RunPlan plan;
    flow::options_from_preset(req.spec.preset, &plan.options);
    plan.options.check_rules = req.spec.check_rules;
    plan.options.check_analysis = req.spec.check_analysis;
    if (req.type == serve::JobType::kLint) {
      plan.options.check_rules = true;
      plan.options.check_analysis = true;
    }
    flow::workload_from_name(req.spec.workload, &plan.workload);
    plan.benchmarks = {req.benchmark};
    plan.styles = {req.style};
    plan.cycles = req.spec.cycles;
    plan.stimulus_seed = req.spec.seed;
    plan.lanes = req.spec.lanes;
    return plan;
  };
  const auto reduce = [](const serve::Request& req, const std::string& full) {
    return req.type == serve::JobType::kPowerEval ? serve::power_payload(full)
           : req.type == serve::JobType::kLint    ? serve::lint_payload(full)
                                                  : full;
  };
  const std::size_t n = stream.lines.size();
  std::vector<std::string> reference(n);
  {
    Stopwatch pass;
    std::vector<std::string> full(stream.power_bearing.size());
    for (std::size_t i = 0; i < n; ++i) {
      serve::Request req;
      std::string error;
      if (!serve::parse_request(stream.lines[i], &req, &error)) {
        throw std::runtime_error("replay: unparseable request: " + error);
      }
      std::string& cell = full[stream.computation[i]];
      if (cell.empty()) {
        const flow::RunPlan plan = plan_for(req);
        cell = flow::result_payload_json(
            plan, flow::run_task(plan, plan.tasks().front()));
      }
      reference[i] = reduce(req, cell);
    }
    t.reference_s = pass.seconds();
  }
  std::vector<std::string> full(stream.power_bearing.size());
  std::vector<std::string> replayed(n);
  Layers& layers = t.layers;
  Stopwatch pass;
  for (std::size_t i = 0; i < n; ++i) {
    serve::Request req;
    std::string error;
    if (!layers.timed("protocol", [&] {
          return serve::parse_request(stream.lines[i], &req, &error);
        })) {
      throw std::runtime_error("replay: unparseable request: " + error);
    }
    std::string& cell = full[stream.computation[i]];
    if (cell.empty()) {
      Stopwatch watch;
      const flow::RunPlan plan = plan_for(req);
      flow::MatrixResult result;
      result.task = plan.tasks().front();
      const std::string& name = result.task.benchmark;
      const circuits::Benchmark bench = layers.timed(
          "circuits", [&] { return circuits::make_benchmark(name); });
      const Stimulus stimulus = layers.timed("circuits", [&] {
        return circuits::make_stimulus(bench, plan.workload, plan.cycles,
                                       flow::lane_seed(result.task.seed, 0));
      });
      result.result = replay_flow(bench, result.task.style, stimulus,
                                  plan.options, layers);
      const double flow_s = watch.seconds();
      t.longest_unit_s = std::max(t.longest_unit_s, flow_s);
      layers.count("serve.flow_s", flow_s);
      cell = layers.timed("payload",
                          [&] { return flow::result_payload_json(plan, result); });
    }
    replayed[i] = layers.timed("payload", [&] { return reduce(req, cell); });
  }
  t.replay_s = pass.seconds();
  t.units += n;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string served_payload = payload_of(served[i]);
    if (replayed[i] != reference[i] || served_payload != reference[i]) {
      t.mismatches.push_back(cat("request r", i));
    }
  }
}

Report serve_mixed(const Args& args) {
  Report report;
  EndToEnd m;
  const std::string dir = cat(args.work_dir, "/serve_cache_", ::getpid());
  int round_index = 0;
  const auto next_dir = [&] { return cat(dir, "/", round_index++); };
  ServeSetup setup = set_up<ServeSetup>(m, [&] {
    return make_serve(args, next_dir());
  });
  std::vector<std::string> first(setup.stream.power_bearing.size());

  if (args.trace) {
    Trace t;
    t.threads = kThreads;
    std::vector<std::string> responses;
    t.timed_wall_s =
        serve_stream(setup, report, first, nullptr, &responses);
    const serve::ServerCounters counters = setup.server->counters();
    trace_serve(t, setup.stream, responses);
    Layers& l = t.layers;
    l.count("cache.memory_hits",
            static_cast<double>(counters.cache.memory_hits));
    l.count("cache.disk_hits", static_cast<double>(counters.cache.disk_hits));
    l.count("serve.cells_computed",
            static_cast<double>(counters.cells_computed));
    l.count("serve.cells_deduped", static_cast<double>(counters.cells_deduped));
    tear_down(setup);
    std::filesystem::remove_all(dir);
    report_trace(t, report);
    return report;
  }

  // Each pass replays the whole stream against a fresh server and an empty
  // cache directory, so every pass does the same work.
  bool used = false;
  measure(
      m, args.seconds, 4.4,
      [&] {
        if (used) {
          tear_down(setup);
          Stopwatch watch;
          setup = make_serve(args, next_dir());
          m.setup_s.push_back(watch.seconds());
        }
        used = true;
      },
      [&](std::vector<double>& unit_s) {
        serve_stream(setup, report, first, &unit_s, nullptr);
      });
  tear_down(setup);
  std::filesystem::remove_all(dir);
  for (std::size_t u = 0; u < first.size(); ++u) {
    if (setup.stream.power_bearing[u]) {
      m.power_mw += payload_power(first[u]);
    }
  }
  report_end_to_end(m, report);
  return report;
}

}  // namespace

Report run_workload(const Args& args) {
  if (args.workload == "matrix_sweep") return matrix_sweep(args);
  if (args.workload == "verify_sec") return verify_sec(args);
  if (args.workload == "serve_mixed") return serve_mixed(args);
  throw std::invalid_argument("unknown workload '" + args.workload + "'");
}

}  // namespace perfbench
