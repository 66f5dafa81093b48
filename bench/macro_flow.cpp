// Macro-scale incremental-STA benchmark and identity gate.
//
// Steps the make_macro pipeline generator through a size grid (default
// 2k/20k/100k registers; pass --sizes to go to 10^6) in both variants —
// single-phase FF and direct 3-phase latch — and, per grid cell, times the
// repair_hold + min-period path twice:
//
//   full:        the pre-incremental behavior — every hold-repair pass and
//                every min-period probe is a cold full STA;
//   incremental: one IncrementalTimer session follows the netlist through
//                the repair passes (journal-scoped cone patches) and the
//                min-period search reuses one engine across probes.
//
// Every cell asserts the incremental identity contract: the session report
// is byte-identical (timing_identity) to a fresh check_timing after repair
// and after each of --edits random follow-up edits (buffer insertion, gate
// retype, and a clock-plan change that must take the fallback path);
// 3-phase cells additionally check borrow_identity through a second
// track-borrow session sharing the same journal. Both legs must insert the
// same buffers and find the same minimum period.
//
// The aggregate full/incremental STA wall-clock ratio at the largest cell
// with >= --gate-ffs registers gates the build (default 5x, --no-gate to
// record without failing — CI's small-size run and TSan use that).
//
// Each grid cell also times one serial place() of its netlist and records
// microseconds per cell. The placer is near-linear (O(pins) per region and
// FM pass), so a second gate requires the per-cell cost at the largest size
// to stay within 2x that at the smallest (both variants summed; also
// waived by --no-gate).
//
// A final flow section runs run_flow (3-phase style) on a small macro and
// records the per-stage wall clock plus the full/incremental STA split.
//
//   $ ./bench/macro_flow [--sizes 2000,20000,100000] [--edits N]
//                        [--gate-ffs N] [--gate-ratio X] [--no-gate]
//                        [--flow-ffs N] [--cycles N] [--out FILE]
//
// Exit status: 0 when every identity holds and the gate passes, 1 otherwise.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"
#include "src/timing/incremental.hpp"
#include "src/util/argparse.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"
#include "src/util/strcat.hpp"

using namespace tp;

namespace {

/// The pre-incremental min-period search: a fresh full STA per probe (what
/// the old min_period_ps did), replicated here as the baseline leg.
MinPeriodResult baseline_min_period(const Netlist& netlist,
                                    const CellLibrary& library,
                                    std::int64_t lo_ps, std::int64_t hi_ps,
                                    std::int64_t step_ps,
                                    const TimingOptions& options) {
  Netlist scaled = netlist;
  const ClockSpec original = netlist.clocks();
  MinPeriodResult result;
  const auto passes = [&](std::int64_t period) {
    ClockSpec spec = original;
    spec.period_ps = period;
    for (PhaseWaveform& w : spec.phases) {
      w.rise_ps = w.rise_ps * period / original.period_ps;
      w.fall_ps = w.fall_ps * period / original.period_ps;
    }
    scaled.clocks() = spec;
    const TimingReport report = check_timing(scaled, library, options);
    ++result.probes;
    return report.converged && report.setup_ok;
  };
  if (!passes(hi_ps)) {
    result.feasible = false;
    result.period_ps = hi_ps;
    return result;
  }
  while (hi_ps - lo_ps > step_ps) {
    const std::int64_t mid = (lo_ps + hi_ps) / 2;
    if (passes(mid)) {
      hi_ps = mid;
    } else {
      lo_ps = mid;
    }
  }
  result.feasible = true;
  result.period_ps = hi_ps;
  return result;
}

struct CellRecord {
  std::string name;
  int ffs = 0;
  bool three_phase = false;
  std::size_t cells = 0;
  int buffers = 0;
  double full_hold_s = 0, full_minp_s = 0;
  double inc_prime_s = 0, inc_hold_s = 0, inc_minp_s = 0;
  double speedup = 0;
  bool min_period_feasible = false;
  std::int64_t min_period_ps = 0;
  int edit_checks = 0;
  double place_s = 0;  // one serial place() of the cell's netlist
  int failures = 0;  // identity/equality violations in this cell
  SmoEngine::Stats stats;
};

double us_per_cell(double seconds, std::size_t cells) {
  return cells > 0 ? seconds * 1e6 / static_cast<double>(cells) : 0.0;
}

/// True when the enum value is a plain combinational gate (kBuf..kMaj3 in
/// declaration order).
bool is_comb_gate(CellKind kind) {
  return kind >= CellKind::kBuf && kind <= CellKind::kMaj3;
}

CellRecord run_cell(int ffs, bool three_phase, int edits) {
  const CellLibrary& library = CellLibrary::nominal_28nm();
  TimingOptions topt;
  // Post-CTS-skew-class uncertainty: above the register clk->q intrinsic
  // (84 ps) so the generator's direct-shift segments violate hold, but
  // below clk->q plus one gate (~112 ps) so logic stages stay clean — the
  // repair loop then buffers a sparse set of endpoints whose cones the
  // incremental session patches instead of falling back to full passes.
  topt.hold_uncertainty_ps = 100;
  circuits::MacroSpec spec;
  spec.flip_flops = ffs;
  spec.three_phase = three_phase;
  spec.period_ps = three_phase ? 3000 : 2000;
  const Netlist base = circuits::make_macro(spec);

  CellRecord rec;
  rec.name = base.name();
  rec.ffs = ffs;
  rec.three_phase = three_phase;
  rec.cells = base.live_cells().size();
  const auto fail = [&](const char* what) {
    ++rec.failures;
    std::fprintf(stderr, "FAIL %s: %s\n", rec.name.c_str(), what);
  };

  // --- placement leg: one serial placement of the generated netlist. ----
  Stopwatch watch;
  place(base, library);
  rec.place_s = watch.seconds();

  // --- full leg: cold STA per repair pass, cold STA per probe. ----------
  watch.reset();
  Netlist full_nl = base;
  const HoldRepairResult full_hold =
      repair_hold(full_nl, library, topt, 10, nullptr);
  rec.full_hold_s = watch.seconds();
  watch.reset();
  const MinPeriodResult full_minp = baseline_min_period(
      full_nl, library, spec.period_ps / 4, 4 * spec.period_ps, 5, topt);
  rec.full_minp_s = watch.seconds();

  // --- incremental leg: one session through the same path. --------------
  // Priming the session is a flow-level one-time cost (run_flow analyzes
  // once at flow start and every later stage reuses the arrivals), so it
  // is timed separately from the per-stage hold/min-period work that the
  // full leg repeats from scratch.
  Netlist inc_nl = base;
  inc_nl.enable_journal();
  IncrementalTimer timer(library, topt);
  watch.reset();
  timer.analyze(inc_nl);
  rec.inc_prime_s = watch.seconds();
  watch.reset();
  const HoldRepairResult inc_hold =
      repair_hold(inc_nl, library, topt, 10, &timer);
  rec.inc_hold_s = watch.seconds();
  watch.reset();
  const MinPeriodResult inc_minp =
      find_min_period(inc_nl, library, spec.period_ps / 4,
                      4 * spec.period_ps, 5, topt);
  rec.inc_minp_s = watch.seconds();

  rec.buffers = inc_hold.buffers_inserted;
  rec.min_period_feasible = inc_minp.feasible;
  rec.min_period_ps = inc_minp.period_ps;
  const double full_total = rec.full_hold_s + rec.full_minp_s;
  const double inc_total = rec.inc_hold_s + rec.inc_minp_s;
  rec.speedup = inc_total > 0 ? full_total / inc_total : 0.0;

  // --- identity gates. ---------------------------------------------------
  if (full_hold.buffers_inserted != inc_hold.buffers_inserted) {
    fail("full and incremental hold repair inserted different buffers");
  }
  // The oracle-backed search rounds the same sums in a different order
  // than the fresh-report baseline, so a probe whose worst slack sits
  // within ulps of zero may flip — the settled periods can differ by one
  // search step. Feasibility flags must still agree exactly.
  if (full_minp.feasible != inc_minp.feasible ||
      std::llabs(full_minp.period_ps - inc_minp.period_ps) > 5) {
    fail("full and incremental min-period searches disagree");
  }
  if (timing_identity(timer.sync(inc_nl)) !=
      timing_identity(check_timing(inc_nl, library, topt))) {
    fail("post-repair session report differs from fresh check_timing");
  }

  // A second session with its own journal cursor (and borrow tracking, for
  // the latch variant): exercises multi-consumer journal draining.
  IncrementalTimer borrow_timer(library, topt, /*track_borrow=*/true);
  borrow_timer.analyze(inc_nl);

  // Random follow-up edits, each re-checked against a fresh full pass.
  Rng rng(0xED17 ^ static_cast<std::uint64_t>(ffs) ^
          (three_phase ? 0x3F00u : 0u));
  std::vector<CellId> gates;
  for (const CellId id : inc_nl.live_cells()) {
    if (is_comb_gate(inc_nl.cell(id).kind)) gates.push_back(id);
  }
  for (int e = 0; e < edits && !gates.empty(); ++e) {
    const CellId victim = gates[static_cast<std::size_t>(
        rng.range(0, static_cast<std::int64_t>(gates.size()) - 1))];
    const Cell& cell = inc_nl.cell(victim);
    switch (e % 3) {
      case 0: {  // buffer insertion in front of a random gate input
        const NetId d = cell.ins[0];
        const CellId buf = inc_nl.add_gate(
            CellKind::kBuf, cat(cell.name, "_mfbuf", e), {d});
        inc_nl.replace_input(victim, 0, inc_nl.cell(buf).out);
        break;
      }
      case 1: {  // gate retype (same pin count, different function)
        CellKind to = CellKind::kBuf;
        switch (cell.kind) {
          case CellKind::kBuf: to = CellKind::kInv; break;
          case CellKind::kInv: to = CellKind::kBuf; break;
          case CellKind::kAnd2: to = CellKind::kNand2; break;
          case CellKind::kOr2: to = CellKind::kNor2; break;
          case CellKind::kNand2: to = CellKind::kAnd2; break;
          case CellKind::kNor2: to = CellKind::kOr2; break;
          case CellKind::kXor2: to = CellKind::kXnor2; break;
          case CellKind::kXnor2: to = CellKind::kXor2; break;
          case CellKind::kAnd3: to = CellKind::kNand3; break;
          case CellKind::kOr3: to = CellKind::kNor3; break;
          case CellKind::kNand3: to = CellKind::kAnd3; break;
          case CellKind::kNor3: to = CellKind::kOr3; break;
          default: to = cell.kind == CellKind::kMux2 ? CellKind::kAoi21
                                                     : cell.kind; break;
        }
        inc_nl.morph_cell(victim, to);
        break;
      }
      case 2: {  // clock-plan change: bypasses the journal, must fall back
        ClockSpec spec2 = inc_nl.clocks();
        const std::int64_t p = spec2.period_ps + 10;
        for (PhaseWaveform& w : spec2.phases) {
          w.rise_ps = w.rise_ps * p / spec2.period_ps;
          w.fall_ps = w.fall_ps * p / spec2.period_ps;
        }
        spec2.period_ps = p;
        inc_nl.clocks() = spec2;
        break;
      }
    }
    ++rec.edit_checks;
    if (timing_identity(timer.sync(inc_nl)) !=
        timing_identity(check_timing(inc_nl, library, topt))) {
      fail("post-edit session report differs from fresh check_timing");
    }
  }
  // The borrow session saw every edit through its own cursor.
  borrow_timer.sync(inc_nl);
  if (borrow_identity(borrow_timer.borrow_records(inc_nl)) !=
      borrow_identity(borrow_profile(inc_nl, library, topt))) {
    fail("session borrow records differ from fresh borrow_profile");
  }

  rec.stats = timer.stats();
  std::printf(
      "%-16s %8zu cells  full %7.2fs (hold %6.2f + minp %6.2f)  "
      "inc %7.2fs (hold %6.2f + minp %6.2f, prime %5.2f)  %5.1fx  "
      "[%d full / %d patch / %d skip, cone %ld cells]  place %6.2fs "
      "(%.2f us/cell)%s\n",
      rec.name.c_str(), rec.cells, full_total, rec.full_hold_s,
      rec.full_minp_s, inc_total, rec.inc_hold_s, rec.inc_minp_s,
      rec.inc_prime_s, rec.speedup, rec.stats.full_runs,
      rec.stats.incremental_runs, rec.stats.skipped_runs,
      rec.stats.cone_cells, rec.place_s, us_per_cell(rec.place_s, rec.cells),
      rec.failures ? "  FAILED" : "");
  std::fflush(stdout);
  return rec;
}

struct FlowRecord {
  int ffs = 0;
  double seconds = 0;
  flow::StepTimes times;
};

FlowRecord run_flow_section(int ffs, std::size_t cycles) {
  circuits::MacroSpec spec;
  spec.flip_flops = ffs;
  circuits::Benchmark bench{.name = cat("macro", ffs),
                            .suite = "MACRO",
                            .netlist = circuits::make_macro(spec),
                            .period_ps = spec.period_ps,
                            .paper_workload = "pseudo-random"};
  const Stimulus stimulus = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, cycles);

  FlowRecord rec;
  rec.ffs = ffs;
  flow::FlowOptions options;  // paper defaults: retime + hold repair on
  Stopwatch watch;
  rec.times =
      run_flow(bench, flow::DesignStyle::kThreePhase, stimulus, options).times;
  rec.seconds = watch.seconds();
  std::printf(
      "flow macro%-7d %6.2fs  (sta full %.3fs + incremental %.3fs)\n", ffs,
      rec.seconds, rec.times.sta_full_s, rec.times.sta_incremental_s);
  std::fflush(stdout);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sizes_arg = "2000,20000,100000";
  std::string out_file = "BENCH_macro.json";
  int edits = 6;
  std::size_t gate_ffs = 100000;
  double gate_ratio = 5.0;
  bool no_gate = false;
  int flow_ffs = 2000;
  std::size_t cycles = 64;

  util::ArgParser parser(
      "macro_flow",
      "step the macro generator through a size grid, time full-vs-"
      "incremental STA on the repair_hold + min-period path, assert the "
      "byte-identity contract per cell, and gate the aggregate speedup");
  parser.add_value("--sizes", &sizes_arg,
                   "comma-separated register counts "
                   "(default 2000,20000,100000; supports up to 1000000)");
  parser.add_value("--edits", &edits,
                   "random follow-up edits checked per cell (default 6)");
  parser.add_value("--gate-ffs", &gate_ffs,
                   "gate on cells with at least this many registers "
                   "(default 100000)");
  parser.add_value("--gate-ratio", &gate_ratio,
                   "required full/incremental wall-clock ratio (default 5)");
  parser.add_flag("--no-gate", &no_gate,
                  "record speedups without failing the gate (CI small "
                  "sizes, TSan)");
  parser.add_value("--flow-ffs", &flow_ffs,
                   "macro size for the flow section (default 2000)");
  parser.add_value("--cycles", &cycles,
                   "simulated cycles in the flow section (default 64)");
  parser.add_value("--out", &out_file,
                   "JSON output path (default BENCH_macro.json)", "FILE");
  parser.parse_or_exit(argc, argv);

  std::vector<int> sizes;
  for (std::size_t pos = 0; pos < sizes_arg.size();) {
    const std::size_t comma = sizes_arg.find(',', pos);
    const std::string tok = sizes_arg.substr(
        pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!tok.empty()) sizes.push_back(std::stoi(tok));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (sizes.empty()) {
    std::fprintf(stderr, "--sizes parsed to nothing\n%s",
                 parser.usage().c_str());
    return 2;
  }

  int failures = 0;
  std::vector<CellRecord> grid;
  for (const int ffs : sizes) {
    for (const bool three_phase : {false, true}) {
      grid.push_back(run_cell(ffs, three_phase, edits));
      failures += grid.back().failures;
    }
  }

  // Gate: aggregate full/incremental ratio over the largest qualifying
  // size (both variants summed).
  double gated_speedup = 0;
  bool gate_checked = false;
  int largest = 0;
  for (const CellRecord& r : grid) {
    if (static_cast<std::size_t>(r.ffs) >= gate_ffs) {
      largest = std::max(largest, r.ffs);
    }
  }
  if (largest > 0) {
    double full = 0, inc = 0;
    for (const CellRecord& r : grid) {
      if (r.ffs != largest) continue;
      full += r.full_hold_s + r.full_minp_s;
      inc += r.inc_hold_s + r.inc_minp_s;
    }
    gated_speedup = inc > 0 ? full / inc : 0.0;
    gate_checked = true;
    std::printf("gate @ %d FFs: %.1fx aggregate STA speedup (need %.1fx)\n",
                largest, gated_speedup, gate_ratio);
    if (!no_gate && gated_speedup < gate_ratio) {
      std::fprintf(stderr, "FAIL gate: %.1fx < %.1fx\n", gated_speedup,
                   gate_ratio);
      ++failures;
    }
  } else {
    std::printf("gate skipped: no cell reaches %zu FFs\n", gate_ffs);
  }

  // Placement gate: per-cell placement cost at the largest size within
  // kPlaceGrowth of the smallest's (both variants summed per size).
  constexpr double kPlaceGrowth = 2.0;
  const auto place_us = [&](int ffs) {
    double seconds = 0;
    std::size_t cells = 0;
    for (const CellRecord& r : grid) {
      if (r.ffs != ffs) continue;
      seconds += r.place_s;
      cells += r.cells;
    }
    return us_per_cell(seconds, cells);
  };
  const int smallest = *std::min_element(sizes.begin(), sizes.end());
  const int biggest = *std::max_element(sizes.begin(), sizes.end());
  const double place_growth =
      place_us(smallest) > 0 ? place_us(biggest) / place_us(smallest) : 0.0;
  const bool place_gate_checked = biggest > smallest;
  if (place_gate_checked) {
    std::printf(
        "place gate: %.2f us/cell @ %d FFs vs %.2f @ %d FFs = %.2fx "
        "(allow %.1fx)\n",
        place_us(biggest), biggest, place_us(smallest), smallest,
        place_growth, kPlaceGrowth);
    if (!no_gate && place_growth > kPlaceGrowth) {
      std::fprintf(stderr, "FAIL place gate: %.2fx > %.1fx\n", place_growth,
                   kPlaceGrowth);
      ++failures;
    }
  }

  const FlowRecord flow_rec = run_flow_section(flow_ffs, cycles);

  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("macro_flow");
  w.key("edits_per_cell").value(edits);
  w.key("grid").begin_array();
  for (const CellRecord& r : grid) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ffs").value(r.ffs);
    w.key("three_phase").value(r.three_phase);
    w.key("cells").value(static_cast<std::uint64_t>(r.cells));
    w.key("hold_buffers").value(r.buffers);
    w.key("full_hold_s").value(r.full_hold_s);
    w.key("full_min_period_s").value(r.full_minp_s);
    w.key("incremental_prime_s").value(r.inc_prime_s);
    w.key("incremental_hold_s").value(r.inc_hold_s);
    w.key("incremental_min_period_s").value(r.inc_minp_s);
    w.key("speedup").value(r.speedup);
    w.key("min_period_feasible").value(r.min_period_feasible);
    w.key("min_period_ps").value(r.min_period_ps);
    w.key("sta_full_runs").value(r.stats.full_runs);
    w.key("sta_incremental_runs").value(r.stats.incremental_runs);
    w.key("sta_skipped_runs").value(r.stats.skipped_runs);
    w.key("cone_cells").value(static_cast<std::int64_t>(r.stats.cone_cells));
    w.key("edit_checks").value(r.edit_checks);
    w.key("place_s").value(r.place_s);
    w.key("place_us_per_cell").value(us_per_cell(r.place_s, r.cells));
    w.key("identical").value(r.failures == 0);
    w.end_object();
  }
  w.end_array();
  w.key("gate_checked").value(gate_checked);
  w.key("gate_ffs").value(static_cast<std::uint64_t>(gate_ffs));
  w.key("gate_ratio").value(gate_ratio);
  w.key("gated_speedup").value(gated_speedup);
  w.key("place_gate_checked").value(place_gate_checked);
  w.key("place_growth").value(place_growth);
  w.key("flow").begin_object();
  w.key("ffs").value(flow_rec.ffs);
  w.key("seconds").value(flow_rec.seconds);
  w.key("synthesis_s").value(flow_rec.times.synthesis_s);
  w.key("ilp_s").value(flow_rec.times.ilp_s);
  w.key("convert_s").value(flow_rec.times.convert_s);
  w.key("retime_s").value(flow_rec.times.retime_s);
  w.key("clock_gating_s").value(flow_rec.times.clock_gating_s);
  w.key("hold_s").value(flow_rec.times.hold_s);
  w.key("timing_s").value(flow_rec.times.timing_s);
  w.key("place_s").value(flow_rec.times.place_s);
  w.key("cts_s").value(flow_rec.times.cts_s);
  w.key("sim_s").value(flow_rec.times.sim_s);
  w.key("sta_full_s").value(flow_rec.times.sta_full_s);
  w.key("sta_incremental_s").value(flow_rec.times.sta_incremental_s);
  w.end_object();
  w.key("failures").value(failures);
  w.end_object();
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return failures == 0 ? 0 : 1;
}
