// Macro-scale timing, placement and flow benchmark.
//
// Steps the make_macro pipeline generator through a size grid (default
// 2k/20k/100k registers; pass --sizes to go to 10^6) in both variants —
// single-phase FF and direct 3-phase latch — and, per grid cell, times:
//
//   hold:        repair_hold through one IncrementalTimer session; the
//                signoff sync after it must match a fresh check_timing
//                (timing_identity);
//   min period:  find_min_period (distance-row oracle, one engine reused
//                across probes) against a fresh full STA per probe. Both
//                searches must agree on feasibility and settle within one
//                search step of each other;
//   place:       one serial place() of the netlist, in microseconds per
//                cell. The placer is near-linear (O(pins) per region and
//                FM pass), so a gate requires the per-cell cost at the
//                largest size to stay within 2x that at the smallest (both
//                variants summed).
//
// A final flow section runs run_flow (3-phase style) on one macro and
// records the per-stage wall clock, the share of the flow's wall clock the
// stages account for (stage_coverage), and the share spent in static
// timing (sta_share = (timing_s + hold_s) / seconds). At --flow-ffs of
// 10^5 or more, sta_share above 2% fails the run.
//
// --no-gate records both gates without failing (CI's small-size run).
//
//   $ ./bench/macro_flow [--sizes 2000,20000,100000] [--no-gate]
//                        [--flow-ffs N] [--cycles N] [--out FILE]
//
// Exit status: 0 when every identity holds and the gates pass, 1
// otherwise.
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
#include "src/util/strcat.hpp"

using namespace tp;

namespace {

/// The min-period search without the oracle: a fresh full STA per probe,
/// the reference find_min_period must agree with.
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
  double hold_s = 0;
  double minp_s = 0, baseline_minp_s = 0;
  bool min_period_feasible = false;
  std::int64_t min_period_ps = 0;
  double place_s = 0;  // one serial place() of the cell's netlist
  int failures = 0;    // identity/equality violations in this cell
  IncrementalTimer::Stats stats;
};

double us_per_cell(double seconds, std::size_t cells) {
  return cells > 0 ? seconds * 1e6 / static_cast<double>(cells) : 0.0;
}

CellRecord run_cell(int ffs, bool three_phase) {
  const CellLibrary& library = CellLibrary::nominal_28nm();
  TimingOptions topt;
  // Post-CTS-skew-class uncertainty: above the register clk->q intrinsic
  // (84 ps) so the generator's direct-shift segments violate hold, but
  // below clk->q plus one gate (~112 ps) so logic stages stay clean — the
  // repair loop then buffers a sparse set of endpoints.
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

  // --- placement: one serial placement of the generated netlist. --------
  Stopwatch watch;
  place(base, library);
  rec.place_s = watch.seconds();

  // --- hold repair, then signoff, through one session (run_flow's path).
  Netlist nl = base;
  IncrementalTimer timer(library, topt);
  watch.reset();
  rec.buffers = repair_hold(nl, library, topt, 10, &timer).buffers_inserted;
  rec.hold_s = watch.seconds();
  if (timing_identity(timer.sync(nl)) !=
      timing_identity(check_timing(nl, library, topt))) {
    fail("post-repair session report differs from fresh check_timing");
  }
  rec.stats = timer.stats();

  // --- min period: oracle-backed search vs a fresh STA per probe. -------
  watch.reset();
  const MinPeriodResult minp = find_min_period(
      nl, library, spec.period_ps / 4, 4 * spec.period_ps, 5, topt);
  rec.minp_s = watch.seconds();
  watch.reset();
  const MinPeriodResult baseline = baseline_min_period(
      nl, library, spec.period_ps / 4, 4 * spec.period_ps, 5, topt);
  rec.baseline_minp_s = watch.seconds();
  rec.min_period_feasible = minp.feasible;
  rec.min_period_ps = minp.period_ps;
  // The oracle rounds the same sums in a different order than a fresh
  // report, so a probe whose worst slack sits within ulps of zero may
  // flip — the settled periods can differ by one search step. Feasibility
  // flags must still agree exactly.
  if (baseline.feasible != minp.feasible ||
      std::llabs(baseline.period_ps - minp.period_ps) > 5) {
    fail("oracle and fresh-STA min-period searches disagree");
  }

  std::printf(
      "%-16s %8zu cells  hold %6.2fs (%d buffers, %d full / %d skip)  "
      "minp %6.2fs (fresh %6.2fs)  place %6.2fs (%.2f us/cell)%s\n",
      rec.name.c_str(), rec.cells, rec.hold_s, rec.buffers,
      rec.stats.full_runs, rec.stats.skipped_runs, rec.minp_s,
      rec.baseline_minp_s, rec.place_s, us_per_cell(rec.place_s, rec.cells),
      rec.failures ? "  FAILED" : "");
  std::fflush(stdout);
  return rec;
}

struct FlowRecord {
  int ffs = 0;
  double seconds = 0;
  flow::StepTimes times;
};

/// Share of the flow's wall clock that its StepTimes stages account for.
double stage_coverage(const FlowRecord& rec) {
  return rec.seconds > 0 ? rec.times.total_s() / rec.seconds : 0.0;
}

/// Share of the flow's wall clock spent in static timing: the hold-repair
/// passes and the signoff.
double sta_share(const FlowRecord& rec) {
  return rec.seconds > 0
             ? (rec.times.timing_s + rec.times.hold_s) / rec.seconds
             : 0.0;
}

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
      "flow macro%-7d %6.2fs  (stages %.2fs, coverage %.4f, sta %.4f)\n",
      ffs, rec.seconds, rec.times.total_s(), stage_coverage(rec),
      sta_share(rec));
  std::fflush(stdout);
  return rec;
}

}  // namespace

int main(int argc, char** argv) {
  std::string sizes_arg = "2000,20000,100000";
  std::string out_file = "BENCH_macro.json";
  bool no_gate = false;
  int flow_ffs = 2000;
  std::size_t cycles = 64;

  util::ArgParser parser(
      "macro_flow",
      "step the macro generator through a size grid, time hold repair, "
      "the min-period search and placement per cell, then one 3-phase "
      "run_flow; gate placement growth and the flow's STA share");
  parser.add_value("--sizes", &sizes_arg,
                   "comma-separated register counts "
                   "(default 2000,20000,100000; supports up to 1000000)");
  parser.add_flag("--no-gate", &no_gate,
                  "record the placement growth and STA share without "
                  "failing on them (CI small sizes)");
  parser.add_value("--flow-ffs", &flow_ffs,
                   "macro size for the flow section (default 2000; the "
                   "STA-share gate applies from 100000)");
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
      grid.push_back(run_cell(ffs, three_phase));
      failures += grid.back().failures;
    }
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

  // STA gate: static timing stays a small share of a large serial flow.
  constexpr int kStaGateFfs = 100000;
  constexpr double kStaShare = 0.02;
  const bool sta_gate_checked = flow_ffs >= kStaGateFfs;
  if (sta_gate_checked) {
    std::printf("sta gate: %.4f of the flow @ %d FFs (allow %.2f)\n",
                sta_share(flow_rec), flow_ffs, kStaShare);
    if (!no_gate && sta_share(flow_rec) > kStaShare) {
      std::fprintf(stderr, "FAIL sta gate: %.4f > %.2f\n",
                   sta_share(flow_rec), kStaShare);
      ++failures;
    }
  }

  std::ofstream out(out_file);
  if (!out.good()) {
    std::fprintf(stderr, "cannot open %s\n", out_file.c_str());
    return 1;
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("macro_flow");
  w.key("grid").begin_array();
  for (const CellRecord& r : grid) {
    w.begin_object();
    w.key("name").value(r.name);
    w.key("ffs").value(r.ffs);
    w.key("three_phase").value(r.three_phase);
    w.key("cells").value(static_cast<std::uint64_t>(r.cells));
    w.key("hold_buffers").value(r.buffers);
    w.key("hold_s").value(r.hold_s);
    w.key("sta_full_runs").value(r.stats.full_runs);
    w.key("sta_skipped_runs").value(r.stats.skipped_runs);
    w.key("min_period_s").value(r.minp_s);
    w.key("fresh_min_period_s").value(r.baseline_minp_s);
    w.key("min_period_feasible").value(r.min_period_feasible);
    w.key("min_period_ps").value(r.min_period_ps);
    w.key("place_s").value(r.place_s);
    w.key("place_us_per_cell").value(us_per_cell(r.place_s, r.cells));
    w.key("identical").value(r.failures == 0);
    w.end_object();
  }
  w.end_array();
  w.key("place_gate_checked").value(place_gate_checked);
  w.key("place_growth").value(place_growth);
  w.key("sta_gate_checked").value(sta_gate_checked);
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
  w.key("power_s").value(flow_rec.times.power_s);
  w.key("stage_coverage").value(stage_coverage(flow_rec));
  w.key("sta_share").value(sta_share(flow_rec));
  w.end_object();
  w.key("failures").value(failures);
  w.end_object();
  out << w.str() << "\n";
  std::printf("wrote %s\n", out_file.c_str());
  return failures == 0 ? 0 : 1;
}
