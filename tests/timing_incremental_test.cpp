// IncrementalTimer session contract: byte-identical reports vs fresh STA
// under randomized edit sequences on every conversion backend's output,
// after every Netlist mutator and a clock-plan edit, a cached report only
// for an unedited netlist, and the structured min-period search (oracle
// fast path included).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"
#include "src/phase/schedule.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/sta.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"
#include "src/util/strcat.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

/// Output netlist of one conversion backend on a small ISCAS benchmark —
/// the edit-identity tests run on real post-flow structures (latch banks,
/// ICGs, hold buffers), not toy chains.
Netlist converted(flow::DesignStyle style) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 16, 11);
  return run_flow(bench, style, stim, {}).netlist;
}

/// Gate retype pairs that keep pin count (morph_cell requirement) while
/// changing the cell's delay, so every retype moves real arrivals.
CellKind retype_of(CellKind kind) {
  switch (kind) {
    case CellKind::kBuf: return CellKind::kInv;
    case CellKind::kInv: return CellKind::kBuf;
    case CellKind::kAnd2: return CellKind::kNand2;
    case CellKind::kNand2: return CellKind::kAnd2;
    case CellKind::kOr2: return CellKind::kNor2;
    case CellKind::kNor2: return CellKind::kOr2;
    case CellKind::kXor2: return CellKind::kXnor2;
    case CellKind::kXnor2: return CellKind::kXor2;
    default: return kind;
  }
}

/// One randomized structural edit; returns a description for failure
/// messages ("no-op" when it found nothing to edit). Edits mirror the hot
/// callers: buffer insertion (repair_hold), gate retype (logic
/// restructuring), and clock-plan rescale (an edit the netlist's edit
/// counter does not see).
std::string random_edit(Netlist& nl, Rng& rng, int step) {
  const int kind = static_cast<int>(rng.range(0, 2));
  if (kind == 2) {
    // Clock-plan change: clocks() hands out a mutable reference, so the
    // edit counter misses it and the session's ClockSpec compare must not.
    ClockSpec spec = nl.clocks();
    const std::int64_t p = spec.period_ps + 20;
    for (PhaseWaveform& w : spec.phases) {
      w.rise_ps = w.rise_ps * p / spec.period_ps;
      w.fall_ps = w.fall_ps * p / spec.period_ps;
    }
    spec.period_ps = p;
    nl.clocks() = spec;
    return "clock rescale";
  }
  // Pick a live cell with a data input to edit.
  const std::uint32_t n = nl.num_cells();
  for (std::uint32_t tries = 0; tries < n; ++tries) {
    const CellId id{static_cast<std::uint32_t>(rng.range(0, n - 1))};
    const Cell& cell = nl.cell(id);
    if (!cell.alive || cell.ins.empty()) continue;
    if (kind == 1 && retype_of(cell.kind) != cell.kind) {
      nl.morph_cell(id, retype_of(cell.kind));
      return cat("retype ", cell.name);
    }
    if (kind == 0 && !is_clock_cell(cell.kind)) {
      std::uint32_t pin = 0;
      if (static_cast<int>(pin) == clock_pin(cell.kind)) pin = 1;
      if (pin >= cell.ins.size()) continue;
      if (nl.net(cell.ins[pin]).is_clock) continue;
      const std::string name = cell.name;
      const NetId d = cell.ins[pin];
      const CellId buf =
          nl.add_gate(CellKind::kBuf, cat(name, "_e", step), {d});
      nl.replace_input(id, pin, nl.cell(buf).out);
      return cat("buffer before ", name);
    }
  }
  return "no-op";
}

class IncrementalBackend
    : public ::testing::TestWithParam<flow::DesignStyle> {};

TEST_P(IncrementalBackend, RandomizedEditsMatchFreshSta) {
  Netlist nl = converted(GetParam());
  TimingOptions topt;
  topt.hold_uncertainty_ps = 60;
  IncrementalTimer timer(lib(), topt);
  EXPECT_EQ(timing_identity(timer.sync(nl)),
            timing_identity(check_timing(nl, lib(), topt)));

  Rng rng(0x5EED + static_cast<std::uint64_t>(GetParam()));
  int edits = 0;
  for (int step = 0; step < 12; ++step) {
    const std::string what = random_edit(nl, rng, step);
    if (what != "no-op") ++edits;
    ASSERT_EQ(timing_identity(timer.sync(nl)),
              timing_identity(check_timing(nl, lib(), topt)))
        << style_name(GetParam()) << " step " << step << ": " << what;
  }
  // Every edit, clock rescales included, runs the engine again.
  EXPECT_EQ(timer.stats().full_runs, 1 + edits);
  EXPECT_EQ(timer.stats().skipped_runs, 12 - edits);
}

TEST_P(IncrementalBackend, BorrowRecordsMatchFreshProfile) {
  Netlist nl = converted(GetParam());
  TimingOptions topt;
  IncrementalTimer timer(lib(), topt, /*track_borrow=*/true);
  timer.sync(nl);
  Rng rng(0xB0B + static_cast<std::uint64_t>(GetParam()));
  for (int step = 0; step < 6; ++step) random_edit(nl, rng, step);
  timer.sync(nl);
  EXPECT_EQ(borrow_identity(timer.borrow_records(nl)),
            borrow_identity(borrow_profile(nl, lib(), topt)))
      << style_name(GetParam());
}

INSTANTIATE_TEST_SUITE_P(
    AllBackends, IncrementalBackend,
    ::testing::Values(flow::DesignStyle::kFlipFlop,
                      flow::DesignStyle::kMasterSlave,
                      flow::DesignStyle::kThreePhase,
                      flow::DesignStyle::kPulsedLatch,
                      flow::DesignStyle::kTwoPhase,
                      flow::DesignStyle::kDetFf),
    [](const ::testing::TestParamInfo<flow::DesignStyle>& info) {
      std::string name(flow::style_name(info.param));
      // gtest parameter names must be alphanumeric ("M-S" is not).
      std::erase_if(name, [](char c) { return !std::isalnum(c); });
      return name;
    });

TEST(IncrementalTimer, PhaseScheduleMoveFallsBack) {
  Netlist nl = converted(flow::DesignStyle::kThreePhase);
  TimingOptions topt;
  IncrementalTimer timer(lib(), topt);
  timer.sync(nl);
  // Moving the closing edges rewrites every transparency window — the
  // session must detect the clock-plan change and run again.
  const std::int64_t tc = nl.clocks().period_ps;
  apply_phase_schedule(nl, tc / 4, 5 * tc / 8);
  EXPECT_EQ(timing_identity(timer.sync(nl)),
            timing_identity(check_timing(nl, lib(), topt)));
  EXPECT_EQ(timer.stats().full_runs, 2);
}

TEST(IncrementalTimer, CopyWithEqualEditCountIsAnalyzedAfresh) {
  // A copy carries its original's edit count, so after one edit each the
  // two netlists differ at the same count: the session must not serve the
  // report of the one it saw last.
  Netlist a = converted(flow::DesignStyle::kFlipFlop);
  Netlist b = a;
  TimingOptions topt;
  IncrementalTimer timer(lib(), topt);
  CellId gate;
  for (const CellId id : a.live_cells()) {
    if (retype_of(a.cell(id).kind) != a.cell(id).kind) {
      gate = id;
      break;
    }
  }
  ASSERT_TRUE(gate.valid());
  a.morph_cell(gate, retype_of(a.cell(gate).kind));
  b.add_net("b_only");
  ASSERT_EQ(a.edits(), b.edits());
  EXPECT_EQ(timing_identity(timer.sync(a)),
            timing_identity(check_timing(a, lib(), topt)));
  EXPECT_EQ(timing_identity(timer.sync(b)),
            timing_identity(check_timing(b, lib(), topt)));
  EXPECT_EQ(timer.stats().full_runs, 2);
}

TEST(IncrementalTimer, RunThatThrowsLeavesNoCache) {
  Netlist nl = converted(flow::DesignStyle::kThreePhase);
  TimingOptions topt;
  IncrementalTimer timer(lib(), topt, /*track_borrow=*/true);
  timer.sync(nl);
  // Dropping p3's waveform makes the run throw part way through its
  // window pass; with the plan restored the session must run again.
  const ClockSpec plan = nl.clocks();
  nl.clocks().phases.pop_back();
  EXPECT_THROW(timer.sync(nl), Error);
  nl.clocks() = plan;
  timer.sync(nl);
  EXPECT_EQ(timer.stats().full_runs, 2);
  EXPECT_EQ(borrow_identity(timer.borrow_records(nl)),
            borrow_identity(borrow_profile(nl, lib(), topt)));
}

TEST(IncrementalTimer, EveryMutatorInvalidatesTheCachedReport) {
  Netlist nl = converted(flow::DesignStyle::kThreePhase);
  TimingOptions topt;
  IncrementalTimer timer(lib(), topt);
  timer.sync(nl);
  // After each edit the session must run again and match a fresh
  // analysis; a second sync with no edit in between must be served from
  // cache.
  const auto check = [&](const char* what) {
    const int runs = timer.stats().full_runs;
    EXPECT_EQ(timing_identity(timer.sync(nl)),
              timing_identity(check_timing(nl, lib(), topt)))
        << what;
    EXPECT_EQ(timer.stats().full_runs, runs + 1) << what;
    const int skips = timer.stats().skipped_runs;
    timer.sync(nl);
    EXPECT_EQ(timer.stats().full_runs, runs + 1) << what << " (no edit)";
    EXPECT_EQ(timer.stats().skipped_runs, skips + 1) << what;
  };
  // A p1 latch: the edits below rewire its D pin and move it to p3.
  CellId reg;
  for (const CellId id : nl.registers()) {
    if (nl.cell(id).kind == CellKind::kLatchH &&
        nl.cell(id).phase == Phase::kP1) {
      reg = id;
      break;
    }
  }
  ASSERT_TRUE(reg.valid());

  const NetId spare = nl.add_net("t_spare");
  check("add_net");
  const CellId in = nl.add_input("t_in");
  check("add_input");
  const NetId in_net = nl.cell(in).out;
  const CellId buf = nl.add_gate(CellKind::kBuf, "t_buf", {in_net});
  check("add_gate");
  const NetId buf_net = nl.cell(buf).out;
  const CellId inv = nl.add_cell(CellKind::kInv, "t_inv", {buf_net}, spare);
  check("add_cell");
  const CellId po = nl.add_output("t_out", spare);
  check("add_output");
  nl.replace_input(reg, 0, spare);
  check("replace_input");
  nl.transfer_fanouts(spare, buf_net);
  check("transfer_fanouts");
  nl.morph_cell(buf, CellKind::kInv);
  check("morph_cell");
  nl.morph_cell(inv, CellKind::kAnd2, {buf_net, in_net});
  check("morph_cell with inputs");
  nl.set_phase(reg, Phase::kP3);
  check("set_phase");
  nl.set_init(reg, nl.cell(reg).init == 0);
  check("set_init");
  const CellId rst = nl.add_input("t_rst");
  check("add_input (reset)");
  nl.declare_reset_root(rst, /*active_low=*/true, /*release_order=*/1);
  check("declare_reset_root");
  nl.set_reset(reg, nl.cell(rst).out);
  check("set_reset");
  nl.mark_clock_net(in_net);
  check("mark_clock_net");
  const CellId clk = nl.add_input("t_clk");
  check("add_input (clock)");
  nl.set_clock_root(clk, Phase::kP2);
  check("set_clock_root");
  nl.remove_cell(po);
  check("remove_cell (output)");
  nl.remove_cell(inv);
  check("remove_cell");
  nl.remove_net(spare);
  check("remove_net");
  ClockSpec spec = nl.clocks();
  spec.period_ps += 30;
  nl.clocks() = spec;
  check("clocks()");
}

/// Brute-force reference: smallest period in [lo, hi] (step granularity,
/// same proportional waveform scaling) whose fresh report passes setup.
MinPeriodResult brute_force_min_period(const Netlist& netlist,
                                       std::int64_t lo, std::int64_t hi,
                                       std::int64_t step,
                                       const TimingOptions& topt) {
  Netlist scaled = netlist;
  const ClockSpec original = netlist.clocks();
  MinPeriodResult r;
  r.period_ps = hi;
  for (std::int64_t p = lo; p <= hi; p += step) {
    ClockSpec spec = original;
    spec.period_ps = p;
    for (PhaseWaveform& w : spec.phases) {
      w.rise_ps = w.rise_ps * p / original.period_ps;
      w.fall_ps = w.fall_ps * p / original.period_ps;
    }
    scaled.clocks() = spec;
    const TimingReport rep = check_timing(scaled, lib(), topt);
    if (rep.converged && rep.setup_ok) {
      r.feasible = true;
      r.period_ps = p;
      return r;
    }
  }
  return r;
}

TEST(MinPeriod, InfeasibleBracketIsFlaggedNotSentinel) {
  // A deep FF-to-FF path cannot pass anywhere in a tiny bracket; the old
  // convention returned hi + 1, indistinguishable from a legal period one
  // ps above hi. The structured result must say infeasible explicitly.
  const Netlist nl = converted(flow::DesignStyle::kFlipFlop);
  TimingOptions topt;
  const MinPeriodResult r = find_min_period(nl, lib(), 10, 60, 5, topt);
  EXPECT_FALSE(r.feasible);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.period_ps, 60);  // the probed bound, not a sentinel
  EXPECT_GT(r.probes, 0);
}

TEST(MinPeriod, MatchesBruteForceOnLatchDesign) {
  // 3-phase output: transparent windows, borrowing chains, the oracle's
  // engine-fallback zone. The binary search may settle one step away from
  // the linear scan (probe grids differ), never more.
  const Netlist nl = converted(flow::DesignStyle::kThreePhase);
  TimingOptions topt;
  const std::int64_t tc = nl.clocks().period_ps;
  const MinPeriodResult fast =
      find_min_period(nl, lib(), tc / 4, 2 * tc, 5, topt);
  const MinPeriodResult ref =
      brute_force_min_period(nl, tc / 4, 2 * tc, 5, topt);
  ASSERT_EQ(fast.feasible, ref.feasible);
  ASSERT_TRUE(fast.feasible);
  EXPECT_LE(std::abs(fast.period_ps - ref.period_ps), 5)
      << "binary " << fast.period_ps << " vs scan " << ref.period_ps;
}

TEST(MinPeriod, OracleAgreesWithEngineOnFfDesign) {
  // On an FF design every probe should be oracle-decided (no borrowing),
  // and the result must match the brute-force scan exactly to the step.
  const Netlist nl = converted(flow::DesignStyle::kFlipFlop);
  TimingOptions topt;
  const std::int64_t tc = nl.clocks().period_ps;
  const MinPeriodResult fast =
      find_min_period(nl, lib(), tc / 4, 2 * tc, 5, topt);
  const MinPeriodResult ref =
      brute_force_min_period(nl, tc / 4, 2 * tc, 5, topt);
  ASSERT_EQ(fast.feasible, ref.feasible);
  EXPECT_LE(std::abs(fast.period_ps - ref.period_ps), 5);
  EXPECT_GT(fast.fast_probes, 0);
}

}  // namespace
}  // namespace tp
