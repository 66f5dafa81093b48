// Tests for the phase-aware dataflow analyzer (src/analysis/): the worklist
// engine and Ternary lattice, the three analyses (A1 X-propagation, A2
// min-delay races, A3 borrowing chains) on seeded violations and clean
// designs, and the run_flow() / report-merge integration.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/analysis/dataflow.hpp"
#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"
#include "src/util/log.hpp"

namespace tp::analysis {
namespace {

using check::RuleId;

// --- lattice ---------------------------------------------------------------

TEST(Ternary, JoinIsCommutativeIdempotentAndMonotone) {
  const Ternary all[] = {Ternary::kBottom, Ternary::kZero, Ternary::kOne,
                         Ternary::kVaries, Ternary::kUnknown};
  for (const Ternary a : all) {
    EXPECT_EQ(ternary_join(a, a), a);
    EXPECT_EQ(ternary_join(a, Ternary::kBottom), a);
    for (const Ternary b : all) {
      EXPECT_EQ(ternary_join(a, b), ternary_join(b, a));
      // The join is an upper bound: joining it again with either operand
      // changes nothing.
      const Ternary j = ternary_join(a, b);
      EXPECT_EQ(ternary_join(j, a), j);
      EXPECT_EQ(ternary_join(j, b), j);
    }
  }
  EXPECT_EQ(ternary_join(Ternary::kZero, Ternary::kOne), Ternary::kVaries);
  EXPECT_EQ(ternary_join(Ternary::kVaries, Ternary::kUnknown),
            Ternary::kUnknown);
}

TEST(Ternary, AbstractEvalBlocksXAtControllingConstants) {
  using T = Ternary;
  const auto eval2 = [](CellKind kind, T a, T b) {
    const T ins[] = {a, b};
    return abstract_eval(kind, ins);
  };
  // Controlling values absorb X exactly as in 3-valued simulation.
  EXPECT_EQ(eval2(CellKind::kAnd2, T::kZero, T::kUnknown), T::kZero);
  EXPECT_EQ(eval2(CellKind::kOr2, T::kOne, T::kUnknown), T::kOne);
  EXPECT_EQ(eval2(CellKind::kNand2, T::kZero, T::kUnknown), T::kOne);
  // Non-controlling operands pass X through.
  EXPECT_EQ(eval2(CellKind::kAnd2, T::kOne, T::kUnknown), T::kUnknown);
  EXPECT_EQ(eval2(CellKind::kXor2, T::kZero, T::kUnknown), T::kUnknown);
  // Defined-but-varying operands yield kVaries, not X.
  EXPECT_EQ(eval2(CellKind::kAnd2, T::kVaries, T::kOne), T::kVaries);
  // Any kBottom operand is kBottom.
  EXPECT_EQ(eval2(CellKind::kAnd2, T::kBottom, T::kUnknown), T::kBottom);
  const T inv_in[] = {T::kUnknown};
  EXPECT_EQ(abstract_eval(CellKind::kInv, inv_in), T::kUnknown);
}

TEST(Ternary, AbstractEvalMuxWithXSelectAndEqualData) {
  // MUX(d0=varies-as-pair, d1 same net, sel=X): the X select cannot change
  // the output when both data inputs agree, so per concrete data choice the
  // sweep agrees — but across choices the output varies.
  const Ternary ins[] = {Ternary::kOne, Ternary::kOne, Ternary::kUnknown};
  EXPECT_EQ(abstract_eval(CellKind::kMux2, ins), Ternary::kOne);
  const Ternary ins2[] = {Ternary::kZero, Ternary::kOne, Ternary::kUnknown};
  EXPECT_EQ(abstract_eval(CellKind::kMux2, ins2), Ternary::kUnknown);
}

// --- worklist engine -------------------------------------------------------

TEST(Dataflow, ForwardFixpointIsDeterministicAndTerminates) {
  Netlist nl("chain");
  NetId at = nl.cell(nl.add_input("a")).out;
  for (int i = 0; i < 8; ++i) {
    at = nl.cell(nl.add_gate(CellKind::kInv, "i" + std::to_string(i), {at}))
             .out;
  }
  nl.add_output("y", at);

  std::vector<int> value(nl.num_nets(), 0);
  const auto transfer = [&](CellId id) {
    const Cell& cell = nl.cell(id);
    if (!cell.out.valid()) return false;
    int next = 1;
    for (const NetId in : cell.ins) next = std::max(next, value[in.value()] + 1);
    if (next == value[cell.out.value()]) return false;
    value[cell.out.value()] = next;
    return true;
  };
  const std::size_t steps =
      run_to_fixpoint(nl, Direction::kForward, transfer);
  // Topological seeding: every combinational cell settles in one visit, so
  // the only revisit is the output cell re-queued by the last inverter.
  EXPECT_LE(steps, static_cast<std::size_t>(nl.num_cells()) + 1);
  EXPECT_EQ(value[at.value()], 9);  // depth of the chain behind `at`
  std::vector<int> first = value;
  value.assign(nl.num_nets(), 0);
  EXPECT_EQ(run_to_fixpoint(nl, Direction::kForward, transfer), steps);
  EXPECT_EQ(value, first);
}

TEST(Dataflow, MaxStepsGuardsNonMonotoneTransfers) {
  // A latch feeding its own data pin: a legal netlist cycle (registers are
  // levelization barriers) that a broken always-changed transfer would
  // orbit forever.
  Netlist nl("loop");
  const CellId p1 = nl.add_input("p1");
  nl.set_clock_root(p1, Phase::kP1);
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kLatchH, "l", {q, nl.cell(p1).out}, q, Phase::kP1);
  const auto diverging = [](CellId) { return true; };  // never settles
  EXPECT_THROW(
      run_to_fixpoint(nl, Direction::kForward, diverging, /*max_steps=*/16),
      Error);
}

// --- fixtures --------------------------------------------------------------

/// A minimal legal 3-phase chain: din -> [a_p1] -> inv -> [b_p2] -> dout.
struct Chain {
  Netlist nl{"chain"};
  NetId p1n, p2n, p3n;
};

Chain three_phase_chain(std::int64_t period_ps = 3000) {
  Chain c;
  Netlist& nl = c.nl;
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  c.p1n = nl.cell(p1).out;
  c.p2n = nl.cell(p2).out;
  c.p3n = nl.cell(p3).out;
  nl.clocks() = three_phase_spec(period_ps, c.p1n, c.p2n, c.p3n);

  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "a_p1", {din, c.p1n}, qa, Phase::kP1);
  const CellId inv = nl.add_gate(CellKind::kInv, "inv", {qa});
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "b_p2", {nl.cell(inv).out, c.p2n}, qb,
              Phase::kP2);
  nl.add_output("dout", qb);
  return c;
}

// --- A1: X-propagation -----------------------------------------------------

TEST(XProp, CleanChainHasNoFindings) {
  Chain c = three_phase_chain();
  const check::CheckReport report = run_analysis(c.nl, {});
  EXPECT_EQ(report.count(RuleId::kXProp), 0);
  EXPECT_TRUE(report.clean());
}

TEST(XProp, XSourceRegisterReachesDownstreamWithWitness) {
  Chain c = three_phase_chain();
  AnalysisOptions options;
  options.x_sources = {"a_p1"};
  const check::CheckReport report = run_analysis(c.nl, options);
  // a_p1 itself, b_p2, and the primary output are all X-reachable.
  EXPECT_EQ(report.count(RuleId::kXProp), 3);
  bool saw_output = false;
  for (const check::Diagnostic& diag : report.diags) {
    if (diag.rule != RuleId::kXProp) continue;
    if (diag.message.find("primary output 'dout'") == std::string::npos) {
      continue;
    }
    saw_output = true;
    // Witness path runs source-to-endpoint through the latch chain.
    const std::vector<std::string> want = {"a_p1", "inv", "b_p2", "dout"};
    EXPECT_EQ(diag.cells, want);
  }
  EXPECT_TRUE(saw_output);
}

TEST(XProp, ControllingConstantBlocksX) {
  Chain c = three_phase_chain();
  Netlist& nl = c.nl;
  // Gate the X input behind AND(x, 0): the constant controls the output,
  // so no X escapes to the new output.
  const NetId xin = nl.cell(nl.add_input("xin")).out;
  const CellId zero = nl.add_cell(CellKind::kConst0, "zero", {},
                                  nl.add_net("zero_n"), Phase::kNone);
  const CellId blocked =
      nl.add_gate(CellKind::kAnd2, "blocked", {xin, nl.cell(zero).out});
  nl.add_output("dout2", nl.cell(blocked).out);

  AnalysisOptions options;
  options.x_sources = {"xin"};
  const check::CheckReport report = run_analysis(c.nl, options);
  EXPECT_EQ(report.count(RuleId::kXProp), 0);
}

TEST(XProp, FloatingNetIsAnXSource) {
  Chain c = three_phase_chain();
  Netlist& nl = c.nl;
  const NetId floating = nl.add_net("floating");
  const CellId buf = nl.add_gate(CellKind::kBuf, "buf", {floating});
  nl.add_output("dout2", nl.cell(buf).out);
  const check::CheckReport report = run_analysis(c.nl, {});
  EXPECT_GE(report.count(RuleId::kXProp), 1);
}

// --- A2: min-delay races ---------------------------------------------------

/// Two latches with hand-written overlapping waveforms and one inverter
/// between them.
Netlist overlapping_pair() {
  Netlist nl("race");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  const NetId p1n = nl.cell(p1).out;
  const NetId p2n = nl.cell(p2).out;
  ClockSpec spec;
  spec.period_ps = 3000;
  spec.phases.push_back({Phase::kP1, p1n, 0, 1800});
  spec.phases.push_back({Phase::kP2, p2n, 1500, 3000});
  nl.clocks() = spec;

  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "launch_p1", {din, p1n}, qa, Phase::kP1);
  const CellId inv = nl.add_gate(CellKind::kInv, "inv", {qa});
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "capture_p2", {nl.cell(inv).out, p2n}, qb,
              Phase::kP2);
  nl.add_output("dout", qb);
  return nl;
}

TEST(MinDelayRace, OverlappedWindowsWithShortPathAreFlagged) {
  const Netlist nl = overlapping_pair();
  const check::CheckReport report = run_analysis(nl, {});
  ASSERT_GE(report.count(RuleId::kMinDelayRace), 1);
  for (const check::Diagnostic& diag : report.diags) {
    if (diag.rule != RuleId::kMinDelayRace) continue;
    // Witness: launch latch, the path cell, and the capture latch.
    const std::vector<std::string> want = {"launch_p1", "inv", "capture_p2"};
    EXPECT_EQ(diag.cells, want);
  }
}

TEST(MinDelayRace, DisjointThirdSplitWindowsAreClean) {
  Chain c = three_phase_chain();
  const check::CheckReport report = run_analysis(c.nl, {});
  EXPECT_EQ(report.count(RuleId::kMinDelayRace), 0);
}

// --- A3: borrowing chains --------------------------------------------------

/// A 300 ps / 3-phase latch pipeline with six inverters per stage: every
/// stage borrows, and the cumulative borrow passes the 100 ps default
/// budget.
Netlist borrowing_pipeline() {
  Netlist nl("borrow");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  const NetId p1n = nl.cell(p1).out;
  const NetId p2n = nl.cell(p2).out;
  const NetId p3n = nl.cell(p3).out;
  nl.clocks() = three_phase_spec(300, p1n, p2n, p3n);

  int gate = 0;
  const auto comb_stage = [&](NetId from) {
    NetId at = from;
    for (int i = 0; i < 6; ++i) {
      at = nl.cell(nl.add_gate(CellKind::kInv,
                               "inv" + std::to_string(gate++), {at}))
               .out;
    }
    return at;
  };
  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "a_p1", {comb_stage(din), p1n}, qa,
              Phase::kP1);
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "b_p2", {comb_stage(qa), p2n}, qb,
              Phase::kP2);
  const NetId qc = nl.add_net("qc");
  nl.add_cell(CellKind::kLatchH, "c_p3", {comb_stage(qb), p3n}, qc,
              Phase::kP3);
  nl.add_output("dout", qc);
  return nl;
}

TEST(BorrowChain, CumulativeOverBudgetChainIsFlaggedOnceAtItsEnd) {
  const Netlist nl = borrowing_pipeline();
  const check::CheckReport report = run_analysis(nl, {});
  // Maximal-end reporting: one finding for the whole chain, not one per
  // suffix.
  ASSERT_EQ(report.count(RuleId::kBorrowChain), 1);
  for (const check::Diagnostic& diag : report.diags) {
    if (diag.rule != RuleId::kBorrowChain) continue;
    const std::vector<std::string> want = {"a_p1", "b_p2", "c_p3"};
    EXPECT_EQ(diag.cells, want);
  }
}

TEST(BorrowChain, RaisedBudgetSilencesTheChain) {
  const Netlist nl = borrowing_pipeline();
  AnalysisOptions options;
  options.borrow_budget_ps = 1e6;
  const check::CheckReport report = run_analysis(nl, options);
  EXPECT_EQ(report.count(RuleId::kBorrowChain), 0);
}

TEST(BorrowChain, RelaxedScheduleIsClean) {
  Chain c = three_phase_chain();
  const check::CheckReport report = run_analysis(c.nl, {});
  EXPECT_EQ(report.count(RuleId::kBorrowChain), 0);
}

// --- run_analysis plumbing -------------------------------------------------

TEST(RunAnalysis, DisabledRulesAreSkipped) {
  const Netlist nl = overlapping_pair();
  AnalysisOptions options;
  options.check.disabled = {RuleId::kMinDelayRace};
  const check::CheckReport report = run_analysis(nl, options);
  EXPECT_EQ(report.count(RuleId::kMinDelayRace), 0);
}

TEST(RunAnalysis, WaiversApplyToAnalysisFindings) {
  const Netlist nl = overlapping_pair();
  AnalysisOptions options;
  check::Waiver waiver;
  waiver.rule = RuleId::kMinDelayRace;
  waiver.target = "capture_*";
  options.check.waivers.add(waiver);
  const check::CheckReport report = run_analysis(nl, options);
  EXPECT_EQ(report.count(RuleId::kMinDelayRace), 0);
  EXPECT_GE(report.waived, 1);
  EXPECT_TRUE(report.clean());
}

TEST(RunAnalysis, MergesWithStructuralChecks) {
  const Netlist nl = overlapping_pair();
  check::CheckReport report = check::run_checks(nl, {});
  const int structural = report.errors;
  report.merge(run_analysis(nl, {}));
  EXPECT_GE(report.count(RuleId::kMinDelayRace), 1);
  EXPECT_GE(report.errors, structural + 1);
}

TEST(RunAnalysis, FindingBudgetCapsAndSummarizes) {
  Chain c = three_phase_chain();
  Netlist& nl = c.nl;
  // Fan an X out to many primary outputs to overflow a budget of 2.
  const NetId xin = nl.cell(nl.add_input("xin")).out;
  for (int i = 0; i < 6; ++i) {
    nl.add_output("xo" + std::to_string(i), xin);
  }
  AnalysisOptions options;
  options.x_sources = {"xin"};
  options.max_findings = 2;
  const check::CheckReport report = run_analysis(nl, options);
  EXPECT_EQ(report.count(RuleId::kXProp), 3);  // 2 findings + 1 summary
  bool saw_summary = false;
  for (const check::Diagnostic& diag : report.diags) {
    saw_summary = saw_summary ||
                  diag.message.find("suppressed") != std::string::npos;
  }
  EXPECT_TRUE(saw_summary);
}

// --- registry / flow integration -------------------------------------------

TEST(Registry, AnalysisRulesAreRegisteredButNotRunByRunChecks) {
  int analysis_rules = 0;
  for (const check::RuleSpec& spec : check::rule_registry()) {
    if (check::rule_is_analysis(spec.id)) ++analysis_rules;
  }
  EXPECT_EQ(analysis_rules, 6);  // A1-A3 dataflow + A4-A6 domain rules
  // run_checks() on a netlist with an analysis violation stays silent on
  // the analysis rules (they need run_analysis()).
  const Netlist nl = overlapping_pair();
  const check::CheckReport report = check::run_checks(nl, {});
  EXPECT_EQ(report.count(RuleId::kMinDelayRace), 0);
}

TEST(FlowIntegration, CheckAnalysisKeepsCleanFlowClean) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 32);
  flow::FlowOptions options = flow::FlowOptions::fast();
  options.check_rules = true;
  options.check_analysis = true;
  const flow::FlowResult result = flow::run_flow(
      bench, flow::DesignStyle::kThreePhase, stim, options);
  EXPECT_FALSE(result.lint.stages.empty());
  EXPECT_TRUE(result.lint.all_clean());
}

TEST(FlowIntegration, AnalysisAloneStillProducesStageReports) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 32);
  flow::FlowOptions options = flow::FlowOptions::fast();
  options.check_rules = false;
  options.check_analysis = true;
  const flow::FlowResult result = flow::run_flow(
      bench, flow::DesignStyle::kThreePhase, stim, options);
  EXPECT_FALSE(result.lint.stages.empty());
  EXPECT_TRUE(result.lint.all_clean());
}

}  // namespace
}  // namespace tp::analysis
