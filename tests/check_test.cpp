// Tests for the static phase-rule checker (src/check/): one seeded
// violation per rule class, waiver/baseline round trips, report formats,
// clean-flow sweeps, and the per-stage blame integration in run_flow().
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/analysis/analysis.hpp"
#include "src/analysis/domains.hpp"
#include "src/check/checker.hpp"
#include "src/check/rules.hpp"
#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/flow.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/traverse.hpp"
#include "src/netlist/verilog.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"

namespace tp::flow {
// gtest prints a pointer parameter as its address, which differs on every
// build and would leak into the test names ctest discovers; print the
// backend's stable token instead (found by ADL from the pointee's namespace).
void PrintTo(const ConversionBackend* backend, std::ostream* os) {
  *os << backend->token();
}
}  // namespace tp::flow

namespace tp::check {
namespace {

// A minimal legal 3-phase pipeline:
//
//   din -> [a_p2] -> [b_p1] -> inv1 -> [c_p3] -> [d_p2] -> [e_p1] -> dout
//
// Every latch adjacency is phase-legal (p2->p1, p1->p3, p3->p2, p2->p1)
// and the canonical third-split windows are disjoint, so run_checks() must
// come back clean; each seeded-violation test then breaks exactly one rule.
struct Chain {
  Netlist nl{"chain"};
  NetId p1n, p2n, p3n;
  NetId din_net;
  CellId a_p2, b_p1, c_p3, d_p2, e_p1;
  CellId inv1;
};

Chain three_phase_chain() {
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
  nl.clocks() = three_phase_spec(3000, c.p1n, c.p2n, c.p3n);

  c.din_net = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  c.a_p2 = nl.add_cell(CellKind::kLatchH, "a_p2", {c.din_net, c.p2n}, qa,
                       Phase::kP2);
  const NetId qb = nl.add_net("qb");
  c.b_p1 =
      nl.add_cell(CellKind::kLatchH, "b_p1", {qa, c.p1n}, qb, Phase::kP1);
  c.inv1 = nl.add_gate(CellKind::kInv, "inv1", {qb});
  const NetId qc = nl.add_net("qc");
  c.c_p3 = nl.add_cell(CellKind::kLatchH, "c_p3", {nl.cell(c.inv1).out, c.p3n},
                       qc, Phase::kP3);
  const NetId qd = nl.add_net("qd");
  c.d_p2 =
      nl.add_cell(CellKind::kLatchH, "d_p2", {qc, c.p2n}, qd, Phase::kP2);
  const NetId qe = nl.add_net("qe");
  c.e_p1 =
      nl.add_cell(CellKind::kLatchH, "e_p1", {qd, c.p1n}, qe, Phase::kP1);
  nl.add_output("dout", qe);
  return c;
}

// --- registry ---------------------------------------------------------------

TEST(CheckRegistry, CoversEveryRuleWithUniqueNames) {
  const std::vector<RuleSpec>& registry = rule_registry();
  ASSERT_EQ(registry.size(), static_cast<std::size_t>(kNumRules));
  for (int i = 0; i < kNumRules; ++i) {
    const RuleSpec& spec = registry[static_cast<std::size_t>(i)];
    EXPECT_EQ(static_cast<int>(spec.id), i);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.summary.empty());
    EXPECT_FALSE(spec.paper_ref.empty());
    for (int j = 0; j < i; ++j) {
      EXPECT_NE(spec.name, registry[static_cast<std::size_t>(j)].name);
    }
    RuleId round_trip = RuleId::kClockReachability;
    EXPECT_TRUE(rule_from_name(spec.name, &round_trip));
    EXPECT_EQ(round_trip, spec.id);
  }
  RuleId unused;
  EXPECT_FALSE(rule_from_name("no-such-rule", &unused));
}

// --- clean baseline ---------------------------------------------------------

TEST(CheckRules, CleanChainHasNoFindings) {
  Chain c = three_phase_chain();
  const CheckReport report = run_checks(c.nl);
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_EQ(report.errors, 0);
  EXPECT_EQ(report.warnings, 0);
  EXPECT_EQ(report.waived, 0);
  EXPECT_TRUE(report.diags.empty());
  EXPECT_EQ(report.design, "chain");
}

// --- seeded violations, one per rule class ----------------------------------

TEST(CheckRules, ClockPinIntoDataLogicIsReachabilityError) {
  Chain c = three_phase_chain();
  // Gate pin of b_p1 rewired onto the data input: the backward walk ends in
  // data logic instead of a phase root.
  c.nl.replace_input(c.b_p1, 1, c.din_net);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kClockReachability), 1) << report.to_text();
  EXPECT_FALSE(report.clean());
}

TEST(CheckRules, TagDisagreeingWithTracedRootIsReachabilityError) {
  Chain c = three_phase_chain();
  // The clock pin legally reaches the p1 root but the cell says p3.
  c.nl.set_phase(c.e_p1, Phase::kP3);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kClockReachability), 1) << report.to_text();
}

TEST(CheckRules, FloatingClockPinIsFlaggedTwice) {
  Chain c = three_phase_chain();
  const NetId undriven = c.nl.add_net("no_driver");
  c.nl.replace_input(c.c_p3, 1, undriven);
  const CheckReport report = run_checks(c.nl);
  // Both the clock-specific rule and the generic floating-net rule fire.
  EXPECT_EQ(report.count(RuleId::kClockReachability), 1) << report.to_text();
  EXPECT_EQ(report.count(RuleId::kFloatingNet), 1);
}

TEST(CheckRules, ClockNetworkLoopIsReachabilityError) {
  Chain c = three_phase_chain();
  // Two clock buffers driving each other: the backward walk never reaches
  // a root, so the lint rules and domain inference both treat it as data.
  const NetId la = c.nl.add_net("loop_a");
  const NetId lb = c.nl.add_net("loop_b");
  c.nl.add_cell(CellKind::kClkBuf, "loop_buf_a", {lb}, la);
  c.nl.add_cell(CellKind::kClkBuf, "loop_buf_b", {la}, lb);
  c.nl.replace_input(c.b_p1, 1, la);
  EXPECT_EQ(trace_clock(c.nl, la).kind, ClockTraceKind::kData);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kClockReachability), 1) << report.to_text();
  const analysis::DomainTable table = analysis::infer_domains(c.nl);
  const analysis::DomainLabel* label = table.label_of(c.b_p1);
  ASSERT_NE(label, nullptr);
  EXPECT_FALSE(label->clocked);
}

TEST(CheckRules, DetClockOnBufferLoopTerminates) {
  // A dual-edge FF clocked from a two-buffer loop: the DET rule's walk back
  // to a divider must stop at the net count instead of circling forever,
  // and the clock does not come from a divide-by-two.
  Chain c = three_phase_chain();
  const NetId la = c.nl.add_net("loop_a");
  const NetId lb = c.nl.add_net("loop_b");
  c.nl.add_cell(CellKind::kClkBuf, "loop_buf_a", {lb}, la);
  c.nl.add_cell(CellKind::kClkBuf, "loop_buf_b", {la}, lb);
  const NetId q = c.nl.add_net("det_q");
  c.nl.add_cell(CellKind::kDffDet, "det", {c.din_net, la}, q);
  c.nl.add_output("det_out", q);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kDetClocking), 1) << report.to_text();
  EXPECT_GE(report.count(RuleId::kClockReachability), 1);
}

TEST(CheckRules, DeepClockBufferChainIsCleanAndClocked) {
  // A 200,000-stage clock-buffer chain from external Verilog: the clock
  // walk is iterative and bounded only by the net count, so checks,
  // analyses and domain inference neither overflow the stack nor give up
  // partway, and all agree the register is clocked by clk.
  constexpr int kStages = 200'000;
  std::string verilog =
      "module deep (clk, d, q);\n"
      "  // tp-clock clk clk 0 500 1000\n"
      "  input clk;\n  input d;\n  output q;\n";
  for (int i = 0; i < kStages; ++i) {
    const std::string in = i == 0 ? "clk" : "c" + std::to_string(i - 1);
    verilog += "  TP_CLKBUF b" + std::to_string(i) + " (.A(" + in +
               "), .Y(c" + std::to_string(i) + "));\n";
  }
  verilog += "  TP_DFF r (.D(d), .CK(c" + std::to_string(kStages - 1) +
             "), .Q(rq));\n  assign q = rq;\nendmodule\n";
  const Netlist nl = read_verilog_string(verilog);

  const CheckReport checks = run_checks(nl);
  EXPECT_TRUE(checks.clean()) << checks.to_text();
  const CheckReport analyses = analysis::run_analysis(nl);
  EXPECT_TRUE(analyses.clean()) << analyses.to_text();
  const analysis::DomainTable table = analysis::infer_domains(nl);
  ASSERT_EQ(table.labels.size(), 1u);
  EXPECT_TRUE(table.labels[0].clocked);
  EXPECT_EQ(nl.net(table.labels[0].clock_root).name, "clk");
}

TEST(CheckRules, ConstantClockPin) {
  Chain c = three_phase_chain();
  const NetId one = c.nl.add_net("tie1");
  c.nl.add_cell(CellKind::kConst1, "const1", {}, one);
  c.nl.replace_input(c.d_p2, 1, one);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kConstantClock), 1) << report.to_text();
  EXPECT_EQ(report.count(RuleId::kClockReachability), 0);
}

TEST(CheckRules, SamePhaseAdjacentLatchesRace) {
  Chain c = three_phase_chain();
  // Re-phase c_p3 onto p1: b_p1 -> inv1 -> c now has both latches
  // transparent in [0, 1000).
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kTransparencyRace), 1) << report.to_text();
  EXPECT_EQ(report.errors, 1);
}

TEST(CheckRules, DroppedP2LatchBreaksPhaseOrder) {
  Chain c = three_phase_chain();
  // Bypass and delete d_p2: c_p3 then feeds e_p1 directly.
  const NetId qd = c.nl.cell(c.d_p2).out;
  const NetId qc = c.nl.cell(c.c_p3).out;
  c.nl.transfer_fanouts(qd, qc);
  c.nl.remove_cell(c.d_p2);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kPhaseOrder), 1) << report.to_text();
  // p3's window [2000,3000) and p1's [0,1000) are disjoint, so this is
  // purely the C1 structural audit, not a C2 race.
  EXPECT_EQ(report.count(RuleId::kTransparencyRace), 0);
}

TEST(CheckRules, DataInputDrivingP1LatchBreaksPhaseOrder) {
  Chain c = three_phase_chain();
  // Bypass the p2 interface latch: din then drives b_p1 directly.
  c.nl.transfer_fanouts(c.nl.cell(c.a_p2).out, c.din_net);
  c.nl.remove_cell(c.a_p2);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kPhaseOrder), 1) << report.to_text();
}

TEST(CheckRules, LatchCombFeedbackIsSelfLoop) {
  Chain c = three_phase_chain();
  const NetId qa = c.nl.cell(c.a_p2).out;
  const NetId qb = c.nl.cell(c.b_p1).out;
  const CellId fb = c.nl.add_gate(CellKind::kAnd2, "fb", {qa, qb});
  c.nl.replace_input(c.b_p1, 0, c.nl.cell(fb).out);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kLatchSelfLoop), 1) << report.to_text();
  EXPECT_EQ(report.count(RuleId::kCombCycle), 0);
}

TEST(CheckRules, CombinationalCycleDetected) {
  Chain c = three_phase_chain();
  const NetId x = c.nl.add_net("x");
  const NetId y = c.nl.add_net("y");
  c.nl.add_cell(CellKind::kInv, "cyc1", {x}, y);
  c.nl.add_cell(CellKind::kInv, "cyc2", {y}, x);
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kCombCycle), 1) << report.to_text();
  EXPECT_FALSE(report.clean());
}

TEST(CheckRules, DeadDriverLeavesFloatingNet) {
  Chain c = three_phase_chain();
  const NetId qb = c.nl.cell(c.b_p1).out;
  const NetId qinv = c.nl.cell(c.inv1).out;
  c.nl.remove_cell(c.inv1);
  // c_p3's data pin now hangs; reconnecting b_p1's output elsewhere is the
  // fix the hint suggests, so only the net itself is reported.
  const CheckReport report = run_checks(c.nl);
  EXPECT_EQ(report.count(RuleId::kFloatingNet), 1) << report.to_text();
  (void)qb;
  (void)qinv;
}

// Multiply-driven nets cannot be constructed through the Netlist API
// (add_cell throws, see Netlist.DoubleDriverThrows) — the rule is a
// defensive sweep for corrupted imports, covered by the registry test.

TEST(CheckRules, MixedPhaseIcgFanout) {
  Netlist nl("mixed");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const NetId en = nl.cell(nl.add_input("en")).out;
  const NetId d = nl.cell(nl.add_input("d")).out;
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "icg", {en, nl.cell(p1).out}, gclk);
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "la_p1", {d, gclk}, qa, Phase::kP1);
  const NetId qb = nl.add_net("qb");
  // The conversion should have given this latch its own p2 ICG.
  nl.add_cell(CellKind::kLatchH, "lb_p2", {d, gclk}, qb, Phase::kP2);
  nl.add_output("oa", qa);
  nl.add_output("ob", qb);
  const CheckReport report = run_checks(nl);
  EXPECT_EQ(report.count(RuleId::kMixedPhaseIcg), 1) << report.to_text();
}

// Builds `sinks` p2 latches behind one ICG. When `data_driven`, the enable
// is derived from the first gated latch's own output (the DDCG shape of
// Sec. IV-D); otherwise it is a pure primary-input common enable.
Netlist ddcg_group(int sinks, bool data_driven) {
  Netlist nl("ddcg");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const NetId en = nl.cell(nl.add_input("en")).out;
  const NetId d = nl.cell(nl.add_input("d")).out;
  const NetId gclk = nl.add_net("gclk");
  NetId q0;
  for (int i = 0; i < sinks; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kLatchH, "l" + std::to_string(i), {d, gclk}, q,
                Phase::kP2);
    if (i == 0) q0 = q;
  }
  NetId enable = en;
  if (data_driven) {
    enable = nl.cell(nl.add_gate(CellKind::kXor2, "enx", {en, q0})).out;
  }
  nl.add_cell(CellKind::kIcg, "cg", {enable, nl.cell(p2).out}, gclk);
  nl.add_output("o", q0);
  return nl;
}

TEST(CheckRules, DdcgFanoutCapOnlyBindsDataDrivenGroups) {
  // 33 data-driven sinks: one over the paper's cap.
  const CheckReport over = run_checks(ddcg_group(33, true));
  EXPECT_EQ(over.count(RuleId::kDdcgFanout), 1) << over.to_text();

  // At the cap, clean.
  const CheckReport at_cap = run_checks(ddcg_group(32, true));
  EXPECT_EQ(at_cap.count(RuleId::kDdcgFanout), 0) << at_cap.to_text();

  // A wide *common-enable* group is legal at any width.
  const CheckReport common = run_checks(ddcg_group(33, false));
  EXPECT_EQ(common.count(RuleId::kDdcgFanout), 0) << common.to_text();

  // The flow-configurable cap waives the width instead.
  CheckOptions wide;
  wide.ddcg_max_fanout = 33;
  const CheckReport raised = run_checks(ddcg_group(33, true), wide);
  EXPECT_EQ(raised.count(RuleId::kDdcgFanout), 0) << raised.to_text();
}

Netlist m1_netlist(Phase borrow_phase) {
  Netlist nl("m1");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const NetId en = nl.cell(nl.add_input("en")).out;
  const NetId d = nl.cell(nl.add_input("d")).out;
  const NetId pb = borrow_phase == Phase::kP1   ? nl.cell(p1).out
                   : borrow_phase == Phase::kP2 ? nl.cell(p2).out
                   : borrow_phase == Phase::kP3 ? nl.cell(p3).out
                                                : en;  // kNone: data net
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcgM1, "m1", {en, nl.cell(p2).out, pb}, gclk);
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kLatchH, "l_p2", {d, gclk}, q, Phase::kP2);
  nl.add_output("o", q);
  return nl;
}

TEST(CheckRules, M1BorrowWindowMustBeDisjoint) {
  // Paper shape: a p2 gate borrowing from p3 — disjoint windows, clean.
  EXPECT_EQ(run_checks(m1_netlist(Phase::kP3)).count(RuleId::kM1BorrowWindow),
            0);
  // Borrowing from the gated phase itself overlaps.
  EXPECT_EQ(run_checks(m1_netlist(Phase::kP2)).count(RuleId::kM1BorrowWindow),
            1);
  // A borrow pin on data logic never proves a window at all.
  EXPECT_EQ(run_checks(m1_netlist(Phase::kNone)).count(RuleId::kM1BorrowWindow),
            1);
}

Netlist m2_netlist(Phase enable_source_phase) {
  Netlist nl("m2");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const NetId d = nl.cell(nl.add_input("d")).out;
  const NetId root = enable_source_phase == Phase::kP2 ? nl.cell(p2).out
                                                       : nl.cell(p1).out;
  const NetId qs = nl.add_net("qs");
  nl.add_cell(CellKind::kLatchH, "src", {d, root}, qs, enable_source_phase);
  const NetId en = nl.cell(nl.add_gate(CellKind::kBuf, "enb", {qs})).out;
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcgNoLatch, "m2", {en, nl.cell(p2).out}, gclk);
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kLatchH, "l_p2", {d, gclk}, q, Phase::kP2);
  nl.add_output("o", q);
  return nl;
}

TEST(CheckRules, M2EnableMustComeFromAnotherPhase) {
  // Enable latched by p1, gating p2: the M2 removal is hazard-free.
  EXPECT_EQ(run_checks(m2_netlist(Phase::kP1)).count(RuleId::kM2EnablePhase),
            0);
  // Enable latched by the gated phase itself can glitch mid-pulse.
  EXPECT_EQ(run_checks(m2_netlist(Phase::kP2)).count(RuleId::kM2EnablePhase),
            1);
}

TEST(CheckRules, OverlongStageIsC3Warning) {
  Chain c = three_phase_chain();
  for (PhaseWaveform& wave : c.nl.clocks().phases) {
    if (wave.phase == Phase::kP1) wave.fall_ps = 1800;
    if (wave.phase == Phase::kP2) wave.rise_ps = 1800;
  }
  const CheckReport report = run_checks(c.nl);
  // 1800 > Tc/2 = 1500: legal skew, but worth a warning — and warnings
  // still fail clean().
  EXPECT_EQ(report.count(RuleId::kScheduleSanity), 1) << report.to_text();
  EXPECT_EQ(report.warnings, 1);
  EXPECT_EQ(report.errors, 0);
  EXPECT_FALSE(report.clean());
}

TEST(CheckRules, OutOfOrderClosingEdgesAreAnError) {
  Chain c = three_phase_chain();
  for (PhaseWaveform& wave : c.nl.clocks().phases) {
    if (wave.phase == Phase::kP3) wave.fall_ps = 2900;  // e3 != Tc
  }
  const CheckReport report = run_checks(c.nl);
  EXPECT_GE(report.count(RuleId::kScheduleSanity), 1) << report.to_text();
  EXPECT_GE(report.errors, 1);
}

TEST(CheckRules, DuplicatePhaseWaveformIsAnError) {
  Chain c = three_phase_chain();
  PhaseWaveform dup = *c.nl.clocks().find(Phase::kP1);
  c.nl.clocks().phases.push_back(dup);
  const CheckReport report = run_checks(c.nl);
  EXPECT_GE(report.count(RuleId::kScheduleSanity), 1) << report.to_text();
  EXPECT_GE(report.errors, 1);
}

TEST(CheckRules, DisabledRuleEmitsNothing) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  CheckOptions options;
  options.disabled.push_back(RuleId::kTransparencyRace);
  const CheckReport report = run_checks(c.nl, options);
  EXPECT_EQ(report.count(RuleId::kTransparencyRace), 0) << report.to_text();
  EXPECT_TRUE(report.clean());
}

// --- window primitives ------------------------------------------------------

TEST(CheckWindows, WindowSetAddClampsAtCapacityAndDropsEmpties) {
  WindowSet w;
  w.add(100, 50);  // inverted: ignored
  w.add(100, 100);  // empty: ignored
  EXPECT_TRUE(w.empty());
  w.add(0, 1000);
  w.add(2000, 3000);
  ASSERT_EQ(w.n, 2);
  // A third span must be dropped, not written past the array (the original
  // clamp checked `n > size()` and let span[2] corrupt the stack).
  w.add(1200, 1800);
  EXPECT_EQ(w.n, 2);
  EXPECT_EQ(w.span[0][0], 0);
  EXPECT_EQ(w.span[0][1], 1000);
  EXPECT_EQ(w.span[1][0], 2000);
  EXPECT_EQ(w.span[1][1], 3000);

  WindowSet other;
  other.add(1200, 1800);
  EXPECT_FALSE(windows_overlap(w, other));
  other.add(900, 1100);
  EXPECT_TRUE(windows_overlap(w, other));
}

// --- waivers ----------------------------------------------------------------

TEST(CheckWaivers, GlobMatch) {
  EXPECT_TRUE(glob_match("abc", "abc"));
  EXPECT_FALSE(glob_match("abc", "abd"));
  EXPECT_TRUE(glob_match("a*c", "abbbc"));
  EXPECT_TRUE(glob_match("a*c", "ac"));
  EXPECT_TRUE(glob_match("a?c", "abc"));
  EXPECT_FALSE(glob_match("a?c", "ac"));
  EXPECT_TRUE(glob_match("*", ""));
  EXPECT_TRUE(glob_match("*_p2", "rp2_3_0_p2"));
  EXPECT_FALSE(glob_match("*_p2", "rp2_3_0_p1"));
}

TEST(CheckWaivers, WaivedFindingKeepsReportClean) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);

  CheckOptions options;
  Waiver waiver;
  waiver.rule = RuleId::kTransparencyRace;
  waiver.target = "b_p1";
  options.waivers.add(waiver);

  const CheckReport report = run_checks(c.nl, options);
  EXPECT_TRUE(report.clean()) << report.to_text();
  EXPECT_EQ(report.waived, 1);
  EXPECT_EQ(report.count(RuleId::kTransparencyRace), 0);
  // The finding stays visible, marked waived.
  ASSERT_EQ(report.diags.size(), 1u);
  EXPECT_TRUE(report.diags[0].waived);
}

TEST(CheckWaivers, WildcardRuleWaivesEverything) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  CheckOptions options;
  Waiver waiver;
  waiver.any_rule = true;
  waiver.target = "*";
  options.waivers.add(waiver);
  const CheckReport report = run_checks(c.nl, options);
  EXPECT_TRUE(report.clean());
  EXPECT_EQ(report.waived, 1);
}

TEST(CheckWaivers, ParseAcceptsCommentsAndRejectsUnknownRules) {
  std::istringstream good(
      "# reviewed 2026-08\n"
      "transparency-race fifo_head_*  known CDC pair\n"
      "\n"
      "* debug_tap?\n");
  const WaiverSet set = WaiverSet::parse(good);
  EXPECT_EQ(set.size(), 2u);
  EXPECT_FALSE(set.waivers()[0].any_rule);
  EXPECT_EQ(set.waivers()[0].rule, RuleId::kTransparencyRace);
  EXPECT_TRUE(set.waivers()[1].any_rule);

  std::istringstream bad("transparency-rase typo_*\n");
  EXPECT_THROW(WaiverSet::parse(bad), Error);
}

TEST(CheckWaivers, WaiverFileRoundTripWaivesEveryFinding) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  const NetId undriven = c.nl.add_net("no_driver");
  c.nl.replace_input(c.a_p2, 1, undriven);

  const CheckReport before = run_checks(c.nl);
  ASSERT_FALSE(before.clean());

  // Baseline written to disk and re-read through the file entry point: the
  // path lint_cli --waive takes.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "check_waiver_file";
  std::filesystem::create_directories(dir);
  const std::filesystem::path file = dir / "baseline.waive";
  {
    std::ofstream out(file);
    out << before.to_baseline();
  }
  CheckOptions options;
  options.waivers = WaiverSet::parse_file(file.string());
  const CheckReport after = run_checks(c.nl, options);
  EXPECT_TRUE(after.clean()) << after.to_text();
  EXPECT_EQ(after.waived, before.errors + before.warnings);

  EXPECT_THROW(WaiverSet::parse_file((dir / "missing.waive").string()),
               Error);
}

// --- report formats ---------------------------------------------------------

TEST(CheckReportFormats, TextAndJsonNameTheRule) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  const CheckReport report = run_checks(c.nl);
  const std::string text = report.to_text();
  EXPECT_NE(text.find("transparency-race"), std::string::npos) << text;
  EXPECT_NE(text.find("b_p1"), std::string::npos) << text;
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"design\":\"chain\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"transparency-race\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"clean\":false"), std::string::npos) << json;
}

TEST(CheckReportFormats, JsonEmissionParsesAndEscapesSpecials) {
  // Hand-built diagnostics with every character class the writer must
  // escape; finalize_report() is the same path run_checks() takes.
  Netlist nl("json\"design");
  Diagnostic diag;
  diag.rule = RuleId::kFloatingNet;
  diag.severity = Severity::kWarning;
  diag.message = "quote \" backslash \\ newline \n tab \t bell \x07 done";
  diag.cells = {"cell<a>", "cell\"b\""};
  diag.nets = {"n\\1"};
  diag.hint = "hint with \"quotes\"";
  const CheckReport report = finalize_report(nl, {diag}, {});

  util::Json parsed;
  std::string error;
  ASSERT_TRUE(util::Json::parse(report.to_json(), &parsed, &error)) << error;
  EXPECT_EQ(parsed.get_string("design", ""), "json\"design");
  EXPECT_EQ(parsed.get_u64("warnings", 0), 1u);
  EXPECT_FALSE(parsed.get_bool("clean", true));
  const util::Json* counts = parsed.find("counts");
  ASSERT_NE(counts, nullptr);
  EXPECT_EQ(counts->get_u64("floating-net", 0), 1u);
  const util::Json* diags = parsed.find("diagnostics");
  ASSERT_NE(diags, nullptr);
  ASSERT_EQ(diags->items().size(), 1u);
  const util::Json& d = diags->items()[0];
  // The escaped string round-trips byte-identically through the parser.
  EXPECT_EQ(d.get_string("message", ""), diag.message);
  EXPECT_EQ(d.get_string("hint", ""), diag.hint);
  EXPECT_EQ(d.get_string("rule", ""), "floating-net");
  const util::Json* cells = d.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 2u);
  EXPECT_EQ(cells->items()[1].as_string(), "cell\"b\"");
}

TEST(CheckReportFormats, BaselineRoundTripWaivesEveryFinding) {
  Chain c = three_phase_chain();
  c.nl.set_phase(c.c_p3, Phase::kP1);
  c.nl.replace_input(c.c_p3, 1, c.p1n);
  const NetId undriven = c.nl.add_net("no_driver");
  c.nl.replace_input(c.a_p2, 1, undriven);

  const CheckReport before = run_checks(c.nl);
  ASSERT_GE(before.errors, 2) << before.to_text();

  std::istringstream baseline(before.to_baseline());
  CheckOptions options;
  options.waivers = WaiverSet::parse(baseline);
  const CheckReport after = run_checks(c.nl, options);
  EXPECT_TRUE(after.clean()) << after.to_text();
  EXPECT_EQ(after.waived, before.errors + before.warnings);
}

// --- flow integration -------------------------------------------------------

TEST(CheckFlow, AllStylesOfABenchmarkStayClean) {
  const circuits::Benchmark bm = circuits::make_benchmark("s1196");
  const Stimulus stim =
      circuits::make_stimulus(bm, circuits::Workload::kPaperDefault, 32);
  for (const flow::DesignStyle style :
       {flow::DesignStyle::kFlipFlop, flow::DesignStyle::kMasterSlave,
        flow::DesignStyle::kThreePhase}) {
    flow::FlowOptions options;
    options.check_rules = true;
    const flow::FlowResult r = flow::run_flow(bm, style, stim, options);
    EXPECT_FALSE(r.lint.stages.empty());
    EXPECT_TRUE(r.lint.all_clean())
        << flow::style_name(style) << ": "
        << r.lint.first_violation()->report.to_text();
    for (const flow::StageLint& stage : r.lint.stages) {
      EXPECT_TRUE(stage.report.clean()) << stage.stage;
    }
  }
}

// Injects a missed per-phase ICG duplication "inside" the retime stage of a
// real benchmark flow: a latch of another phase is rewired onto an existing
// ICG's gated clock. Every later checkpoint also sees the violation, but
// the report must blame retime itself.
TEST(CheckFlow, InjectedMixedPhaseIcgBlamesItsStage) {
  const circuits::Benchmark bm = circuits::make_benchmark("DES3");
  const Stimulus stim =
      circuits::make_stimulus(bm, circuits::Workload::kPaperDefault, 32);
  flow::FlowOptions options;
  options.check_rules = true;
  options.stage_hook = [](Netlist& nl, std::string_view stage) {
    if (stage != "retime") return;
    for (const CellId icg_id : nl.live_cells()) {
      const Cell& icg = nl.cell(icg_id);
      if (!is_icg(icg.kind)) continue;
      // Which phase does this ICG gate?
      Phase gated = Phase::kNone;
      for (const PinRef& ref : nl.net(icg.out).fanouts) {
        const Cell& sink = nl.cell(ref.cell);
        if (sink.alive && is_register(sink.kind) &&
            static_cast<int>(ref.pin) == clock_pin(sink.kind) &&
            (sink.phase == Phase::kP1 || sink.phase == Phase::kP3)) {
          gated = sink.phase;
          break;
        }
      }
      if (gated == Phase::kNone) continue;
      // Rewire a latch of the opposite outer phase onto the gated clock
      // (avoiding p2 victims keeps the later p2-gating stages out of play).
      const Phase victim_phase =
          gated == Phase::kP1 ? Phase::kP3 : Phase::kP1;
      const NetId gclk = icg.out;
      for (const CellId vid : nl.registers()) {
        const Cell& victim = nl.cell(vid);
        if (victim.kind != CellKind::kLatchH ||
            victim.phase != victim_phase || victim.ins[1] == gclk) {
          continue;
        }
        nl.replace_input(vid, 1, gclk);
        return;
      }
    }
    FAIL() << "no ICG with a p1/p3 sink to corrupt at the retime stage";
  };

  const flow::FlowResult r =
      flow::run_flow(bm, flow::DesignStyle::kThreePhase, stim, options);
  const flow::StageLint* blamed = r.lint.first_violation();
  ASSERT_NE(blamed, nullptr);
  EXPECT_EQ(blamed->stage, "retime");
  EXPECT_GE(blamed->report.count(RuleId::kMixedPhaseIcg), 1)
      << blamed->report.to_text();
  for (const flow::StageLint& stage : r.lint.stages) {
    if (&stage == blamed) break;
    EXPECT_TRUE(stage.report.clean()) << stage.stage;
  }
}

// --- per-backend domain-rule seeds (A4 cdc-unsync, A6 rdc-crossing) ---------

/// s1423 converted by `backend` outside the flow (the backend_test
/// pattern): clock-gating front-end, then the backend's own pipeline.
Netlist domain_seed_netlist(const flow::ConversionBackend& backend) {
  const circuits::Benchmark bm = circuits::make_benchmark("s1423");
  Netlist netlist = bm.netlist;
  infer_clock_gating(netlist);
  const flow::FlowOptions options = flow::FlowOptions::fast();
  flow::FlowResult scratch;
  flow::FlowContext ctx{
      .netlist = netlist,
      .options = options,
      .library = CellLibrary::nominal_28nm(),
      .result = scratch,
      .checkpoint = [](std::string_view) {},
      .activity = [] { return ActivityStats{}; },
  };
  backend.convert(ctx);
  return netlist;
}

class BackendDomainSeeds
    : public ::testing::TestWithParam<const flow::ConversionBackend*> {};

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendDomainSeeds,
    ::testing::ValuesIn(flow::backend_registry()),
    [](const ::testing::TestParamInfo<const flow::ConversionBackend*>&
           info) { return std::string(info.param->token()); });

TEST_P(BackendDomainSeeds, RuleSetAdvertisesDomainRules) {
  const std::vector<RuleId> rules = GetParam()->rule_set();
  for (const RuleId rule : {RuleId::kCdcUnsync, RuleId::kCdcReconverge,
                            RuleId::kRdcCrossing}) {
    EXPECT_NE(std::find(rules.begin(), rules.end(), rule), rules.end())
        << rule_name(rule);
  }
}

TEST_P(BackendDomainSeeds, SeededCdcIsDetectedAndWaivable) {
  const flow::ConversionBackend& backend = *GetParam();
  Netlist netlist = domain_seed_netlist(backend);
  const CheckReport before = analysis::run_analysis(netlist);
  const RuleId rule = backend.seed_cdc_violation(netlist);
  EXPECT_EQ(rule, RuleId::kCdcUnsync);
  ASSERT_EQ(before.count(rule), 0) << before.to_text();
  const CheckReport after = analysis::run_analysis(netlist);
  EXPECT_GE(after.count(rule), 1) << after.to_text();

  // Waiver round-trip: the report's own baseline must silence it.
  std::istringstream baseline(after.to_baseline());
  analysis::AnalysisOptions waived;
  waived.check.waivers = WaiverSet::parse(baseline);
  const CheckReport silenced = analysis::run_analysis(netlist, waived);
  EXPECT_EQ(silenced.count(rule), 0) << silenced.to_text();
  EXPECT_TRUE(silenced.clean()) << silenced.to_text();
  EXPECT_GE(silenced.waived, after.count(rule));
}

TEST_P(BackendDomainSeeds, SeededRdcIsDetectedAndWaivable) {
  const flow::ConversionBackend& backend = *GetParam();
  Netlist netlist = domain_seed_netlist(backend);
  const CheckReport before = analysis::run_analysis(netlist);
  const RuleId rule = backend.seed_rdc_violation(netlist);
  EXPECT_EQ(rule, RuleId::kRdcCrossing);
  ASSERT_EQ(before.count(rule), 0) << before.to_text();
  const CheckReport after = analysis::run_analysis(netlist);
  EXPECT_GE(after.count(rule), 1) << after.to_text();

  std::istringstream baseline(after.to_baseline());
  analysis::AnalysisOptions waived;
  waived.check.waivers = WaiverSet::parse(baseline);
  const CheckReport silenced = analysis::run_analysis(netlist, waived);
  EXPECT_EQ(silenced.count(rule), 0) << silenced.to_text();
  EXPECT_TRUE(silenced.clean()) << silenced.to_text();
  EXPECT_GE(silenced.waived, after.count(rule));
}

// Plants both domain violations "inside" the hold-repair stage of a real
// flow and requires the analysis checkpoints to blame exactly that stage.
// The A6 plant reuses two existing primary inputs as reset roots so the
// final validation simulation keeps its stimulus shape.
TEST_P(BackendDomainSeeds, FlowCheckpointBlamesSeededStage) {
  const flow::ConversionBackend& backend = *GetParam();
  const circuits::Benchmark bm = circuits::make_benchmark("s1423");
  const Stimulus stim =
      circuits::make_stimulus(bm, circuits::Workload::kPaperDefault, 16);
  flow::FlowOptions options;
  options.check_rules = true;
  options.check_analysis = true;
  options.stage_hook = [&backend](Netlist& nl, std::string_view stage) {
    if (stage != "hold-repair") return;
    ASSERT_EQ(backend.seed_cdc_violation(nl), RuleId::kCdcUnsync);
    // A6 via existing PIs: put the two ends of a register-graph edge in
    // reset domains whose release order is inverted.
    const RegisterGraph graph = build_register_graph(nl);
    const std::vector<CellId> data_pis = nl.data_inputs();
    ASSERT_GE(data_pis.size(), 2u);
    for (std::size_t u = 0; u < graph.regs.size(); ++u) {
      for (const int v : graph.fanout[u]) {
        if (static_cast<std::size_t>(v) == u) continue;
        nl.declare_reset_root(data_pis[0], true, /*release_order=*/1);
        nl.declare_reset_root(data_pis[1], true, /*release_order=*/0);
        nl.set_reset(graph.regs[u], nl.cell(data_pis[0]).out);
        nl.set_reset(graph.regs[static_cast<std::size_t>(v)],
                     nl.cell(data_pis[1]).out);
        return;
      }
    }
    FAIL() << "no register-to-register edge to put in a reset domain";
  };

  const flow::FlowResult r = flow::run_flow(bm, backend.id(), stim, options);
  const flow::StageLint* blamed = r.lint.first_violation();
  ASSERT_NE(blamed, nullptr);
  EXPECT_EQ(blamed->stage, "hold-repair");
  EXPECT_GE(blamed->report.count(RuleId::kCdcUnsync), 1)
      << blamed->report.to_text();
  EXPECT_GE(blamed->report.count(RuleId::kRdcCrossing), 1)
      << blamed->report.to_text();
  for (const flow::StageLint& stage : r.lint.stages) {
    if (&stage == blamed) break;
    EXPECT_TRUE(stage.report.clean()) << stage.stage;
  }
}

}  // namespace
}  // namespace tp::check
