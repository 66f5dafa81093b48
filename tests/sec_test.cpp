#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "src/circuits/benchmark.hpp"
#include "src/circuits/workload.hpp"
#include "src/equiv/sec.hpp"
#include "src/flow/flow.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/det_ff.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/transform/pulsed_latch.hpp"

namespace tp::equiv {
namespace {

using circuits::Benchmark;
using circuits::make_benchmark;

/// Benchmarks above this cell count are skipped by default: each takes
/// minutes (docs/equivalence.md lists measured times), and the suite skips
/// large circuits the same way circuits_test skips AES simulation. Set
/// TP_SEC_FULL=1 to run the complete matrix.
constexpr std::size_t kMaxCellsInSuite = 3000;

bool skip_large(const Netlist& netlist) {
  return netlist.num_cells() > kMaxCellsInSuite &&
         std::getenv("TP_SEC_FULL") == nullptr;
}

/// Flips the first p1/p3 latch to the opposite phase, re-wiring its gate pin
/// to the new phase's clock root. Breaks behavior on most circuits (the latch
/// now opens in the wrong third of the cycle) — but NOT always: callers must
/// only assert falsification on circuits where the reference simulator
/// confirms a stream divergence (e.g. s1196/s1488/s9234). p2 latches are
/// excluded because re-phasing a transparency window that only bridges p1 to
/// p3 preserves behavior by construction.
bool flip_first_data_latch(Netlist& netlist) {
  for (const CellId id : netlist.live_cells()) {
    const Cell& cell = netlist.cell(id);
    if (is_latch(cell.kind) &&
        (cell.phase == Phase::kP1 || cell.phase == Phase::kP3)) {
      netlist.set_phase(id, cell.phase == Phase::kP1 ? Phase::kP3
                                                     : Phase::kP1);
      netlist.replace_input(id, 1,
                            netlist.clocks().root(netlist.cell(id).phase));
      return true;
    }
  }
  return false;
}

/// Inserts an inverter in front of the first primary output: the cheapest
/// mutation that is guaranteed observable on every circuit.
void invert_first_output(Netlist& netlist) {
  ASSERT_FALSE(netlist.outputs().empty());
  const CellId po = netlist.outputs().front();
  const NetId src = netlist.cell(po).ins.front();
  const CellId inv =
      netlist.add_gate(CellKind::kInv, "sec_test_fault", {src});
  netlist.replace_input(po, 0, netlist.cell(inv).out);
}

/// Builds the "full 3-phase" conversion used throughout: clock gating
/// inference, phase assignment + latch insertion, p2 common-enable gating,
/// and M2.
Netlist three_phase_full(const Netlist& ff_netlist) {
  Netlist nl = ff_netlist;
  infer_clock_gating(nl);
  ThreePhaseResult p3 = to_three_phase(nl);
  gate_p2_latches(p3.netlist);
  apply_m2(p3.netlist);
  return std::move(p3.netlist);
}

// --- positive proofs over the benchmark registry ---------------------------

class SecBenchmarkTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SecBenchmarkTest, ProvesAllStylesAgainstFlipFlopGolden) {
  const Benchmark bm = make_benchmark(GetParam());
  if (skip_large(bm.netlist)) GTEST_SKIP();
  const Netlist& golden = bm.netlist;

  Netlist ff = bm.netlist;
  infer_clock_gating(ff);

  const SecResult cg = check_sequential_equivalence(golden, ff);
  EXPECT_TRUE(cg) << "post-CG: " << cg.detail;

  const SecResult ms =
      check_sequential_equivalence(golden, to_master_slave(ff));
  EXPECT_TRUE(ms) << "master-slave: " << ms.detail;

  const SecResult p3 =
      check_sequential_equivalence(golden, three_phase_full(bm.netlist));
  EXPECT_TRUE(p3) << "3-phase: " << p3.detail;

  const SecResult pl =
      check_sequential_equivalence(golden, to_pulsed_latch(ff).netlist);
  EXPECT_TRUE(pl) << "pulsed-latch: " << pl.detail;

  const SecResult det =
      check_sequential_equivalence(golden, to_det_ff(ff).netlist);
  EXPECT_TRUE(det) << "DET-FF: " << det.detail;
}

INSTANTIATE_TEST_SUITE_P(All, SecBenchmarkTest,
                         ::testing::ValuesIn(circuits::benchmark_names()));

// --- falsification ---------------------------------------------------------

class SecMutationTest : public ::testing::TestWithParam<std::string> {};

TEST_P(SecMutationTest, LatchPhaseFlipIsDetectedWithConfirmedCex) {
  // Only circuits where the reference simulator confirms the flip breaks the
  // output stream (verified over 5000 random cycles; on s1423/s5378 the same
  // flip happens to be behavior-preserving and SEC correctly proves it).
  const Benchmark bm = make_benchmark(GetParam());
  Netlist mutant = three_phase_full(bm.netlist);
  ASSERT_TRUE(flip_first_data_latch(mutant));

  const SecResult r = check_sequential_equivalence(bm.netlist, mutant);
  ASSERT_EQ(r.status, SecStatus::kFalsified) << r.detail;
  EXPECT_TRUE(r.cex.confirmed);
  EXPECT_GE(r.cex.cycle, 0);
  EXPECT_FALSE(r.cex.output_name.empty());
  EXPECT_NE(r.cex.expected, r.cex.got);
  // Minimization truncates to the first mismatching cycle.
  EXPECT_EQ(r.cex.cycle + 1,
            static_cast<std::ptrdiff_t>(r.cex.inputs.size()));

  // The counterexample must replay: an independent simulator run on the
  // reported stimulus reproduces the exact mismatch.
  Counterexample again;
  again.inputs = r.cex.inputs;
  EXPECT_TRUE(replay(bm.netlist, mutant, again));
  EXPECT_EQ(again.cycle, r.cex.cycle);
  EXPECT_EQ(again.output, r.cex.output);
}

INSTANTIATE_TEST_SUITE_P(GroundTruthBreaking, SecMutationTest,
                         ::testing::Values("s1196", "s1488", "s9234"));

TEST(SecMutation, BehaviorPreservingFlipStaysProven) {
  // On s1423 the first p1/p3 latch flip is stream-equivalent (5000-cycle
  // random simulation finds no divergence), so SEC must keep proving it —
  // guarding against a checker that flags any structural clock change.
  const Benchmark bm = make_benchmark("s1423");
  Netlist mutant = three_phase_full(bm.netlist);
  ASSERT_TRUE(flip_first_data_latch(mutant));
  const SecResult r = check_sequential_equivalence(bm.netlist, mutant);
  EXPECT_TRUE(r) << r.detail;
}

TEST(SecMutation, DroppedIcgGatingIsDetected) {
  // Removing an ICG (clock free-running) breaks a gated bank: the gated
  // style has no recirculation mux, so the bank samples its D cone on
  // cycles where the enable is low. Verified stream-breaking on DES3
  // (mismatch at cycle 3 of a 2000-cycle random stream).
  const Benchmark bm = make_benchmark("DES3");
  Netlist nl = bm.netlist;
  infer_clock_gating(nl);
  Netlist mutant = std::move(to_three_phase(nl).netlist);
  bool ungated = false;
  for (const CellId id : mutant.live_cells()) {
    const Cell& cell = mutant.cell(id);
    if (cell.kind == CellKind::kIcg || cell.kind == CellKind::kIcgM1) {
      mutant.morph_cell(id, CellKind::kClkBuf, {cell.ins[1]});
      ungated = true;
      break;
    }
  }
  ASSERT_TRUE(ungated);
  const SecResult r = check_sequential_equivalence(bm.netlist, mutant);
  ASSERT_EQ(r.status, SecStatus::kFalsified) << r.detail;
  EXPECT_TRUE(r.cex.confirmed);
  EXPECT_LE(r.cex.ones(), 4u) << "ddmin should leave only a few set bits";
}

TEST(SecMutation, InvertedOutputMinimizesToEmptyStimulus) {
  const Benchmark bm = make_benchmark("s1238");
  Netlist mutant = three_phase_full(bm.netlist);
  invert_first_output(mutant);
  const SecResult r = check_sequential_equivalence(bm.netlist, mutant);
  ASSERT_EQ(r.status, SecStatus::kFalsified) << r.detail;
  EXPECT_TRUE(r.cex.confirmed);
  // An always-wrong output mismatches under the all-zero stimulus, so ddmin
  // clears every input bit.
  EXPECT_EQ(r.cex.cycle, 0);
  EXPECT_EQ(r.cex.ones(), 0u);
  EXPECT_EQ(r.cex.output_name,
            bm.netlist.cell(bm.netlist.outputs().front()).name);
}

// --- robustness ------------------------------------------------------------

TEST(Sec, IdenticalNetlistsProve) {
  // Even self-equivalence runs the full pipeline (each side gets its own
  // state variables), but strash collapses the combinational cones so the
  // AIG stays barely larger than one copy of the design.
  const Benchmark bm = make_benchmark("s5378");
  const SecResult r = check_sequential_equivalence(bm.netlist, bm.netlist);
  EXPECT_TRUE(r) << r.detail;
  EXPECT_EQ(r.stats.golden_state_bits, r.stats.revised_state_bits);
}

TEST(Sec, MismatchedOutputCountIsUnknownNotCrash) {
  const Benchmark bm = make_benchmark("s1196");
  Netlist extra = bm.netlist;
  const NetId src = extra.cell(extra.outputs().front()).ins.front();
  extra.add_output("sec_test_extra", src);
  const SecResult r = check_sequential_equivalence(bm.netlist, extra);
  EXPECT_EQ(r.status, SecStatus::kUnknown);
  EXPECT_FALSE(r.detail.empty());
}

TEST(Sec, ClockBufferLoopIsUnknownNotHang) {
  // A latch gated by two clock buffers driving each other: the gate's
  // clock-alias walk is bounded, and the settle reports the loop as a
  // combinational cycle instead of a verdict.
  const Benchmark bm = make_benchmark("s1196");
  Netlist revised = three_phase_full(bm.netlist);
  const NetId la = revised.add_net("loop_a");
  const NetId lb = revised.add_net("loop_b");
  revised.add_cell(CellKind::kClkBuf, "loop_buf_a", {lb}, la);
  revised.add_cell(CellKind::kClkBuf, "loop_buf_b", {la}, lb);
  bool rewired = false;
  for (const CellId id : revised.live_cells()) {
    if (is_latch(revised.cell(id).kind)) {
      revised.replace_input(id, 1, la);
      rewired = true;
      break;
    }
  }
  ASSERT_TRUE(rewired);
  const SecResult r = check_sequential_equivalence(bm.netlist, revised);
  EXPECT_EQ(r.status, SecStatus::kUnknown);
  EXPECT_NE(r.detail.find("combinational cycle"), std::string::npos)
      << r.detail;
}

TEST(Sec, ExhaustedBudgetsReportUnknownWithReason) {
  const Benchmark bm = make_benchmark("s1196");
  SecOptions opt;
  opt.sim_frames = 1;
  opt.max_rounds = 0;
  opt.bmc_frames = 0;
  opt.sat_conflict_limit = 1;
  const SecResult r =
      check_sequential_equivalence(bm.netlist, three_phase_full(bm.netlist),
                                   opt);
  EXPECT_EQ(r.status, SecStatus::kUnknown) << r.detail;
  EXPECT_FALSE(r.detail.empty());
}

// --- flow checkpoints ------------------------------------------------------

flow::FlowOptions checked_options() {
  flow::FlowOptions options;
  options.check_equivalence = true;
  return options;
}

TEST(FlowCheckpoints, EveryStageProvesOnCleanConversion) {
  const Benchmark bm = make_benchmark("s1196");
  const Stimulus stim =
      circuits::make_stimulus(bm, circuits::Workload::kPaperDefault, 32, 3);
  const flow::FlowResult r = flow::run_flow(
      bm, flow::DesignStyle::kThreePhase, stim, checked_options());
  ASSERT_FALSE(r.equiv.stages.empty());
  EXPECT_TRUE(r.equiv.all_proven())
      << r.equiv.first_failure()->stage << ": "
      << r.equiv.first_failure()->result.detail;
  EXPECT_EQ(r.equiv.first_failure(), nullptr);
  EXPECT_GT(r.times.equiv_s, 0.0);
  // The 3-phase flow must at least pass the synthesis and conversion gates.
  EXPECT_EQ(r.equiv.stages.front().stage, "synthesis");
  bool has_convert = false;
  for (const flow::StageCheck& s : r.equiv.stages) {
    has_convert |= s.stage == "convert";
  }
  EXPECT_TRUE(has_convert);
}

TEST(FlowCheckpoints, FirstFailureBlamesTheFaultyStage) {
  const Benchmark bm = make_benchmark("s1196");
  const Stimulus stim =
      circuits::make_stimulus(bm, circuits::Workload::kPaperDefault, 32, 3);
  flow::FlowOptions options = checked_options();
  // Corrupt the netlist "inside" the m2 stage; every later checkpoint also
  // fails, but the report must pin the first divergence on m2 itself.
  options.stage_hook = [](Netlist& netlist, std::string_view stage) {
    if (stage == "m2") invert_first_output(netlist);
  };
  const flow::FlowResult r = flow::run_flow(
      bm, flow::DesignStyle::kThreePhase, stim, options);
  const flow::StageCheck* failed = r.equiv.first_failure();
  ASSERT_NE(failed, nullptr);
  EXPECT_EQ(failed->stage, "m2");
  EXPECT_EQ(failed->result.status, SecStatus::kFalsified);
  EXPECT_TRUE(failed->result.cex.confirmed);
  // Stages before the fault must all have proven.
  for (const flow::StageCheck& s : r.equiv.stages) {
    if (&s == failed) break;
    EXPECT_EQ(s.result.status, SecStatus::kProven) << s.stage;
  }
}

}  // namespace
}  // namespace tp::equiv
