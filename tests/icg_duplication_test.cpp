// Targeted tests for the gated-clock trace-back of Sec. IV-B: when a clock
// gating group's registers land on both p1 and p3, the ICG is duplicated
// and each copy is driven by its phase root; clock buffers in the chain are
// traversed transparently.
#include <gtest/gtest.h>

#include "src/sim/stimulus.hpp"
#include "src/transform/convert.hpp"

namespace tp {
namespace {

/// clk -> CLKBUF -> ICG(en) -> {ffa, ffb}, wired so that the ILP must put
/// ffa and ffb on different phases: ffa -> comb -> ffb gives one of them
/// p1-single and the other p3 (plus PI pressure to pin the choice).
Netlist split_gated_group() {
  Netlist nl("split");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(3000, nl.cell(clk).out);
  const CellId en = nl.add_input("en");
  const CellId d = nl.add_input("d");

  const CellId buf = nl.add_gate(CellKind::kClkBuf, "cb",
                                 {nl.cell(clk).out}, Phase::kClk);
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "cg", {nl.cell(en).out, nl.cell(buf).out},
              gclk, Phase::kClk);

  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kDff, "ffa", {nl.cell(d).out, gclk}, qa,
              Phase::kClk);
  const CellId mix = nl.add_gate(CellKind::kXor2, "mix",
                                 {qa, nl.cell(d).out});
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kDff, "ffb", {nl.cell(mix).out, gclk}, qb,
              Phase::kClk);
  nl.add_output("oa", qa);
  nl.add_output("ob", qb);
  return nl;
}

TEST(IcgDuplication, SplitsGroupsAcrossPhases) {
  const Netlist ff = split_gated_group();
  const ThreePhaseResult r = to_three_phase(ff);

  // The two registers must not share a phase (there is a comb edge
  // ffa -> ffb), and each keeps a gated clock on its own phase.
  std::vector<Phase> reg_phases;
  for (const CellId id : r.netlist.registers()) {
    if (r.netlist.cell(id).phase != Phase::kP2) {
      reg_phases.push_back(r.netlist.cell(id).phase);
    }
  }
  ASSERT_EQ(reg_phases.size(), 2u);
  EXPECT_NE(reg_phases[0], reg_phases[1]);

  // One ICG copy per used phase; the original (now unused) is swept.
  int icgs = 0;
  bool p1_copy = false, p3_copy = false;
  for (const CellId id : r.netlist.live_cells()) {
    const Cell& cell = r.netlist.cell(id);
    if (is_icg(cell.kind)) {
      ++icgs;
      p1_copy |= cell.phase == Phase::kP1;
      p3_copy |= cell.phase == Phase::kP3;
    }
  }
  EXPECT_EQ(icgs, 2);
  EXPECT_TRUE(p1_copy);
  EXPECT_TRUE(p3_copy);
  EXPECT_EQ(r.duplicated_icgs, 1);

  // And of course: still the same machine.
  Rng rng(17);
  const Stimulus stim = random_stimulus(2, 96, rng, 0.4);
  Simulator a(ff);
  Simulator b(r.netlist);
  EXPECT_TRUE(streams_equal(run_stream(a, stim, 8), run_stream(b, stim, 8)));
}

TEST(IcgDuplication, SinglePhaseGroupsAreNotDuplicated) {
  // Two independent gated registers (no comb edge): both can be p1 singles
  // sharing one duplicated ICG copy.
  Netlist nl("mono");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(3000, nl.cell(clk).out);
  const CellId en = nl.add_input("en");
  const CellId d = nl.add_input("d");
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "cg", {nl.cell(en).out, nl.cell(clk).out},
              gclk, Phase::kClk);
  for (int i = 0; i < 2; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i),
                {nl.cell(d).out, gclk}, q, Phase::kClk);
    nl.add_output("o" + std::to_string(i), q);
  }
  const ThreePhaseResult r = to_three_phase(nl);
  EXPECT_EQ(r.duplicated_icgs, 0);
  int icgs = 0;
  for (const CellId id : r.netlist.live_cells()) {
    icgs += is_icg(r.netlist.cell(id).kind);
  }
  EXPECT_EQ(icgs, 1);
}

TEST(IcgDuplication, EnableLogicIsShared) {
  // Both phase copies of a duplicated ICG read the same enable net — the
  // paper duplicates the gating cell, not the enable cone.
  const Netlist ff = split_gated_group();
  const ThreePhaseResult r = to_three_phase(ff);
  NetId enable;
  int users = 0;
  for (const CellId id : r.netlist.live_cells()) {
    const Cell& cell = r.netlist.cell(id);
    if (is_icg(cell.kind)) {
      if (!enable.valid()) enable = cell.ins[0];
      EXPECT_EQ(cell.ins[0], enable);
      ++users;
    }
  }
  EXPECT_EQ(users, 2);
}

}  // namespace
}  // namespace tp
