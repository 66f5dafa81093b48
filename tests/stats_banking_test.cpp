#include <gtest/gtest.h>

#include <sstream>

#include "src/netlist/stats.hpp"
#include "src/place/placer.hpp"
#include "src/power/banking.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

TEST(Stats, CountsMatchNetlist) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 20;
  spec.num_gates = 60;
  spec.enable_fraction = 0.5;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl, {.style = CgStyle::kGated, .min_icg_group = 1});
  const NetlistStats stats = compute_stats(nl);
  EXPECT_EQ(stats.registers, 20);
  EXPECT_EQ(stats.live_cells, static_cast<int>(nl.live_cells().size()));
  EXPECT_EQ(stats.count(CellKind::kDffEn), 0);
  EXPECT_GT(stats.count(CellKind::kIcg), 0);
  EXPECT_GT(stats.max_logic_depth, 0);
  EXPECT_GT(stats.avg_fanout, 0);
  EXPECT_GE(stats.max_fanout, 1);
  EXPECT_GT(stats.ff_graph_edges, 0);
}

TEST(Stats, PhaseMixAfterConversion) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 20;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  const ThreePhaseResult r = to_three_phase(ff);
  const NetlistStats stats = compute_stats(r.netlist);
  const int p1 =
      stats.registers_by_phase[static_cast<std::size_t>(Phase::kP1)];
  const int p2 =
      stats.registers_by_phase[static_cast<std::size_t>(Phase::kP2)];
  const int p3 =
      stats.registers_by_phase[static_cast<std::size_t>(Phase::kP3)];
  EXPECT_EQ(p1 + p2 + p3, stats.registers);
  EXPECT_EQ(p2, r.inserted_p2);
  const std::string text = format_stats(stats);
  EXPECT_NE(text.find("p2="), std::string::npos);
}

TEST(Stats, DotOutputsAreWellFormed) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 6;
  spec.num_gates = 12;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  std::ostringstream full, regs;
  write_dot(nl, full);
  write_register_graph_dot(nl, regs);
  for (const std::string& text : {full.str(), regs.str()}) {
    EXPECT_EQ(text.find("digraph"), 0u);
    EXPECT_EQ(text.back(), '\n');
    EXPECT_NE(text.find("}"), std::string::npos);
  }
  // One register node per register in the register-graph view.
  std::size_t boxes = 0, from = 0;
  while ((from = regs.str().find("shape=box", from)) != std::string::npos) {
    ++boxes;
    from += 9;
  }
  EXPECT_EQ(boxes, nl.registers().size());
}

TEST(Banking, FindsBanksOnConvertedDesign) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 40;
  spec.num_gates = 80;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult r = to_three_phase(ff);
  const Placement placement = place(r.netlist, lib());
  Rng rng(3);
  Simulator sim(r.netlist);
  run_stream(sim, random_stimulus(r.netlist.data_inputs().size(), 48, rng),
             8);
  const BankingReport report =
      analyze_banking(r.netlist, lib(), placement, sim.stats());
  EXPECT_GT(report.candidate_latches, 0);
  EXPECT_GE(report.banked_latches, 0);
  EXPECT_LE(report.clock_power_after_mw, report.clock_power_before_mw);
  EXPECT_GE(report.saving_pct(), 0.0);
  int by_size = 0;
  for (std::size_t bits = 2; bits < report.banks_by_size.size(); ++bits) {
    by_size += report.banks_by_size[bits];
  }
  EXPECT_EQ(by_size, report.banks);
}

TEST(Banking, TightRadiusBanksLess) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 40;
  spec.num_gates = 80;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult r = to_three_phase(ff);
  const Placement placement = place(r.netlist, lib());
  Rng rng(3);
  Simulator sim(r.netlist);
  run_stream(sim, random_stimulus(r.netlist.data_inputs().size(), 48, rng),
             8);
  BankingOptions wide;
  wide.cluster_radius_um = 50.0;
  BankingOptions tight;
  tight.cluster_radius_um = 0.5;
  const BankingReport a =
      analyze_banking(r.netlist, lib(), placement, sim.stats(), wide);
  const BankingReport b =
      analyze_banking(r.netlist, lib(), placement, sim.stats(), tight);
  EXPECT_GE(a.banked_latches, b.banked_latches);
  EXPECT_GE(a.saving_pct(), b.saving_pct());
}

TEST(Banking, GatedClocksWeightByActivity) {
  // A bank on a never-enabled gated clock contributes nothing to either
  // side of the comparison.
  Netlist nl("gated");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1000, nl.cell(clk).out);
  const CellId d = nl.add_input("d");
  const NetId zero = nl.add_net("zero");
  nl.add_cell(CellKind::kConst0, "c0", {}, zero);
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "cg", {zero, nl.cell(clk).out}, gclk,
              Phase::kClk);
  for (int i = 0; i < 4; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i),
                {nl.cell(d).out, gclk}, q, Phase::kClk);
    nl.add_output("o" + std::to_string(i), q);
  }
  const Placement placement = place(nl, lib());
  Simulator sim(nl);
  Rng rng(1);
  run_stream(sim, random_stimulus(1, 32, rng), 4);
  const BankingReport report =
      analyze_banking(nl, lib(), placement, sim.stats());
  EXPECT_DOUBLE_EQ(report.clock_power_before_mw, 0.0);
  EXPECT_DOUBLE_EQ(report.clock_power_after_mw, 0.0);
}

}  // namespace
}  // namespace tp
