#include <gtest/gtest.h>

#include "src/netlist/netlist.hpp"
#include "src/netlist/traverse.hpp"

namespace tp {
namespace {

/// a, b -> AND -> INV -> out
Netlist small_comb() {
  Netlist nl("small");
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const CellId g1 = nl.add_gate(CellKind::kAnd2, "g1",
                                {nl.cell(a).out, nl.cell(b).out});
  const CellId g2 = nl.add_gate(CellKind::kInv, "g2", {nl.cell(g1).out});
  nl.add_output("out", nl.cell(g2).out);
  return nl;
}

TEST(Netlist, BuildAndValidate) {
  Netlist nl = small_comb();
  EXPECT_NO_THROW(nl.validate());
  EXPECT_EQ(nl.inputs().size(), 2u);
  EXPECT_EQ(nl.outputs().size(), 1u);
  EXPECT_EQ(nl.live_cells().size(), 5u);
}

TEST(Netlist, ValidateReportsPinMissingFromFanoutList) {
  Netlist nl = small_comb();
  const CellId b = nl.inputs()[1];
  // Corrupt the netlist behind its API: drop g1's pin-1 ref from net b.
  auto& fanouts = const_cast<Net&>(nl.net(nl.cell(b).out)).fanouts;
  ASSERT_EQ(fanouts.size(), 1u);
  ASSERT_EQ(fanouts[0].pin, 1u);
  fanouts.clear();
  try {
    nl.validate();
    FAIL() << "validate accepted a pin missing from its fanout list";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(),
                 "validate: cell g1 pin 1 not in fanout list of net b");
  }
}

TEST(Netlist, WrongPinCountThrows) {
  Netlist nl("bad");
  const NetId a = nl.add_net("a");
  const NetId out = nl.add_net("out");
  EXPECT_THROW(nl.add_cell(CellKind::kAnd2, "g", {a}, out), Error);
}

TEST(Netlist, FourPinsThrow) {
  // A cell holds at most three pins inline; a fourth is an error, not an
  // overflow, and the netlist is left as it was.
  Netlist nl = small_comb();
  const NetId a = nl.cell(nl.inputs()[0]).out;
  const NetId b = nl.cell(nl.inputs()[1]).out;
  const NetId out = nl.add_net("g4");
  const std::uint64_t edits = nl.edits();
  EXPECT_THROW(nl.add_cell(CellKind::kAnd3, "g4", {a, b, a, b}, out), Error);
  const CellId g1 = nl.live_cells()[2];
  EXPECT_THROW(nl.morph_cell(g1, CellKind::kMaj3, {a, b, a, b}), Error);
  PinList pins = {a, b, a};
  EXPECT_THROW(pins.push_back(b), Error);
  EXPECT_EQ(pins.size(), 3u);
  EXPECT_EQ(nl.edits(), edits);
  EXPECT_EQ(nl.cell(g1).kind, CellKind::kAnd2);
  EXPECT_NO_THROW(nl.validate());
}

TEST(Netlist, PinListReadsLikeAVector) {
  const NetId a{4};
  const NetId b{9};
  PinList pins;
  EXPECT_TRUE(pins.empty());
  pins.push_back(a);
  pins.push_back(b);
  EXPECT_EQ(pins.size(), 2u);
  EXPECT_EQ(pins[1], b);
  EXPECT_EQ(pins.front(), a);
  EXPECT_EQ(std::vector<NetId>(pins.begin(), pins.end()),
            (std::vector<NetId>{a, b}));
  EXPECT_EQ(pins, (PinList{a, b}));
  EXPECT_FALSE(pins == (PinList{a}));
  EXPECT_FALSE(pins == (PinList{a, a}));
  pins.clear();
  EXPECT_EQ(pins, PinList{});
}

TEST(Netlist, DoubleDriverThrows) {
  Netlist nl("bad");
  const CellId a = nl.add_input("a");
  const NetId n = nl.cell(a).out;
  EXPECT_THROW(nl.add_cell(CellKind::kInv, "g", {n}, n), Error);
}

TEST(Netlist, ReplaceInputRewires) {
  Netlist nl = small_comb();
  const CellId g2 = nl.live_cells()[3];
  ASSERT_EQ(nl.cell(g2).kind, CellKind::kInv);
  const NetId a_net = nl.cell(nl.inputs()[0]).out;
  nl.replace_input(g2, 0, a_net);
  nl.validate();
  EXPECT_EQ(nl.cell(g2).ins[0], a_net);
}

TEST(Netlist, TransferFanoutsMovesAllSinks) {
  Netlist nl = small_comb();
  const NetId a_net = nl.cell(nl.inputs()[0]).out;
  const NetId b_net = nl.cell(nl.inputs()[1]).out;
  nl.transfer_fanouts(a_net, b_net);
  nl.validate();
  EXPECT_TRUE(nl.net(a_net).fanouts.empty());
  EXPECT_EQ(nl.net(b_net).fanouts.size(), 2u);
}

TEST(Netlist, RemoveCellDetaches) {
  Netlist nl = small_comb();
  const CellId g2 = nl.live_cells()[3];
  const CellId po = nl.outputs()[0];
  nl.remove_cell(po);  // detach the consumer first
  nl.remove_cell(g2);
  nl.validate();
  EXPECT_EQ(nl.live_cells().size(), 3u);
}

TEST(Netlist, MorphCellChangesKind) {
  Netlist nl = small_comb();
  const CellId g1 = nl.live_cells()[2];
  nl.morph_cell(g1, CellKind::kOr2);
  nl.validate();
  EXPECT_EQ(nl.cell(g1).kind, CellKind::kOr2);
}

TEST(Netlist, ThreePhaseSpecWaveforms) {
  Netlist nl("clk");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  EXPECT_EQ(nl.clocks().period_ps, 3000);
  EXPECT_EQ(nl.clocks().find(Phase::kP2)->rise_ps, 1000);
  EXPECT_EQ(nl.clocks().find(Phase::kP3)->fall_ps, 3000);
  EXPECT_EQ(nl.clocks().root(Phase::kP1), nl.cell(p1).out);
}

TEST(Netlist, DataInputsExcludesClockRoots) {
  Netlist nl("d");
  const CellId clk = nl.add_input("clk");
  nl.add_input("a");
  nl.set_clock_root(clk, Phase::kClk);
  EXPECT_EQ(nl.data_inputs().size(), 1u);
}

// --- traversal -------------------------------------------------------------

/// Builds: in -> FF0 -> inv -> FF1 -> and(loop with FF2) -> FF2 -> out,
/// with FF2 feeding back into the AND (combinational feedback onto itself).
Netlist reg_chain() {
  Netlist nl("chain");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId in = nl.add_input("in");

  const NetId q0 = nl.add_net("q0");
  nl.add_cell(CellKind::kDff, "ff0", {nl.cell(in).out, clk_net}, q0,
              Phase::kClk);
  const CellId inv = nl.add_gate(CellKind::kInv, "n1", {q0});
  const NetId q1 = nl.add_net("q1");
  nl.add_cell(CellKind::kDff, "ff1", {nl.cell(inv).out, clk_net}, q1,
              Phase::kClk);
  const NetId q2 = nl.add_net("q2");
  const CellId a = nl.add_gate(CellKind::kAnd2, "a1", {q1, q2});
  nl.add_cell(CellKind::kDff, "ff2", {nl.cell(a).out, clk_net}, q2,
              Phase::kClk);
  nl.add_output("out", q2);
  return nl;
}

TEST(Netlist, ResetMetadataValidatesAndRoundTrips) {
  Netlist nl("r");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const CellId d = nl.add_input("d");
  const CellId rst = nl.add_input("rst_n");
  const CellId ff = nl.add_gate(CellKind::kDff, "ff",
                                {nl.cell(d).out, nl.cell(clk).out},
                                Phase::kClk);
  const CellId inv = nl.add_gate(CellKind::kInv, "i", {nl.cell(d).out});

  EXPECT_THROW(nl.declare_reset_root(ff, true, 0), Error);  // not a kInput
  nl.declare_reset_root(rst, /*active_low=*/true, /*release_order=*/0);
  EXPECT_THROW(nl.declare_reset_root(rst, true, 1), Error);  // duplicate
  EXPECT_THROW(nl.set_reset(inv, nl.cell(rst).out), Error);  // not a reg

  EXPECT_FALSE(nl.reset_of(ff).valid());
  nl.set_reset(ff, nl.cell(rst).out);
  EXPECT_EQ(nl.reset_of(ff).value(), nl.cell(rst).out.value());
  ASSERT_EQ(nl.reset_roots().size(), 1u);
  EXPECT_TRUE(nl.reset_roots()[0].active_low);
  EXPECT_EQ(nl.reset_roots()[0].release_order, 0);
}

TEST(Traverse, LevelizeOrdersCombCells) {
  Netlist nl = small_comb();
  const Levelization lev = levelize(nl);
  ASSERT_EQ(lev.comb_order.size(), 2u);
  // AND (level 1) before INV (level 2).
  EXPECT_EQ(nl.cell(lev.comb_order[0]).kind, CellKind::kAnd2);
  EXPECT_EQ(nl.cell(lev.comb_order[1]).kind, CellKind::kInv);
  EXPECT_EQ(lev.max_level, 2);
}

TEST(Traverse, LevelizeDetectsCombCycle) {
  Netlist nl("cyc");
  const NetId x = nl.add_net("x");
  const NetId y = nl.add_net("y");
  nl.add_cell(CellKind::kInv, "i1", {x}, y);
  nl.add_cell(CellKind::kInv, "i2", {y}, x);
  EXPECT_THROW(levelize(nl), Error);
}

TEST(Traverse, LevelizeTreatsRegistersAsBarriers) {
  Netlist nl = reg_chain();
  EXPECT_NO_THROW(levelize(nl));  // FF2 feedback loop is not a comb cycle
}

TEST(Traverse, RegisterGraphEdges) {
  Netlist nl = reg_chain();
  const RegisterGraph g = build_register_graph(nl);
  ASSERT_EQ(g.regs.size(), 3u);
  // ff0 -> ff1, ff1 -> ff2, ff2 -> ff2 (self-loop through the AND).
  EXPECT_EQ(g.fanout[0], (std::vector<int>{1}));
  EXPECT_EQ(g.fanout[1], (std::vector<int>{2}));
  EXPECT_EQ(g.fanout[2], (std::vector<int>{2}));
  EXPECT_TRUE(g.has_self_loop(2));
  EXPECT_FALSE(g.has_self_loop(0));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Traverse, RegisterGraphPiFanout) {
  Netlist nl = reg_chain();
  const RegisterGraph g = build_register_graph(nl);
  ASSERT_EQ(g.data_pis.size(), 1u);  // "in" only; clk excluded
  EXPECT_EQ(g.pi_fanout[0], (std::vector<int>{0}));
}

TEST(Traverse, PinFaninSources) {
  Netlist nl = reg_chain();
  const RegisterGraph g = build_register_graph(nl);
  // ff2's D pin is fed by ff1 and ff2 through the AND gate.
  const std::vector<CellId> sources =
      pin_fanin_sources(nl, g.regs[2], 0);
  EXPECT_EQ(sources.size(), 2u);
}

TEST(Traverse, IcgEnableSources) {
  Netlist nl("icg");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId en = nl.add_input("en");
  const NetId q = nl.add_net("q");
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "cg", {nl.cell(en).out, clk_net}, gclk,
              Phase::kClk);
  nl.add_cell(CellKind::kDff, "ff", {nl.cell(en).out, gclk}, q, Phase::kClk);
  nl.add_output("out", q);

  const auto sources = icg_enable_sources(nl);
  ASSERT_EQ(sources.size(), 1u);
  const auto& src = sources.begin()->second;
  ASSERT_EQ(src.size(), 1u);
  EXPECT_EQ(nl.cell(src[0]).kind, CellKind::kInput);
}

}  // namespace
}  // namespace tp
