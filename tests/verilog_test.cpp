#include <gtest/gtest.h>

#include "src/netlist/verilog.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

TEST(Verilog, WritesModuleSkeleton) {
  Netlist nl("top");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1000, nl.cell(clk).out);
  const CellId a = nl.add_input("a");
  const CellId g = nl.add_gate(CellKind::kInv, "u1", {nl.cell(a).out});
  nl.add_output("y", nl.cell(g).out);

  const std::string text = to_verilog(nl);
  EXPECT_NE(text.find("module top (clk, a, y_po);"), std::string::npos);
  EXPECT_NE(text.find("// tp-clock clk clk 0 500 1000"), std::string::npos);
  // The instance is renamed (its output net already claimed "u1").
  EXPECT_NE(text.find("TP_INV u1_1 (.A(a), .Y(u1));"), std::string::npos);
  EXPECT_NE(text.find("assign y_po = u1;"), std::string::npos);
}

TEST(Verilog, RoundTripPreservesStructure) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 20;
  spec.num_gates = 60;
  spec.enable_fraction = 0.5;
  Netlist original = testing::random_ff_circuit(spec);
  infer_clock_gating(original);

  const Netlist parsed = read_verilog_string(to_verilog(original));
  EXPECT_EQ(parsed.registers().size(), original.registers().size());
  EXPECT_EQ(parsed.live_cells().size(), original.live_cells().size());
  EXPECT_EQ(parsed.data_inputs().size(), original.data_inputs().size());
  EXPECT_EQ(parsed.outputs().size(), original.outputs().size());
  EXPECT_EQ(parsed.clocks().period_ps, original.clocks().period_ps);
}

TEST(Verilog, RoundTripPreservesFunction) {
  for (const std::uint64_t seed : {3u, 11u}) {
    testing::RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_ffs = 16;
    spec.num_gates = 50;
    Netlist original = testing::random_ff_circuit(spec);
    infer_clock_gating(original);
    const Netlist parsed = read_verilog_string(to_verilog(original));

    Rng rng(seed);
    const Stimulus stim =
        random_stimulus(original.data_inputs().size(), 64, rng, 0.4);
    Simulator a(original), b(parsed);
    EXPECT_TRUE(streams_equal(run_stream(a, stim, 4), run_stream(b, stim, 4)))
        << "seed " << seed;
  }
}

TEST(Verilog, RoundTripsConvertedThreePhaseDesign) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 14;
  spec.num_gates = 40;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  const ThreePhaseResult converted = to_three_phase(ff);
  const Netlist parsed =
      read_verilog_string(to_verilog(converted.netlist));

  EXPECT_EQ(parsed.clocks().phases.size(), 3u);
  // Phases recovered on the latches.
  int p1 = 0, p2 = 0, p3 = 0;
  for (const CellId id : parsed.registers()) {
    switch (parsed.cell(id).phase) {
      case Phase::kP1: ++p1; break;
      case Phase::kP2: ++p2; break;
      case Phase::kP3: ++p3; break;
      default: ADD_FAILURE() << "latch without phase"; break;
    }
  }
  EXPECT_GT(p2, 0);
  EXPECT_EQ(p1 + p2 + p3,
            static_cast<int>(converted.netlist.registers().size()));

  Rng rng(5);
  const Stimulus stim =
      random_stimulus(ff.data_inputs().size(), 64, rng, 0.4);
  Simulator a(converted.netlist), b(parsed);
  EXPECT_TRUE(streams_equal(run_stream(a, stim, 8), run_stream(b, stim, 8)));
}

TEST(Verilog, PreservesInitValues) {
  Netlist nl("init");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1000, nl.cell(clk).out);
  const CellId a = nl.add_input("a");
  const NetId q = nl.add_net("q");
  const CellId ff = nl.add_cell(CellKind::kDff, "r1",
                                {nl.cell(a).out, nl.cell(clk).out}, q,
                                Phase::kClk);
  nl.set_init(ff, true);
  nl.add_output("y", q);

  const std::string text = to_verilog(nl);
  EXPECT_NE(text.find("TP_DFF #(.INIT(1'b1)) r1"), std::string::npos);
  const Netlist parsed = read_verilog_string(text);
  EXPECT_EQ(parsed.cell(parsed.registers()[0]).init, 1);
}

TEST(Verilog, SanitizesAwkwardNames) {
  Netlist nl("weird design-name");
  const CellId a = nl.add_input("a[3]");
  const CellId g = nl.add_gate(CellKind::kBuf, "1bad", {nl.cell(a).out});
  nl.add_output("out.q", nl.cell(g).out);
  const std::string text = to_verilog(nl);
  // Must parse back without errors.
  EXPECT_NO_THROW(read_verilog_string(text));
  EXPECT_EQ(text.find("["), std::string::npos);
}

TEST(Verilog, RejectsMalformedInput) {
  EXPECT_THROW(read_verilog_string("module x (a;"), Error);
  EXPECT_THROW(read_verilog_string("module x (); garbage"), Error);
  EXPECT_THROW(read_verilog_string(
                   "module x (a); input a; UNKNOWN_CELL u (.A(a), .Y(a)); "
                   "endmodule"),
               Error);
  EXPECT_THROW(read_verilog_string(
                   "module x (a, y); input a; output y; TP_INV u (.A(a)); "
                   "assign y = a; endmodule"),
               Error);  // missing output pin
  EXPECT_THROW(read_verilog_string("module x (y); output y; endmodule"),
               Error);  // output without assign
}

TEST(Verilog, ConstantsRoundTrip) {
  Netlist nl("c");
  const NetId zero = nl.add_net("zero");
  nl.add_cell(CellKind::kConst0, "c0", {}, zero);
  const NetId one = nl.add_net("one");
  nl.add_cell(CellKind::kConst1, "c1", {}, one);
  const CellId g = nl.add_gate(CellKind::kOr2, "g", {zero, one});
  nl.add_output("y", nl.cell(g).out);
  const Netlist parsed = read_verilog_string(to_verilog(nl));
  EXPECT_EQ(parsed.count_cells(
                [](CellKind k) { return k == CellKind::kConst0; }),
            1u);
  EXPECT_EQ(parsed.count_cells(
                [](CellKind k) { return k == CellKind::kConst1; }),
            1u);
}

}  // namespace
}  // namespace tp
