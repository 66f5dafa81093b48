#include <gtest/gtest.h>

#include "src/cts/cts.hpp"
#include "src/power/power.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

struct Prepared {
  Netlist netlist{"x"};
  ActivityStats activity;
  Placement placement;
  ClockTreeReport cts;
};

Prepared prepare(Netlist nl, double toggle = 0.3) {
  Prepared p{.netlist = std::move(nl), .activity = {}, .placement = {},
             .cts = {}};
  Rng rng(5);
  Simulator sim(p.netlist);
  run_stream(sim,
             random_stimulus(p.netlist.data_inputs().size(), 128, rng,
                             toggle),
             8);
  p.activity = sim.stats();
  p.placement = place(p.netlist, lib());
  p.cts = synthesize_clock_trees(p.netlist, p.placement);
  return p;
}

Netlist base_circuit(std::uint64_t seed = 1, double enable = 0.0) {
  testing::RandomCircuitSpec spec;
  spec.seed = seed;
  spec.num_ffs = 24;
  spec.num_gates = 90;
  spec.enable_fraction = enable;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl, {.style = CgStyle::kGated, .min_icg_group = 1});
  return nl;
}

TEST(Cts, BuildsOneTreePerClockNet) {
  Prepared p = prepare(base_circuit(1, 0.8));
  // At least the root clk plus the gated clock nets.
  EXPECT_GE(p.cts.nets.size(), 2u);
  for (const ClockNetTree& t : p.cts.nets) {
    EXPECT_GT(t.sinks, 0);
    EXPECT_GE(t.wire_um, 0.0);
  }
}

TEST(Cts, BuffersRespectMaxFanout) {
  // 600 sinks with max fanout 20 need at least 30 leaf buffers and at
  // least two levels.
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 600;
  spec.num_gates = 200;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  const Placement placement = place(nl, lib());
  const ClockTreeReport r = synthesize_clock_trees(nl, placement);
  const auto it = std::find_if(r.nets.begin(), r.nets.end(),
                               [&](const ClockNetTree& t) {
                                 return t.sinks >= 600;
                               });
  ASSERT_NE(it, r.nets.end());
  EXPECT_GE(it->buffers, 30);
  EXPECT_GE(it->levels, 2);
}

TEST(Power, RequiresCyclesAndPeriod) {
  Netlist nl = base_circuit();
  ActivityStats empty;
  empty.net_toggles.assign(nl.num_nets(), 0);
  EXPECT_THROW(compute_power(nl, lib(), empty), Error);
}

TEST(Power, GroupsArePositiveAndSumToTotal) {
  Prepared p = prepare(base_circuit());
  const PowerBreakdown b =
      compute_power(p.netlist, lib(), p.activity, &p.placement, &p.cts);
  EXPECT_GT(b.clock_mw, 0);
  EXPECT_GT(b.seq_mw, 0);
  EXPECT_GT(b.comb_mw, 0);
  EXPECT_NEAR(b.total_mw(), b.clock_mw + b.seq_mw + b.comb_mw, 1e-12);
  EXPECT_GT(b.leakage_mw, 0);
  EXPECT_LT(b.leakage_mw, b.total_mw());
}

TEST(Power, ScalesWithActivity) {
  Netlist nl = base_circuit();
  Prepared hot = prepare(nl, 0.5);
  Prepared cold = prepare(nl, 0.02);
  const double p_hot =
      compute_power(hot.netlist, lib(), hot.activity, &hot.placement,
                    &hot.cts)
          .total_mw();
  const double p_cold =
      compute_power(cold.netlist, lib(), cold.activity, &cold.placement,
                    &cold.cts)
          .total_mw();
  EXPECT_GT(p_hot, p_cold);
}

TEST(Power, ClockGatingReducesClockPower) {
  // Same circuit with enables: gated style must burn less clock power than
  // the enabled (mux) style when enables are mostly off.
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 32;
  spec.num_gates = 60;
  spec.enable_fraction = 0.9;
  Netlist gated = testing::random_ff_circuit(spec);
  infer_clock_gating(gated, {.style = CgStyle::kGated, .min_icg_group = 1});
  Netlist muxed = testing::random_ff_circuit(spec);
  infer_clock_gating(muxed, {.style = CgStyle::kEnabled});

  // Enables come from PIs; a 0.02 toggle keeps them mostly constant-0 or
  // constant-1 per run — use several seeds and compare the average.
  double gated_clock = 0, muxed_clock = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    Prepared g = prepare(gated, 0.05);
    Prepared m = prepare(muxed, 0.05);
    gated_clock += compute_power(g.netlist, lib(), g.activity, &g.placement,
                                 &g.cts)
                       .clock_mw;
    muxed_clock += compute_power(m.netlist, lib(), m.activity, &m.placement,
                                 &m.cts)
                       .clock_mw;
  }
  EXPECT_LT(gated_clock, muxed_clock);
}

TEST(Power, ThreePhaseSavesClockPowerOnPipelines) {
  // A deep shift pipeline is the best case for the conversion: half the
  // stages become single latches and latch clock pins are much cheaper.
  Netlist nl("pipe");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(3000, nl.cell(clk).out);
  const CellId in = nl.add_input("in");
  NetId d = nl.cell(in).out;
  for (int i = 0; i < 64; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i),
                {d, nl.cell(clk).out}, q, Phase::kClk);
    d = q;
  }
  nl.add_output("o", d);

  Prepared ff = prepare(nl, 0.4);
  ThreePhaseResult conv = to_three_phase(nl);
  Prepared tp3 = prepare(conv.netlist, 0.4);

  const double ff_clock =
      compute_power(ff.netlist, lib(), ff.activity, &ff.placement, &ff.cts)
          .clock_mw;
  const double tp_clock =
      compute_power(tp3.netlist, lib(), tp3.activity, &tp3.placement,
                    &tp3.cts)
          .clock_mw;
  EXPECT_LT(tp_clock, ff_clock);
}

}  // namespace
}  // namespace tp
