#include <gtest/gtest.h>

#include "src/sim/simulator.hpp"

#include "src/sim/stimulus.hpp"

namespace tp {
namespace {

/// FF shift chain: in -> FF -> FF -> ... -> out, depth stages.
Netlist ff_chain(int depth) {
  Netlist nl("ff_chain");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId in = nl.add_input("in");
  NetId d = nl.cell(in).out;
  for (int i = 0; i < depth; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i), {d, clk_net}, q,
                Phase::kClk);
    d = q;
  }
  nl.add_output("out", d);
  return nl;
}

/// 3-phase latch pipeline matching ff_chain(depth) per Fig. 1: stages
/// alternate p1 single latches and p3+p2 back-to-back pairs.
Netlist three_phase_chain(int depth) {
  Netlist nl("latch_chain");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const CellId in = nl.add_input("in");
  // The PI feeds a p1 latch, so the ILP's interface rule (G(u) >= K(v) for
  // u in PI) inserts a p2 latch at the PI's output.
  const NetId in_p2 = nl.add_net("in_p2");
  nl.add_cell(CellKind::kLatchH, "in_lat_p2",
              {nl.cell(in).out, nl.cell(p2).out}, in_p2, Phase::kP2);
  NetId d = in_p2;
  for (int i = 0; i < depth; ++i) {
    // Even stages: p1 single latches; odd stages: p3 + p2 back-to-back.
    if (i % 2 == 0) {
      const NetId q = nl.add_net("l" + std::to_string(i));
      nl.add_cell(CellKind::kLatchH, "lat" + std::to_string(i),
                  {d, nl.cell(p1).out}, q, Phase::kP1);
      d = q;
    } else {
      const NetId q = nl.add_net("l" + std::to_string(i));
      nl.add_cell(CellKind::kLatchH, "lat" + std::to_string(i),
                  {d, nl.cell(p3).out}, q, Phase::kP3);
      const NetId q2 = nl.add_net("l" + std::to_string(i) + "_p2");
      nl.add_cell(CellKind::kLatchH, "lat" + std::to_string(i) + "_p2",
                  {q, nl.cell(p2).out}, q2, Phase::kP2);
      d = q2;
    }
  }
  nl.add_output("out", d);
  return nl;
}

/// Master-slave chain equivalent to ff_chain(depth): each FF becomes a
/// transparent-low master followed by a transparent-high slave on one clock.
Netlist master_slave_chain(int depth) {
  Netlist nl("ms_chain");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId in = nl.add_input("in");
  NetId d = nl.cell(in).out;
  for (int i = 0; i < depth; ++i) {
    const NetId m = nl.add_net("m" + std::to_string(i));
    nl.add_cell(CellKind::kLatchL, "mst" + std::to_string(i), {d, clk_net},
                m, Phase::kClk);
    const NetId s = nl.add_net("s" + std::to_string(i));
    nl.add_cell(CellKind::kLatchH, "slv" + std::to_string(i), {m, clk_net},
                s, Phase::kClk);
    d = s;
  }
  nl.add_output("out", d);
  return nl;
}

Stimulus bit_stream(std::initializer_list<int> bits) {
  Stimulus s;
  for (int b : bits) s.push_back({static_cast<std::uint8_t>(b)});
  return s;
}

TEST(Simulator, FfChainDelaysByDepth) {
  Netlist nl = ff_chain(3);
  Simulator sim(nl);
  const Stimulus stim = bit_stream({1, 0, 1, 1, 0, 0, 1, 0});
  const OutputStream out = run_stream(sim, stim, /*warmup=*/0);
  // Output at cycle n is the input applied at cycle n - 3 (sampled at the
  // cycle-start edge; the PO snapshot shows post-edge state).
  for (std::size_t n = 3; n < stim.size(); ++n) {
    EXPECT_EQ(out[n][0], stim[n - 3][0]) << "cycle " << n;
  }
}

TEST(Simulator, DffEnHoldsWhenDisabled) {
  Netlist nl("en");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1000, nl.cell(clk).out);
  const CellId d = nl.add_input("d");
  const CellId en = nl.add_input("en");
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kDffEn, "ff",
              {nl.cell(d).out, nl.cell(en).out, nl.cell(clk).out}, q,
              Phase::kClk);
  nl.add_output("q", q);

  Simulator sim(nl);
  Stimulus stim = {{1, 1}, {0, 0}, {0, 0}, {1, 0}, {1, 1}, {0, 0}};
  const OutputStream out = run_stream(sim, stim, 0);
  // Samples happen at cycle start with the *previous* cycle's inputs.
  EXPECT_EQ(out[1][0], 1);  // captured d=1 (en=1 applied in cycle 0)
  EXPECT_EQ(out[2][0], 1);  // en=0: hold
  EXPECT_EQ(out[3][0], 1);  // en=0: hold
  EXPECT_EQ(out[4][0], 1);  // en=0: hold
  EXPECT_EQ(out[5][0], 1);  // en=1 in cycle 4 captured d=1
}

TEST(Simulator, GatedClockMatchesEnabledClock) {
  // Fig. 2: DFFEN (enabled clock) and ICG+DFF (gated clock) must be
  // functionally identical.
  Netlist en_nl("en");
  {
    const CellId clk = en_nl.add_input("clk");
    en_nl.set_clock_root(clk, Phase::kClk);
    en_nl.clocks() = single_phase_spec(1000, en_nl.cell(clk).out);
    const CellId d = en_nl.add_input("d");
    const CellId en = en_nl.add_input("en");
    const NetId q = en_nl.add_net("q");
    en_nl.add_cell(
        CellKind::kDffEn, "ff",
        {en_nl.cell(d).out, en_nl.cell(en).out, en_nl.cell(clk).out}, q,
        Phase::kClk);
    en_nl.add_output("q", q);
  }
  Netlist cg_nl("cg");
  {
    const CellId clk = cg_nl.add_input("clk");
    cg_nl.set_clock_root(clk, Phase::kClk);
    cg_nl.clocks() = single_phase_spec(1000, cg_nl.cell(clk).out);
    const CellId d = cg_nl.add_input("d");
    const CellId en = cg_nl.add_input("en");
    const NetId gclk = cg_nl.add_net("gclk");
    cg_nl.add_cell(CellKind::kIcg, "cg",
                   {cg_nl.cell(en).out, cg_nl.cell(clk).out}, gclk,
                   Phase::kClk);
    const NetId q = cg_nl.add_net("q");
    cg_nl.add_cell(CellKind::kDff, "ff", {cg_nl.cell(d).out, gclk}, q,
                   Phase::kClk);
    cg_nl.add_output("q", q);
  }

  Rng rng(123);
  Stimulus stim = random_stimulus(2, 64, rng, 0.4);
  Simulator en_sim(en_nl), cg_sim(cg_nl);
  EXPECT_TRUE(streams_equal(run_stream(en_sim, stim, 2),
                            run_stream(cg_sim, stim, 2)));
}

TEST(Simulator, IcgSuppressesClockToggles) {
  // With EN tied to 0 the gated clock must never toggle.
  Netlist nl("cg0");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(1000, nl.cell(clk).out);
  const CellId d = nl.add_input("d");
  const NetId zero = nl.add_net("zero");
  nl.add_cell(CellKind::kConst0, "c0", {}, zero);
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcg, "cg", {zero, nl.cell(clk).out}, gclk,
              Phase::kClk);
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kDff, "ff", {nl.cell(d).out, gclk}, q, Phase::kClk);
  nl.add_output("q", q);

  Simulator sim(nl);
  Rng rng(5);
  run_stream(sim, random_stimulus(1, 32, rng), 0);
  EXPECT_EQ(sim.stats().net_toggles[gclk.value()], 0u);
  EXPECT_EQ(sim.stats().net_toggles[nl.cell(clk).out.value()],
            2u * sim.stats().cycles);
}

TEST(Simulator, MasterSlaveMatchesFfChain) {
  Netlist ff = ff_chain(4);
  Netlist ms = master_slave_chain(4);
  Rng rng(77);
  const Stimulus stim = random_stimulus(1, 128, rng, 0.5);
  Simulator ff_sim(ff), ms_sim(ms);
  EXPECT_TRUE(streams_equal(run_stream(ff_sim, stim, 4),
                            run_stream(ms_sim, stim, 4)));
}

TEST(Simulator, ThreePhaseChainMatchesFfChain) {
  // Fig. 1: the 3-phase latch pipeline is stream-equivalent to the FF
  // pipeline at the same throughput.
  for (const int depth : {1, 2, 3, 4, 5, 8}) {
    Netlist ff = ff_chain(depth);
    Netlist lp = three_phase_chain(depth);
    Rng rng(1000 + depth);
    const Stimulus stim = random_stimulus(1, 64, rng, 0.5);
    Simulator ff_sim(ff);
    SimOptions lp_opt;
    lp_opt.snapshot_event = 1;  // 3-phase designs snapshot after T/3
    Simulator lp_sim(lp, lp_opt);
    EXPECT_TRUE(streams_equal(run_stream(ff_sim, stim, 8),
                              run_stream(lp_sim, stim, 8)))
        << "depth " << depth;
  }
}

TEST(Simulator, ToggleStatsCountDataActivity) {
  Netlist nl = ff_chain(1);
  Simulator sim(nl);
  // Toggle input every cycle: the FF output toggles once per cycle.
  Stimulus stim;
  for (int i = 0; i < 16; ++i) stim.push_back({static_cast<std::uint8_t>(i % 2)});
  run_stream(sim, stim, 4);
  const NetId q = nl.cell(nl.outputs()[0]).ins[0];
  EXPECT_EQ(sim.stats().cycles, 12u);
  EXPECT_EQ(sim.stats().net_toggles[q.value()], 12u);
}

TEST(Simulator, ZeroDelayModeMatchesUnitDelayFunctionally) {
  Netlist nl = ff_chain(3);
  Rng rng(9);
  const Stimulus stim = random_stimulus(1, 64, rng);
  SimOptions zd;
  zd.unit_delay = false;
  Simulator a(nl), b(nl, zd);
  EXPECT_TRUE(streams_equal(run_stream(a, stim, 2), run_stream(b, stim, 2)));
}

TEST(Simulator, TwoPhaseClkClkbarIntermediate) {
  // The paper's retiming intermediate maps p1/p3 to clk and p2 to clkbar
  // (both high half a cycle). A transparent clk latch followed by a clkbar
  // latch passes each cycle's input within the same cycle (the clk latch
  // flows through the PI applied at t = 0; the clkbar latch relays it in
  // the second half).
  Netlist nl("twophase");
  const CellId clk = nl.add_input("clk");
  const CellId clkbar = nl.add_input("clkbar");
  nl.set_clock_root(clk, Phase::kClk);
  nl.set_clock_root(clkbar, Phase::kClkBar);
  nl.clocks() = two_phase_spec(1000, nl.cell(clk).out,
                               nl.cell(clkbar).out);
  EXPECT_EQ(nl.clocks().find(Phase::kClk)->fall_ps, 500);
  EXPECT_EQ(nl.clocks().find(Phase::kClkBar)->rise_ps, 500);

  const CellId in = nl.add_input("in");
  const NetId q1 = nl.add_net("q1");
  nl.add_cell(CellKind::kLatchH, "la", {nl.cell(in).out, nl.cell(clk).out},
              q1, Phase::kClk);
  const NetId q2 = nl.add_net("q2");
  nl.add_cell(CellKind::kLatchH, "lb", {q1, nl.cell(clkbar).out}, q2,
              Phase::kClkBar);
  nl.add_output("out", q2);

  Rng rng(31);
  const Stimulus stim = random_stimulus(1, 64, rng, 0.5);
  // The clkbar latch carries cycle-n data during [T/2, T); sample after
  // the mid-cycle event like the 3-phase p2 case.
  SimOptions opt;
  opt.snapshot_event = 1;
  Simulator b(nl, opt);
  const OutputStream out = run_stream(b, stim, 4);
  for (std::size_t n = 0; n < out.size(); ++n) {
    EXPECT_EQ(out[n][0], stim[n + 4][0]) << "cycle " << n;
  }
}

TEST(Simulator, WrongPiCountThrows) {
  Netlist nl = ff_chain(1);
  Simulator sim(nl);
  const std::vector<std::uint8_t> too_many{1, 0};
  EXPECT_THROW(sim.step(too_many), Error);
}

}  // namespace
}  // namespace tp
