#include <gtest/gtest.h>

#include "src/retime/maxflow.hpp"
#include "src/retime/retime.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/timing/sta.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

// --- max-flow ---------------------------------------------------------------

TEST(MaxFlow, SimplePath) {
  MaxFlow f(4);
  f.add_edge(0, 1, 3);
  f.add_edge(1, 2, 2);
  f.add_edge(2, 3, 5);
  EXPECT_EQ(f.solve(0, 3), 2);
  const auto side = f.min_cut_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[3]);
}

TEST(MaxFlow, ParallelPathsSumCapacity) {
  MaxFlow f(4);
  f.add_edge(0, 1, 1);
  f.add_edge(1, 3, 1);
  f.add_edge(0, 2, 1);
  f.add_edge(2, 3, 1);
  EXPECT_EQ(f.solve(0, 3), 2);
}

TEST(MaxFlow, ClassicDiamond) {
  MaxFlow f(6);
  f.add_edge(0, 1, 16);
  f.add_edge(0, 2, 13);
  f.add_edge(1, 3, 12);
  f.add_edge(2, 1, 4);
  f.add_edge(3, 2, 9);
  f.add_edge(2, 4, 14);
  f.add_edge(4, 3, 7);
  f.add_edge(3, 5, 20);
  f.add_edge(4, 5, 4);
  EXPECT_EQ(f.solve(0, 5), 23);  // CLRS reference network
}

TEST(MaxFlow, DisconnectedIsZero) {
  MaxFlow f(3);
  f.add_edge(0, 1, 5);
  EXPECT_EQ(f.solve(0, 2), 0);
}

// --- retiming ----------------------------------------------------------------

/// Converted 3-phase netlist from a random FF circuit.
ThreePhaseResult converted(std::uint64_t seed, int num_ffs = 20,
                           int num_gates = 80) {
  testing::RandomCircuitSpec spec;
  spec.seed = seed;
  spec.num_ffs = num_ffs;
  spec.num_gates = num_gates;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  return to_three_phase(ff);
}

TEST(Retime, NeverIncreasesLatchCount) {
  for (const std::uint64_t seed : {1u, 5u, 9u, 13u}) {
    ThreePhaseResult r = converted(seed);
    const auto before = r.netlist.registers().size();
    const RetimeResult rr = retime_inserted_latches(r.netlist, lib());
    EXPECT_LE(rr.latches_after, rr.latches_before) << "seed " << seed;
    EXPECT_EQ(r.netlist.registers().size(),
              before - static_cast<std::size_t>(rr.latches_before -
                                                rr.latches_after));
    r.netlist.validate();
  }
}

TEST(Retime, PreservesFunctionality) {
  for (const std::uint64_t seed : {2u, 4u, 6u, 8u, 10u}) {
    testing::RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_ffs = 18;
    spec.num_gates = 70;
    spec.enable_fraction = 0.4;
    Netlist ff = testing::random_ff_circuit(spec);
    infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
    Rng rng(seed);
    const Stimulus stim =
        random_stimulus(ff.data_inputs().size(), 96, rng, 0.4);
    Simulator ff_sim(ff);
    const OutputStream reference = run_stream(ff_sim, stim, 8);

    ThreePhaseResult r = to_three_phase(ff);
    retime_inserted_latches(r.netlist, lib());
    Simulator sim(r.netlist);
    EXPECT_TRUE(streams_equal(reference, run_stream(sim, stim, 8)))
        << "3-phase retime, seed " << seed;

    Netlist ms = to_master_slave(ff);
    retime_inserted_latches(ms, lib(), {.movable_phase = Phase::kClk});
    Simulator ms_sim(ms);
    EXPECT_TRUE(streams_equal(reference, run_stream(ms_sim, stim, 8)))
        << "master-slave retime, seed " << seed;
  }
}

TEST(Retime, MovesLatchesIntoDeepStages) {
  // A single back-to-back stage followed by a long inverter chain: the p2
  // latch must move into the chain to satisfy the Tc/2 halves.
  Netlist nl("deep");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  // At 800 ps the 24-inverter chain (~510 ps) cannot be relaunched from the
  // p2 opening edge (267 ps) and still reach the capture by the cycle end,
  // so the latch must move into the chain.
  nl.clocks() = three_phase_spec(800, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const CellId in = nl.add_input("in");
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kLatchH, "lat3", {nl.cell(in).out, nl.cell(p3).out},
              q, Phase::kP3);
  const CellId l2 = insert_latch_after(nl, q, nl.cell(p2).out, Phase::kP2,
                                       "lat3_p2");
  NetId d = nl.cell(l2).out;
  for (int i = 0; i < 24; ++i) {
    d = nl.cell(nl.add_gate(CellKind::kInv, "i" + std::to_string(i), {d}))
            .out;
  }
  const NetId q2 = nl.add_net("q2");
  nl.add_cell(CellKind::kLatchH, "cap", {d, nl.cell(p1).out}, q2,
              Phase::kP1);
  nl.add_output("o", q2);

  const RetimeResult rr =
      retime_inserted_latches(nl, lib(), {.margin_ps = 50});
  EXPECT_EQ(rr.latches_after, 1);
  EXPECT_EQ(rr.moved, 1);  // pushed into the inverter chain
  // Both halves now satisfy Tc/2 per the STA.
  EXPECT_TRUE(check_timing(nl, lib()).setup_ok);
}

TEST(Retime, MergesReconvergentLatches) {
  // Two back-to-back latches whose cones reconverge into one net: the
  // min-cut merges their p2 latches when delays allow.
  Netlist nl("merge");
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, nl.cell(p1).out, nl.cell(p2).out,
                                 nl.cell(p3).out);
  const CellId a = nl.add_input("a");
  const CellId b = nl.add_input("b");
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "la", {nl.cell(a).out, nl.cell(p3).out},
              qa, Phase::kP3);
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "lb", {nl.cell(b).out, nl.cell(p3).out},
              qb, Phase::kP3);
  insert_latch_after(nl, qa, nl.cell(p2).out, Phase::kP2, "la_p2");
  insert_latch_after(nl, qb, nl.cell(p2).out, Phase::kP2, "lb_p2");
  const NetId qa2 = nl.net(qa).fanouts[0].cell.valid()
                        ? nl.cell(nl.net(qa).fanouts[0].cell).out
                        : NetId{};
  const NetId qb2 = nl.cell(nl.net(qb).fanouts[0].cell).out;
  const CellId g =
      nl.add_gate(CellKind::kAnd2, "g", {qa2, qb2});
  const NetId qc = nl.add_net("qc");
  nl.add_cell(CellKind::kLatchH, "cap", {nl.cell(g).out, nl.cell(p1).out},
              qc, Phase::kP1);
  nl.add_output("o", qc);

  const RetimeResult rr = retime_inserted_latches(nl, lib());
  EXPECT_EQ(rr.latches_before, 2);
  EXPECT_EQ(rr.latches_after, 1);  // merged at the AND output
}

}  // namespace
}  // namespace tp
