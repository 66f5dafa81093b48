#include <gtest/gtest.h>

#include "src/netlist/traverse.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/ddcg.hpp"
#include "src/transform/p2_gating.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

using testing::RandomCircuitSpec;
using testing::random_ff_circuit;

OutputStream run(const Netlist& nl, const Stimulus& stim) {
  Simulator sim(nl);
  return run_stream(sim, stim, /*warmup=*/8);
}

Stimulus stimulus_for(const Netlist& nl, std::uint64_t seed,
                      std::size_t cycles = 96) {
  Rng rng(seed);
  return random_stimulus(nl.data_inputs().size(), cycles, rng, 0.4);
}

// --- clock-gating inference (Fig. 2) ----------------------------------------

TEST(ClockGatingInference, GatedStyleInsertsIcgs) {
  RandomCircuitSpec spec;
  spec.enable_fraction = 0.8;
  spec.num_ffs = 16;
  Netlist nl = random_ff_circuit(spec);
  const CgInferenceResult r = infer_clock_gating(nl);
  nl.validate();
  EXPECT_GT(r.icgs_inserted, 0);
  EXPECT_EQ(nl.count_cells([](CellKind k) { return k == CellKind::kDffEn; }),
            0u);
}

TEST(ClockGatingInference, EnabledStyleCreatesSelfLoops) {
  // The paper's motivation for preferring gated clocks: the recirculating
  // mux of the enabled style puts self-loops on the FF graph, which the
  // gated style avoids.
  RandomCircuitSpec spec;
  spec.enable_fraction = 0.8;
  spec.feedback_fraction = 0.0;
  spec.num_ffs = 16;

  Netlist gated = random_ff_circuit(spec);
  infer_clock_gating(gated, {.style = CgStyle::kGated, .min_icg_group = 1});
  Netlist enabled = random_ff_circuit(spec);
  infer_clock_gating(enabled, {.style = CgStyle::kEnabled});

  auto self_loops = [](const Netlist& nl) {
    const RegisterGraph g = build_register_graph(nl);
    int loops = 0;
    for (std::size_t u = 0; u < g.regs.size(); ++u) {
      loops += g.has_self_loop(static_cast<int>(u));
    }
    return loops;
  };
  // Random D-wiring produces some natural self-loops in both styles; the
  // enabled style adds one per muxed register on top.
  EXPECT_GT(self_loops(enabled), self_loops(gated));
}

TEST(ClockGatingInference, BothStylesAreEquivalent) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.enable_fraction = 0.6;
    Netlist original = random_ff_circuit(spec);
    const Stimulus stim = stimulus_for(original, seed);

    Netlist gated = original;
    infer_clock_gating(gated, {.style = CgStyle::kGated, .min_icg_group = 1});
    Netlist enabled = original;
    infer_clock_gating(enabled, {.style = CgStyle::kEnabled});

    EXPECT_TRUE(streams_equal(run(original, stim), run(gated, stim)))
        << "gated, seed " << seed;
    EXPECT_TRUE(streams_equal(run(original, stim), run(enabled, stim)))
        << "enabled, seed " << seed;
  }
}

// --- master-slave conversion -------------------------------------------------

TEST(MasterSlave, DoublesRegisterCount) {
  RandomCircuitSpec spec;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  const Netlist ms = to_master_slave(ff);
  EXPECT_EQ(ms.registers().size(), 2 * ff.registers().size());
  EXPECT_EQ(ms.count_cells(is_flip_flop), 0u);
}

TEST(MasterSlave, RejectsDffEn) {
  RandomCircuitSpec spec;
  spec.enable_fraction = 1.0;
  const Netlist ff = random_ff_circuit(spec);
  EXPECT_THROW(to_master_slave(ff), Error);
}

// --- 3-phase conversion ------------------------------------------------------

TEST(ThreePhase, PreservesConstraintC1) {
  // C1: every original FF position stays latched.
  RandomCircuitSpec spec;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  const std::size_t ffs = ff.registers().size();
  const ThreePhaseResult r = to_three_phase(ff);
  EXPECT_EQ(r.netlist.registers().size(),
            ffs + static_cast<std::size_t>(r.inserted_p2));
  EXPECT_EQ(r.netlist.count_cells(is_flip_flop), 0u);
  // Three phases declared.
  EXPECT_EQ(r.netlist.clocks().phases.size(), 3u);
}

TEST(ThreePhase, NoDirectP3ToP1Path) {
  // By construction every p3 latch is back-to-back, so no combinational path
  // can run from a p3 latch straight into a p1 latch.
  RandomCircuitSpec spec;
  spec.num_ffs = 20;
  spec.num_gates = 60;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  const ThreePhaseResult r = to_three_phase(ff);
  const RegisterGraph g = build_register_graph(r.netlist);
  for (std::size_t u = 0; u < g.regs.size(); ++u) {
    const Phase pu = r.netlist.cell(g.regs[u]).phase;
    if (pu != Phase::kP3) continue;
    for (const int v : g.fanout[u]) {
      EXPECT_NE(r.netlist.cell(g.regs[static_cast<std::size_t>(v)]).phase,
                Phase::kP1)
          << "p3 latch " << r.netlist.cell(g.regs[u]).name
          << " feeds a p1 latch directly";
    }
  }
}

TEST(ThreePhase, NoConsecutiveTransparentLatches) {
  // C2 in graph form: any combinational edge between latches of the same
  // phase is forbidden (their windows would overlap).
  RandomCircuitSpec spec;
  spec.num_ffs = 20;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  const ThreePhaseResult r = to_three_phase(ff);
  const RegisterGraph g = build_register_graph(r.netlist);
  for (std::size_t u = 0; u < g.regs.size(); ++u) {
    for (const int v : g.fanout[u]) {
      EXPECT_NE(r.netlist.cell(g.regs[u]).phase,
                r.netlist.cell(g.regs[static_cast<std::size_t>(v)]).phase)
          << "same-phase edge " << u << "->" << v;
    }
  }
}

class ThreePhaseEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(ThreePhaseEquivalence, MatchesFfStream) {
  RandomCircuitSpec spec;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 31 + 5;
  spec.num_ffs = 8 + GetParam() % 20;
  spec.num_gates = 30 + (GetParam() * 7) % 60;
  spec.enable_fraction = (GetParam() % 3) * 0.3;
  spec.feedback_fraction = (GetParam() % 4) * 0.15;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  const Stimulus stim = stimulus_for(ff, spec.seed);
  const OutputStream reference = run(ff, stim);

  const ThreePhaseResult r = to_three_phase(ff);
  EXPECT_TRUE(streams_equal(reference, run(r.netlist, stim)))
      << "3-phase mismatch, seed " << spec.seed;

  const Netlist ms = to_master_slave(ff);
  EXPECT_TRUE(streams_equal(reference, run(ms, stim)))
      << "master-slave mismatch, seed " << spec.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ThreePhaseEquivalence,
                         ::testing::Range(0, 30));

// --- p2 clock gating and M2 --------------------------------------------------

Netlist gated_three_phase(std::uint64_t seed, ThreePhaseResult* out = nullptr,
                          double enable_fraction = 0.9) {
  RandomCircuitSpec spec;
  spec.seed = seed;
  spec.enable_fraction = enable_fraction;
  spec.num_ffs = 24;
  spec.num_gates = 60;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
  ThreePhaseResult r = to_three_phase(ff);
  if (out) *out = r;
  return std::move(r.netlist);
}

TEST(P2Gating, GatesLatchesBehindCommonEnable) {
  Netlist nl = gated_three_phase(3);
  const P2GatingResult r = gate_p2_latches(nl);
  nl.validate();
  EXPECT_GT(r.p2_latches_gated, 0);
  EXPECT_GT(r.p2_cg_cells, 0);
  EXPECT_GT(nl.count_cells([](CellKind k) { return k == CellKind::kIcgM1; }),
            0u);
}

TEST(P2Gating, GatedDesignStaysEquivalent) {
  for (const std::uint64_t seed : {3u, 17u, 29u}) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.enable_fraction = 0.9;
    spec.num_ffs = 24;
    spec.num_gates = 60;
    Netlist ff = random_ff_circuit(spec);
    infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
    const Stimulus stim = stimulus_for(ff, seed);
    const OutputStream reference = run(ff, stim);

    ThreePhaseResult r = to_three_phase(ff);
    gate_p2_latches(r.netlist);
    EXPECT_TRUE(streams_equal(reference, run(r.netlist, stim)))
        << "seed " << seed;
    // Conventional-ICG variant (M1 ablation) must also be equivalent.
    ThreePhaseResult r2 = to_three_phase(ff);
    gate_p2_latches(r2.netlist, {.use_m1 = false});
    EXPECT_TRUE(streams_equal(reference, run(r2.netlist, stim)))
        << "no-M1, seed " << seed;
  }
}

TEST(M2, RemovesLatchesWhereLegalAndStaysEquivalent) {
  for (const std::uint64_t seed : {5u, 19u}) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.enable_fraction = 0.9;
    spec.num_ffs = 24;
    spec.num_gates = 60;
    Netlist ff = random_ff_circuit(spec);
    infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
    const Stimulus stim = stimulus_for(ff, seed);
    const OutputStream reference = run(ff, stim);

    ThreePhaseResult r = to_three_phase(ff);
    const M2Result m2 = apply_m2(r.netlist);
    EXPECT_GT(m2.converted + m2.kept, 0);
    EXPECT_TRUE(streams_equal(reference, run(r.netlist, stim)))
        << "seed " << seed;
  }
}

TEST(M2, IllegalRemovalCanBreakTheDesign) {
  // Force-removing the internal latch of *every* ICG (ignoring the legality
  // analysis) must be caught by simulation on at least some seeds: the
  // enable can then glitch the gated phase while it is high.
  int broken = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.enable_fraction = 0.9;
    spec.num_ffs = 24;
    spec.num_gates = 60;
    Netlist ff = random_ff_circuit(spec);
    infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
    const Stimulus stim = stimulus_for(ff, seed);
    const OutputStream reference = run(ff, stim);

    ThreePhaseResult r = to_three_phase(ff);
    int illegal = 0;
    for (const CellId id : r.netlist.live_cells()) {
      if (r.netlist.cell(id).kind == CellKind::kIcg) {
        // Count how many the legality analysis would have kept.
        bool same_phase = false;
        for (const CellId src : pin_fanin_sources(r.netlist, id, 0)) {
          if (source_phase(r.netlist, src) == r.netlist.cell(id).phase) {
            same_phase = true;
          }
        }
        illegal += same_phase;
        r.netlist.morph_cell(id, CellKind::kIcgNoLatch);
      }
    }
    if (illegal == 0) continue;  // nothing unsafe in this seed
    if (!streams_equal(reference, run(r.netlist, stim))) ++broken;
  }
  EXPECT_GT(broken, 0) << "forced M2 never broke any seed — the legality "
                          "analysis would be vacuous";
}

// --- DDCG ---------------------------------------------------------------------

TEST(Ddcg, GatesLowActivityLatchesAndStaysEquivalent) {
  for (const std::uint64_t seed : {7u, 23u}) {
    RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_ffs = 30;
    spec.num_gates = 50;
    Netlist ff = random_ff_circuit(spec);
    infer_clock_gating(ff);
    const Stimulus low_activity = [&] {
      Rng rng(seed);
      return random_stimulus(ff.data_inputs().size(), 96, rng, 0.02);
    }();
    const OutputStream reference = run(ff, low_activity);

    ThreePhaseResult r = to_three_phase(ff);
    // Measure activity on the converted design, then gate.
    Simulator sim(r.netlist);
    run_stream(sim, low_activity, 8);
    const DdcgResult d =
        apply_ddcg(r.netlist, sim.stats(), {.toggle_threshold = 0.2});
    r.netlist.validate();
    EXPECT_GT(d.latches_gated, 0) << "seed " << seed;
    EXPECT_LE(d.latches_gated, d.groups * 32);
    EXPECT_TRUE(streams_equal(reference, run(r.netlist, low_activity)))
        << "seed " << seed;
  }
}

TEST(Ddcg, RespectsMaxFanout) {
  RandomCircuitSpec spec;
  spec.num_ffs = 40;
  spec.num_gates = 40;
  Netlist ff = random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult r = to_three_phase(ff);
  Rng rng(1);
  Simulator sim(r.netlist);
  run_stream(sim, random_stimulus(r.netlist.data_inputs().size(), 64, rng,
                                  0.01),
             8);
  const DdcgResult d = apply_ddcg(r.netlist, sim.stats(),
                                  {.toggle_threshold = 1.0, .max_fanout = 4});
  for (const CellId id : r.netlist.live_cells()) {
    const Cell& cell = r.netlist.cell(id);
    if (is_icg(cell.kind) && cell.name.rfind("ddcg", 0) == 0) {
      int regs = 0;
      for (const PinRef& ref : r.netlist.net(cell.out).fanouts) {
        regs += is_register(r.netlist.cell(ref.cell).kind);
      }
      EXPECT_LE(regs, 4);
    }
  }
  EXPECT_GT(d.groups, 1);
}

}  // namespace
}  // namespace tp
