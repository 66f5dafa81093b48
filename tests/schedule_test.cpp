#include <gtest/gtest.h>

#include "src/phase/schedule.hpp"
#include "src/timing/report.hpp"
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

ThreePhaseResult converted(std::uint64_t seed = 1) {
  testing::RandomCircuitSpec spec;
  spec.seed = seed;
  spec.num_ffs = 18;
  spec.num_gates = 60;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  return to_three_phase(ff);
}

TEST(Schedule, ApplyRewritesWaveforms) {
  ThreePhaseResult r = converted();
  apply_phase_schedule(r.netlist, 500, 2200);
  const ClockSpec& clocks = r.netlist.clocks();
  EXPECT_EQ(clocks.find(Phase::kP1)->fall_ps, 500);
  EXPECT_EQ(clocks.find(Phase::kP2)->rise_ps, 500);
  EXPECT_EQ(clocks.find(Phase::kP2)->fall_ps, 2200);
  EXPECT_EQ(clocks.find(Phase::kP3)->rise_ps, 2200);
  EXPECT_EQ(clocks.find(Phase::kP3)->fall_ps, clocks.period_ps);
}

TEST(Schedule, RejectsUnorderedEdges) {
  ThreePhaseResult r = converted();
  EXPECT_THROW(apply_phase_schedule(r.netlist, 2000, 1000), Error);
  EXPECT_THROW(apply_phase_schedule(r.netlist, 0, 1000), Error);
  EXPECT_THROW(apply_phase_schedule(r.netlist, 1000, 3000), Error);
}

TEST(Schedule, RejectsNonThreePhase) {
  testing::RandomCircuitSpec spec;
  Netlist ff = testing::random_ff_circuit(spec);
  EXPECT_THROW(apply_phase_schedule(ff, 500, 1000), Error);
}

TEST(Schedule, BestIsAtLeastUniform) {
  for (const std::uint64_t seed : {1u, 5u, 9u}) {
    ThreePhaseResult r = converted(seed);
    const ScheduleExploration e =
        explore_phase_schedule(r.netlist, lib(), 8);
    EXPECT_GE(e.best.worst_setup_slack_ps,
              e.uniform.worst_setup_slack_ps)
        << "seed " << seed;
    EXPECT_FALSE(e.samples.empty());
  }
}

TEST(Schedule, SkewedScheduleStaysFunctionallyEquivalent) {
  // Any legal schedule preserves function: windows stay ordered and
  // non-overlapping, so the stream comparison must still hold.
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 16;
  spec.num_gates = 50;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult r = to_three_phase(ff);

  Rng rng(7);
  const Stimulus stim = random_stimulus(ff.data_inputs().size(), 96, rng,
                                        0.4);
  Simulator ff_sim(ff);
  const OutputStream reference = run_stream(ff_sim, stim, 8);

  for (const auto& [e1, e2] : {std::pair<std::int64_t, std::int64_t>{400,
                                                                     1700},
                               {1200, 2400},
                               {900, 1400}}) {
    Netlist skewed = r.netlist;
    apply_phase_schedule(skewed, e1, e2);
    Simulator sim(skewed);
    EXPECT_TRUE(streams_equal(reference, run_stream(sim, stim, 8)))
        << "e1=" << e1 << " e2=" << e2;
  }
}

TEST(TimingProfile, ReportsEndpointsAndHistogram) {
  ThreePhaseResult r = converted();
  const TimingProfile profile = profile_timing(r.netlist, lib());
  EXPECT_EQ(profile.endpoints.size(), r.netlist.registers().size());
  // Sorted ascending by setup slack.
  for (std::size_t i = 1; i < profile.endpoints.size(); ++i) {
    EXPECT_LE(profile.endpoints[i - 1].setup_slack_ps,
              profile.endpoints[i].setup_slack_ps);
  }
  int histogram_total = 0;
  for (const int c : profile.histogram.counts) histogram_total += c;
  EXPECT_EQ(histogram_total,
            static_cast<int>(profile.endpoints.size()));
  const std::string text = format_profile(profile, 5);
  EXPECT_NE(text.find("worst endpoints"), std::string::npos);
  EXPECT_NE(text.find("slack histogram"), std::string::npos);
}

}  // namespace
}  // namespace tp
