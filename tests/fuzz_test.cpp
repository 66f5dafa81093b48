// Breadth/robustness fuzzing across module boundaries: Verilog round-trips
// of converted designs, structural mutation consistency, error paths, and
// cross-checks that are cheap to run over many random seeds.
#include <gtest/gtest.h>

#include "src/circuits/benchmark.hpp"
#include "src/cts/cts.hpp"
#include "src/flow/backend.hpp"
#include "src/flow/serialize.hpp"
#include "src/netlist/verilog.hpp"
#include "src/phase/schedule.hpp"
#include "src/sim/stimulus.hpp"
#include "src/timing/incremental.hpp"
#include "src/timing/sta.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/retime/retime.hpp"
#include "tests/test_circuits.hpp"

namespace tp::flow {
// gtest prints a pointer parameter as its address, which differs on every
// build and would leak into the test names ctest discovers; print the
// backend's stable token instead (found by ADL from the pointee's namespace).
void PrintTo(const ConversionBackend* backend, std::ostream* os) {
  *os << backend->token();
}
}  // namespace tp::flow

namespace tp {
namespace {

const CellLibrary& lib() { return CellLibrary::nominal_28nm(); }

class RoundTripFuzz : public ::testing::TestWithParam<int> {};

TEST_P(RoundTripFuzz, ConvertedDesignsSurviveVerilog) {
  testing::RandomCircuitSpec spec;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 71 + 3;
  spec.num_ffs = 8 + GetParam() % 16;
  spec.num_gates = 30 + (GetParam() * 11) % 50;
  spec.enable_fraction = (GetParam() % 2) * 0.6;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff, {.style = CgStyle::kGated, .min_icg_group = 1});
  ThreePhaseResult converted = to_three_phase(ff);
  retime_inserted_latches(converted.netlist, lib());

  const Netlist parsed =
      read_verilog_string(to_verilog(converted.netlist));
  parsed.validate();
  Rng rng(spec.seed);
  const Stimulus stim =
      random_stimulus(ff.data_inputs().size(), 48, rng, 0.4);
  Simulator a(converted.netlist), b(parsed);
  EXPECT_TRUE(streams_equal(run_stream(a, stim, 8), run_stream(b, stim, 8)))
      << "seed " << spec.seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz, ::testing::Range(0, 20));

TEST(ErrorPaths, ConversionRejectsMultiClockInput) {
  // A converted (3-phase) design cannot be converted again.
  testing::RandomCircuitSpec spec;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult converted = to_three_phase(ff);
  EXPECT_THROW(to_three_phase(converted.netlist), Error);
  EXPECT_THROW(to_master_slave(converted.netlist), Error);
}

TEST(ErrorPaths, SimulatorRejectsClocklessNetlist) {
  Netlist nl("noclk");
  const CellId a = nl.add_input("a");
  nl.add_output("o", nl.cell(a).out);
  EXPECT_THROW(Simulator{nl}, Error);
}

TEST(ErrorPaths, RemoveDrivenNetRejected) {
  Netlist nl("x");
  const CellId a = nl.add_input("a");
  EXPECT_THROW(nl.remove_net(nl.cell(a).out), Error);
}

TEST(MinPeriod, ThreePhaseTracksFfWithinBorrowingBounds) {
  // C3 in min-period form: the 3-phase design's minimum period must stay
  // within a modest factor of the FF design's.
  for (const std::uint64_t seed : {4u, 12u}) {
    testing::RandomCircuitSpec spec;
    spec.seed = seed;
    spec.num_ffs = 16;
    spec.num_gates = 60;
    spec.period_ps = 3000;
    Netlist ff = testing::random_ff_circuit(spec);
    infer_clock_gating(ff);
    ThreePhaseResult converted = to_three_phase(ff);
    retime_inserted_latches(converted.netlist, lib());

    const MinPeriodResult ff_min = find_min_period(ff, lib(), 100, 6000);
    const MinPeriodResult p3_min =
        find_min_period(converted.netlist, lib(), 100, 6000);
    ASSERT_TRUE(ff_min.feasible) << "seed " << seed;
    ASSERT_TRUE(p3_min.feasible) << "seed " << seed;
    EXPECT_LE(p3_min.period_ps, 2 * ff_min.period_ps) << "seed " << seed;
    EXPECT_LE(p3_min.period_ps, 3000)
        << "seed " << seed;  // meets the design period
  }
}

TEST(MinPeriod, SkewedScheduleCanBeatUniform) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 20;
  spec.num_gates = 80;
  Netlist ff = testing::random_ff_circuit(spec);
  infer_clock_gating(ff);
  ThreePhaseResult converted = to_three_phase(ff);
  retime_inserted_latches(converted.netlist, lib());
  const ScheduleExploration e =
      explore_phase_schedule(converted.netlist, lib(), 8);
  Netlist best = converted.netlist;
  apply_phase_schedule(best, e.best.e1_ps, e.best.e2_ps);
  const MinPeriodResult skewed = find_min_period(best, lib(), 100, 6000);
  const MinPeriodResult flat =
      find_min_period(converted.netlist, lib(), 100, 6000);
  ASSERT_TRUE(skewed.feasible);
  ASSERT_TRUE(flat.feasible);
  EXPECT_LE(skewed.period_ps, flat.period_ps);
}

TEST(OutputTiming, PoSetupCheckCatchesSlowCones) {
  Netlist nl("po");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  nl.clocks() = single_phase_spec(600, nl.cell(clk).out);
  const CellId in = nl.add_input("in");
  const NetId q = nl.add_net("q");
  nl.add_cell(CellKind::kDff, "ff", {nl.cell(in).out, nl.cell(clk).out}, q,
              Phase::kClk);
  NetId d = q;
  for (int i = 0; i < 30; ++i) {
    d = nl.cell(nl.add_gate(CellKind::kInv, "i" + std::to_string(i), {d}))
            .out;
  }
  nl.add_output("slow", d);

  TimingOptions no_po;           // default: PO timing disabled
  EXPECT_TRUE(check_timing(nl, lib(), no_po).setup_ok);
  TimingOptions with_po;
  with_po.output_setup_ps = 50;  // ~720 ps cone into a 600 ps cycle
  EXPECT_FALSE(check_timing(nl, lib(), with_po).setup_ok);
}

class BackendRegistryFuzz
    : public ::testing::TestWithParam<const flow::ConversionBackend*> {};

// The fuzz grid draws its backend list from the registry itself, so a
// newly registered backend is fuzzed without touching this file.
TEST_P(BackendRegistryFuzz, TokenRoundTripsAndConvertsRandomCircuits) {
  const flow::ConversionBackend* backend = GetParam();
  SCOPED_TRACE(std::string(backend->token()));
  // Token <-> style mapping is the registry's contract with every CLI and
  // the serve protocol.
  EXPECT_EQ(flow::find_backend(backend->token()), backend);
  flow::DesignStyle style;
  ASSERT_TRUE(flow::style_from_name(backend->token(), &style));
  EXPECT_EQ(style, backend->id());
  EXPECT_FALSE(backend->rule_set().empty());

  for (int trial = 0; trial < 3; ++trial) {
    testing::RandomCircuitSpec spec;
    spec.seed = 977 + static_cast<std::uint64_t>(backend->id()) * 131 +
                static_cast<std::uint64_t>(trial) * 17;
    spec.num_ffs = 6 + trial * 5;
    spec.num_gates = 24 + trial * 13;
    Netlist nl = testing::random_ff_circuit(spec);
    infer_clock_gating(nl);
    const flow::FlowOptions options = flow::FlowOptions::fast();
    flow::FlowResult scratch;
    flow::FlowContext ctx{
        .netlist = nl,
        .options = options,
        .library = lib(),
        .result = scratch,
        .checkpoint = [](std::string_view) {},
        .activity = [] { return ActivityStats{}; },
    };
    backend->convert(ctx);
    nl.validate();
    // Round-trip through the Verilog writer/parser (the writer renames
    // output ports, so the gate is structural validity plus matching
    // sequential population, not byte-identical text).
    const Netlist parsed = read_verilog_string(to_verilog(nl));
    parsed.validate();
    EXPECT_EQ(parsed.registers().size(), nl.registers().size())
        << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, BackendRegistryFuzz,
    ::testing::ValuesIn(flow::backend_registry()),
    [](const ::testing::TestParamInfo<const flow::ConversionBackend*>&
           info) { return std::string(info.param->token()); });

TEST(Determinism, GeneratedCircuitsAndFlowsAreStable) {
  // Same benchmark, same stimulus: identical netlist text across calls.
  const Netlist a = circuits::make_iscas("s1238", 1000);
  const Netlist b = circuits::make_iscas("s1238", 1000);
  EXPECT_EQ(to_verilog(a), to_verilog(b));
}

TEST(Determinism, CtsIsDeterministic) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 60;
  Netlist nl = testing::random_ff_circuit(spec);
  infer_clock_gating(nl);
  const Placement p1 = place(nl, lib());
  const Placement p2 = place(nl, lib());
  const ClockTreeReport a = synthesize_clock_trees(nl, p1);
  const ClockTreeReport b = synthesize_clock_trees(nl, p2);
  EXPECT_EQ(a.total_buffers, b.total_buffers);
  EXPECT_DOUBLE_EQ(a.total_wire_um, b.total_wire_um);
}

}  // namespace
}  // namespace tp
