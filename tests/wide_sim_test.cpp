// Bit-identity contract of the 64-lane bit-parallel simulator
// (src/sim/wide_sim.hpp): lane i of a wide run must be bit-identical to a
// scalar run driven with stimulus stream i, and the wide ActivityStats
// must equal the per-lane scalar stats summed — across benchmarks, all
// four design styles (including ICG / M1 / M2 cells), transparent-latch
// init divergence, and nested clock events from illegal gating. Also the
// lane-0 VCD writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "src/circuits/benchmark.hpp"
#include "src/sim/stimulus.hpp"
#include "src/sim/wide_sim.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/ddcg.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/transform/pulsed_latch.hpp"

namespace tp {
namespace {

struct StyleNetlist {
  std::string label;
  Netlist netlist{"style"};
  int snapshot_event = 0;
};

/// The four design styles of one benchmark, built through the same
/// transforms the flow uses. The 3-phase variant carries kIcg, kIcgM1
/// (common-enable p2 gating with M1) and kIcgNoLatch (M2) cells.
std::vector<StyleNetlist> style_netlists(const circuits::Benchmark& bench) {
  std::vector<StyleNetlist> styles;
  {
    Netlist ff = bench.netlist;
    infer_clock_gating(ff);
    styles.push_back({"FF", std::move(ff), 0});
  }
  {
    Netlist ms = bench.netlist;
    infer_clock_gating(ms);
    styles.push_back({"M-S", to_master_slave(ms), 0});
  }
  {
    Netlist p3 = bench.netlist;
    infer_clock_gating(p3);
    ThreePhaseResult converted = to_three_phase(p3);
    p3 = std::move(converted.netlist);
    gate_p2_latches(p3);
    apply_m2(p3);
    styles.push_back({"3-P", std::move(p3), 1});
  }
  {
    Netlist pl = bench.netlist;
    infer_clock_gating(pl);
    PulsedLatchResult converted = to_pulsed_latch(pl);
    styles.push_back({"P-L", std::move(converted.netlist), 0});
  }
  return styles;
}

/// Independent per-lane stimuli (different seeds per lane).
std::vector<Stimulus> make_lanes(std::size_t lanes, std::size_t inputs,
                                 std::size_t cycles, std::uint64_t seed) {
  std::vector<Stimulus> result;
  result.reserve(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    Rng rng(seed + l);
    result.push_back(random_stimulus(inputs, cycles, rng));
  }
  return result;
}

/// Scalar reference: run every lane through a scalar Simulator,
/// concatenating streams lane-major and summing ActivityStats.
OutputStream scalar_reference(const Netlist& netlist, SimOptions options,
                              const std::vector<Stimulus>& lanes,
                              std::size_t warmup, ActivityStats* stats) {
  Simulator sim(netlist, options);
  OutputStream stream;
  stats->net_toggles.assign(netlist.num_nets(), 0);
  stats->cycles = 0;
  for (const Stimulus& lane : lanes) {
    OutputStream s = run_stream(sim, lane, warmup);
    for (auto& row : s) stream.push_back(std::move(row));
    for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
      stats->net_toggles[n] += sim.stats().net_toggles[n];
    }
    stats->cycles += sim.stats().cycles;
  }
  return stream;
}

/// The contract itself: streams equal, toggle counts equal net-by-net.
void expect_bit_identity(const Netlist& netlist, int snapshot_event,
                         std::size_t lane_count, std::size_t cycles,
                         std::uint64_t seed, std::size_t warmup = 2) {
  SimOptions options;
  options.snapshot_event = snapshot_event;
  const std::vector<Stimulus> lanes =
      make_lanes(lane_count, netlist.data_inputs().size(), cycles, seed);

  ActivityStats scalar_stats;
  const OutputStream scalar_stream =
      scalar_reference(netlist, options, lanes, warmup, &scalar_stats);

  WideSimulator wide(netlist, lane_count, options);
  const OutputStream wide_stream =
      run_wide_stream(wide, pack_stimulus(lanes), warmup);

  EXPECT_EQ(first_mismatch(scalar_stream, wide_stream), -1);
  EXPECT_EQ(wide.stats().cycles, scalar_stats.cycles);
  std::size_t mismatched_nets = 0;
  for (std::size_t n = 0; n < netlist.num_nets(); ++n) {
    if (wide.stats().net_toggles[n] != scalar_stats.net_toggles[n]) {
      ++mismatched_nets;
      if (mismatched_nets == 1) {
        ADD_FAILURE() << "net " << n << " toggles: scalar "
                      << scalar_stats.net_toggles[n] << ", wide "
                      << wide.stats().net_toggles[n];
      }
    }
  }
  EXPECT_EQ(mismatched_nets, 0u);
}

TEST(WideSimulator, BitIdenticalAcrossBenchmarksAndStyles) {
  // One lane is what every single-stimulus flow simulates.
  for (const char* name : {"s1196", "s1488"}) {
    const circuits::Benchmark bench = circuits::make_benchmark(name);
    for (const StyleNetlist& style : style_netlists(bench)) {
      for (const std::size_t lanes : {1, 5}) {
        SCOPED_TRACE(std::string(name) + "/" + style.label + "/" +
                     std::to_string(lanes) + " lane(s)");
        expect_bit_identity(style.netlist, style.snapshot_event, lanes,
                            /*cycles=*/24, /*seed=*/1000);
      }
    }
  }
}

TEST(WideSimulator, FullSixtyFourLaneWord) {
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  std::vector<StyleNetlist> styles = style_netlists(bench);
  // FF and 3-P at the full word width (lane_mask == ~0).
  expect_bit_identity(styles[0].netlist, styles[0].snapshot_event,
                      kMaxSimLanes, /*cycles=*/12, /*seed=*/4);
  expect_bit_identity(styles[2].netlist, styles[2].snapshot_event,
                      kMaxSimLanes, /*cycles=*/12, /*seed=*/4);
}

TEST(WideSimulator, TransparentLatchInitDivergence) {
  // A transparent-high latch whose init value disagrees with its settled D
  // exercises the reset-time reconciliation path (latches are enqueued at
  // reset so D != Q is resolved before the first cycle) in every lane.
  Netlist nl("latch_init");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId in = nl.add_input("in");
  const NetId q = nl.add_net("q");
  const CellId lat = nl.add_cell(CellKind::kLatchH, "lat",
                                 {nl.cell(in).out, clk_net}, q, Phase::kClk);
  nl.set_init(lat, true);
  const NetId qn = nl.add_net("qn");
  nl.add_cell(CellKind::kInv, "inv", {q}, qn, Phase::kNone);
  nl.add_output("out", qn);
  expect_bit_identity(nl, /*snapshot_event=*/0, /*lanes=*/3, /*cycles=*/10,
                      /*seed=*/9, /*warmup=*/0);
}

TEST(WideSimulator, NestedClockEventsFromIllegalGating) {
  // A latch-free ICG (M2 cell) whose enable is derived combinationally
  // from a register that toggles at the clock edge: the enable changes
  // while CK is high, so the gated clock rises in the middle of data
  // propagation — a nested clock event. Lanes diverge (the enable is data
  // dependent), so some lanes take the nested event and others do not.
  Netlist nl("nested");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  const CellId in = nl.add_input("in");
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kDff, "a", {nl.cell(in).out, clk_net}, qa,
              Phase::kClk);
  const NetId en = nl.add_net("en");
  nl.add_cell(CellKind::kInv, "en_inv", {qa}, en, Phase::kNone);
  const NetId gclk = nl.add_net("gclk");
  nl.add_cell(CellKind::kIcgNoLatch, "icg", {en, clk_net}, gclk,
              Phase::kClk);
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kDff, "b", {qa, gclk}, qb, Phase::kClk);
  nl.add_output("out", qb);
  expect_bit_identity(nl, /*snapshot_event=*/0, /*lanes=*/4, /*cycles=*/16,
                      /*seed=*/21, /*warmup=*/0);
}

TEST(WideSimulator, DdcgGroupsIdenticalFromScalarAndWideActivity) {
  // The flow feeds simulation activity into multi-bit DDCG grouping; the
  // summed-over-lanes contract must make wide activity a drop-in
  // replacement — same groups, same gated latches, same resulting netlist
  // size.
  const circuits::Benchmark bench = circuits::make_benchmark("s5378");
  Netlist p3 = bench.netlist;
  infer_clock_gating(p3);
  ThreePhaseResult converted = to_three_phase(p3);
  p3 = std::move(converted.netlist);
  gate_p2_latches(p3);
  apply_m2(p3);

  SimOptions options;
  options.snapshot_event = 1;
  const std::vector<Stimulus> lanes =
      make_lanes(4, p3.data_inputs().size(), 48, 77);

  ActivityStats scalar_stats;
  scalar_reference(p3, options, lanes, /*warmup=*/4, &scalar_stats);

  WideSimulator wide(p3, lanes.size(), options);
  run_wide_stream(wide, pack_stimulus(lanes), /*warmup=*/4);

  Netlist from_scalar = p3;
  Netlist from_wide = p3;
  const DdcgResult a = apply_ddcg(from_scalar, scalar_stats);
  const DdcgResult b = apply_ddcg(from_wide, wide.stats());
  EXPECT_EQ(a.groups, b.groups);
  EXPECT_EQ(a.latches_gated, b.latches_gated);
  EXPECT_EQ(a.xor_cells, b.xor_cells);
  EXPECT_EQ(from_scalar.num_cells(), from_wide.num_cells());
  EXPECT_EQ(from_scalar.num_nets(), from_wide.num_nets());
}

TEST(WideSimulator, VcdDumpIsWellFormed) {
  // Two-stage FF shift chain, period 1000 ps: events at 0 and 500.
  Netlist nl("ff_chain");
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(1000, clk_net);
  NetId d = nl.cell(nl.add_input("in")).out;
  for (int i = 0; i < 2; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    nl.add_cell(CellKind::kDff, "ff" + std::to_string(i), {d, clk_net}, q,
                Phase::kClk);
    d = q;
  }
  nl.add_output("out", d);

  WideSimulator sim(nl, 1);
  std::ostringstream vcd;
  sim.start_vcd(vcd);
  for (const std::uint64_t bit : {1, 0, 1, 1}) {
    const std::vector<std::uint64_t> pi{bit};
    sim.step(pi);
  }
  sim.stop_vcd();
  const std::string text = vcd.str();
  EXPECT_NE(text.find("$timescale 1ps $end"), std::string::npos);
  EXPECT_NE(text.find("$enddefinitions $end"), std::string::npos);
  EXPECT_NE(text.find("$var wire 1 "), std::string::npos);
  // One timestep marker per event per cycle.
  EXPECT_NE(text.find("#0"), std::string::npos);
  EXPECT_NE(text.find("#500"), std::string::npos);
  EXPECT_NE(text.find("#3500"), std::string::npos);
  // Value-change lines reference declared identifiers.
  EXPECT_NE(text.find("\n1"), std::string::npos);
  EXPECT_NE(text.find("\n0"), std::string::npos);
}

/// Splits a VCD into its header and its value changes: one entry per
/// timestep in file order, the changes written before the first timestep
/// (reset settling) first. Each entry is its '#' line followed by that
/// step's changes, sorted — the order among simultaneous changes is not
/// part of the waveform.
std::vector<std::vector<std::string>> vcd_steps(const std::string& text,
                                                std::string* header) {
  const std::size_t body = text.find("$end\n", text.find("$dumpvars")) + 5;
  *header = text.substr(0, body);
  std::vector<std::vector<std::string>> steps(1);
  std::istringstream in(text.substr(body));
  for (std::string line; std::getline(in, line);) {
    if (line.starts_with('#')) steps.emplace_back();
    steps.back().push_back(line);
  }
  for (std::size_t i = 0; i < steps.size(); ++i) {
    std::sort(steps[i].begin() + (i == 0 ? 0 : 1), steps[i].end());
  }
  return steps;
}

TEST(WideSimulator, VcdLaneZeroMatchesOneLaneRun) {
  // The flow dumps lane 0 of a multi-lane run; its waveform must be the
  // one a one-lane run of the same stimulus writes, timestep by timestep.
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  for (const StyleNetlist& style : style_netlists(bench)) {
    SCOPED_TRACE(style.label);
    SimOptions options;
    options.snapshot_event = style.snapshot_event;
    const std::vector<Stimulus> lanes = make_lanes(
        4, style.netlist.data_inputs().size(), /*cycles=*/12, /*seed=*/55);
    const auto dump = [&](std::span<const Stimulus> run) {
      WideSimulator sim(style.netlist, run.size(), options);
      std::ostringstream vcd;
      sim.start_vcd(vcd);
      run_wide_stream(sim, pack_stimulus(run), /*warmup=*/2);
      return vcd.str();
    };
    std::string one_header, four_header;
    const auto one = vcd_steps(dump({lanes.data(), 1}), &one_header);
    const auto four = vcd_steps(dump(lanes), &four_header);
    EXPECT_EQ(one_header, four_header);
    ASSERT_EQ(one.size(), four.size());
    EXPECT_GT(one.size(), 12u);
    for (std::size_t i = 0; i < one.size(); ++i) {
      EXPECT_EQ(one[i], four[i]) << "timestep entry " << i;
    }
  }
}

TEST(WideSimulator, PackStimulusValidatesShape) {
  std::vector<Stimulus> lanes(2);
  lanes[0] = {{1, 0}, {0, 1}};
  lanes[1] = {{0, 0}};  // wrong cycle count
  EXPECT_THROW(pack_stimulus(lanes), Error);
  lanes[1] = {{0, 0, 1}, {1, 1, 1}};  // wrong input count
  EXPECT_THROW(pack_stimulus(lanes), Error);
  EXPECT_THROW(WideSimulator(circuits::make_benchmark("s1196").netlist, 65),
               Error);
}

}  // namespace
}  // namespace tp
