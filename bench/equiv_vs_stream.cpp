// SEC versus stream comparison as a conversion-validation method.
//
// The paper validates conversions by "streaming inputs ... and comparing
// output streams" for some number of cycles. That check is only as strong as
// the stream is long: a fault behind a rarely-enabled register bank can stay
// silent for thousands of cycles. This bench seeds single-point mutations
// into a converted 3-phase design and pits N-cycle stream comparison
// (N = 16 / 64 / 256) against the sequential equivalence checker, reporting
// detection rates and wall-clock cost per method. A 5000-cycle stream serves
// as the ground truth for whether a mutation is observable at all (some
// latch re-phasings are genuinely behavior-preserving).
//
// With --lanes L >= 2 each stream length also gets a bit-parallel row: L
// independent N-cycle stimuli (lane 0 reuses the scalar row's stream) are
// packed into one WideSimulator pass per mutant, with the golden wide
// stream simulated once per stream length and shared across mutants. That
// buys L streams of coverage for roughly one run's wall clock.
//
// Exit status 1 when SEC misses a mutation the ground-truth stream
// observes: SEC's detection rate is a gate, not just a printed row.
//
// --out FILE writes every row as JSON: detection counts and wall time per
// method, plus SEC's summed SAT calls, conflicts, decisions and
// propagations.
//
//   $ ./bench/equiv_vs_stream [circuit] [mutations] [--lanes L] [--out FILE]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "src/circuits/benchmark.hpp"
#include "src/equiv/cex.hpp"
#include "src/equiv/sec.hpp"
#include "src/flow/matrix.hpp"  // flow::lane_seed
#include "src/sim/stimulus.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/util/argparse.hpp"
#include "src/util/json.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"

using namespace tp;

namespace {

constexpr std::size_t kGroundTruthCycles = 5000;
constexpr std::size_t kStreamLengths[] = {16, 64, 256};

struct Mutation {
  std::string label;
  Netlist netlist{"mutant"};
};

/// Single-point mutations: latch re-phasings (the realistic conversion bug:
/// a register assigned to the wrong phase) and input swaps on asymmetric
/// gates (mux data legs, the single leg of AOI/OAI cells) — swaps on
/// commutative gates would be no-ops.
std::vector<Mutation> seed_mutations(const Netlist& base, std::size_t count,
                                     Rng& rng) {
  std::vector<CellId> latches, gates;
  for (const CellId id : base.live_cells()) {
    const Cell& cell = base.cell(id);
    if (is_latch(cell.kind) &&
        (cell.phase == Phase::kP1 || cell.phase == Phase::kP3)) {
      latches.push_back(id);
    } else if (cell.kind == CellKind::kMux2 ||
               cell.kind == CellKind::kAoi21 ||
               cell.kind == CellKind::kOai21) {
      gates.push_back(id);
    }
  }
  std::vector<Mutation> mutations;
  for (std::size_t k = 0; k < count; ++k) {
    Mutation m;
    m.netlist = base;
    if ((k % 2 == 0 && !latches.empty()) || gates.empty()) {
      const CellId id = latches[rng.below(latches.size())];
      const Phase flipped = m.netlist.cell(id).phase == Phase::kP1
                                ? Phase::kP3
                                : Phase::kP1;
      m.netlist.set_phase(id, flipped);
      m.netlist.replace_input(id, 1, m.netlist.clocks().root(flipped));
      m.label = "latch-rephase " + base.cell(id).name;
    } else {
      const CellId id = gates[rng.below(gates.size())];
      // Mux: swap the data legs (select is pin 2). AOI/OAI !(a&b | c) /
      // !((a|b) & c): swap one AND/OR leg with the lone leg.
      const bool is_mux = m.netlist.cell(id).kind == CellKind::kMux2;
      const std::uint32_t pa = is_mux ? 0u : 1u;
      const std::uint32_t pb = is_mux ? 1u : 2u;
      const NetId a = m.netlist.cell(id).ins[pa];
      const NetId b = m.netlist.cell(id).ins[pb];
      if (a != b) {
        m.netlist.replace_input(id, pa, b);
        m.netlist.replace_input(id, pb, a);
      }
      m.label = "input-swap " + base.cell(id).name;
    }
    mutations.push_back(std::move(m));
  }
  return mutations;
}

/// One method's results over all mutations.
struct Row {
  std::string method;
  std::size_t detected = 0, missed = 0, false_positive = 0;
  std::size_t beyond = 0;  // confirmed divergences past the truth horizon
  std::size_t unknown = 0;
  double wall_s = 0;
  // SEC only, summed over every proof.
  std::int64_t sat_calls = 0, sat_conflicts = 0;
  std::int64_t sat_decisions = 0, sat_propagations = 0;
};

bool write_json(const std::string& path, const std::string& circuit,
                std::size_t mutations, std::size_t observable,
                const std::vector<Row>& rows) {
  util::JsonWriter w;
  w.begin_object();
  w.key("bench").value("equiv_vs_stream");
  w.key("circuit").value(circuit);
  w.key("mutations").value(static_cast<std::uint64_t>(mutations));
  w.key("observable").value(static_cast<std::uint64_t>(observable));
  w.key("methods").begin_array();
  for (const Row& row : rows) {
    w.begin_object();
    w.key("method").value(row.method);
    w.key("detected").value(static_cast<std::uint64_t>(row.detected));
    w.key("missed").value(static_cast<std::uint64_t>(row.missed));
    w.key("false_positive")
        .value(static_cast<std::uint64_t>(row.false_positive));
    w.key("beyond_horizon").value(static_cast<std::uint64_t>(row.beyond));
    w.key("wall_s").value(row.wall_s);
    if (row.method == "SEC") {
      w.key("unknown").value(static_cast<std::uint64_t>(row.unknown));
      w.key("sat_calls").value(row.sat_calls);
      w.key("sat_conflicts").value(row.sat_conflicts);
      w.key("sat_decisions").value(row.sat_decisions);
      w.key("sat_propagations").value(row.sat_propagations);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream out(path);
  out << w.take() << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("\nwrote %s\n", path.c_str());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positionals;
  std::size_t lanes = 16;
  std::string out_file;
  util::ArgParser parser(
      "equiv_vs_stream",
      "pit N-cycle stream comparison (scalar and bit-parallel) against "
      "sequential equivalence checking on seeded conversion faults");
  parser.add_positionals(&positionals, "[circuit] [mutations]",
                         "benchmark name (default s5378) and mutation "
                         "count (default 20)");
  parser.add_value("--lanes", &lanes,
                   "bit-parallel stimulus lanes for the wide rows, 1-64; "
                   "1 disables them (default 16)");
  parser.add_value("--out", &out_file,
                   "write the rows as JSON to FILE (default: none)", "FILE");
  parser.parse_or_exit(argc, argv);
  if (lanes < 1 || lanes > kMaxSimLanes || positionals.size() > 2) {
    std::fprintf(stderr,
                 "--lanes must be in [1, 64] and at most 2 operands\n%s",
                 parser.usage().c_str());
    return 2;
  }
  const std::string circuit = !positionals.empty() ? positionals[0] : "s5378";
  const std::size_t count =
      positionals.size() > 1
          ? static_cast<std::size_t>(std::atoi(positionals[1].c_str()))
          : 20;

  const circuits::Benchmark bench = circuits::make_benchmark(circuit);
  const Netlist& golden = bench.netlist;
  Netlist converted = golden;
  infer_clock_gating(converted);
  ThreePhaseResult p3 = to_three_phase(converted);
  converted = std::move(p3.netlist);
  gate_p2_latches(converted);
  apply_m2(converted);

  Rng rng(2026);
  const std::vector<Mutation> mutations =
      seed_mutations(converted, count, rng);

  // Ground truth: which mutations are observable at all?
  const std::size_t num_inputs = golden.data_inputs().size();
  Rng stim_rng(777);
  const Stimulus truth_stim =
      random_stimulus(num_inputs, kGroundTruthCycles, stim_rng);
  const OutputStream golden_truth =
      equiv::simulate_outputs(golden, truth_stim);

  std::size_t breaking = 0;
  std::vector<bool> is_breaking(mutations.size());
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const OutputStream mutant_truth =
        equiv::simulate_outputs(mutations[k].netlist, truth_stim);
    is_breaking[k] = first_mismatch(golden_truth, mutant_truth) >= 0;
    breaking += is_breaking[k];
  }
  std::printf("%s: %zu mutations, %zu observable within %zu cycles\n\n",
              circuit.c_str(), mutations.size(), breaking,
              kGroundTruthCycles);
  std::printf("%-12s %9s %9s %9s %11s\n", "method", "detected", "missed",
              "false+", "time/run");

  std::vector<Row> rows;
  const auto print_row = [&](const Row& row) {
    std::printf("%-12s %6zu/%-2zu %9zu %9zu %9.3f s", row.method.c_str(),
                row.detected, breaking, row.missed, row.false_positive,
                row.wall_s / static_cast<double>(count));
    if (row.beyond) {
      std::printf("   (+%zu confirmed beyond the truth horizon)", row.beyond);
    }
    if (row.unknown) std::printf("   (%zu unknown)", row.unknown);
    std::printf("\n");
  };

  // N-cycle stream comparison.
  for (const std::size_t cycles : kStreamLengths) {
    Row row;
    row.method = "stream-" + std::to_string(cycles);
    Stopwatch watch;
    for (std::size_t k = 0; k < mutations.size(); ++k) {
      Rng r(31 + cycles);
      const Stimulus stim = random_stimulus(num_inputs, cycles, r);
      const OutputStream a = equiv::simulate_outputs(golden, stim);
      const OutputStream b =
          equiv::simulate_outputs(mutations[k].netlist, stim);
      const bool flagged = first_mismatch(a, b) >= 0;
      row.detected += flagged && is_breaking[k];
      row.missed += !flagged && is_breaking[k];
      row.false_positive += flagged && !is_breaking[k];
    }
    row.wall_s = watch.seconds();
    print_row(row);
    rows.push_back(std::move(row));
  }

  // Bit-parallel stream comparison: `lanes` independent N-cycle stimuli per
  // wide pass, lane 0 replaying the scalar row's stream. The golden wide
  // stream is computed once per stream length and reused for every mutant,
  // so time/run amortizes it. A lane that diverges on a mutation the
  // 5000-cycle truth stream never exposed is a genuine divergence (the wide
  // engine is bit-identical to the scalar one), reported like SEC's
  // beyond-horizon finds rather than as a false positive.
  if (lanes >= 2) {
    for (const std::size_t cycles : kStreamLengths) {
      std::vector<Stimulus> stims;
      stims.reserve(lanes);
      for (std::size_t l = 0; l < lanes; ++l) {
        Rng r(flow::lane_seed(31 + cycles, l));
        stims.push_back(random_stimulus(num_inputs, cycles, r));
      }
      const WideStimulus packed = pack_stimulus(stims);

      Row row;
      row.method =
          "wide-" + std::to_string(cycles) + "x" + std::to_string(lanes);
      Stopwatch watch;
      WideSimulator golden_sim(golden, lanes);
      const OutputStream a = run_wide_stream(golden_sim, packed, 0);
      for (std::size_t k = 0; k < mutations.size(); ++k) {
        WideSimulator mutant_sim(mutations[k].netlist, lanes);
        const OutputStream b = run_wide_stream(mutant_sim, packed, 0);
        const bool flagged = first_mismatch(a, b) >= 0;
        row.detected += flagged && is_breaking[k];
        row.missed += !flagged && is_breaking[k];
        row.beyond += flagged && !is_breaking[k];
      }
      row.wall_s = watch.seconds();
      print_row(row);
      rows.push_back(std::move(row));
    }
  }

  // Sequential equivalence checking. A falsification on a mutant the ground
  // truth calls "unobservable" is not a false alarm: the cex is replayed on
  // the reference simulator before SEC reports it, so it found a divergence
  // beyond the 5000-cycle horizon (or off the sampled stimulus path).
  Row sec;
  sec.method = "SEC";
  Stopwatch watch;
  for (std::size_t k = 0; k < mutations.size(); ++k) {
    const equiv::SecResult r =
        equiv::check_sequential_equivalence(golden, mutations[k].netlist);
    const bool flagged =
        r.status == equiv::SecStatus::kFalsified && r.cex.confirmed;
    sec.unknown += r.status == equiv::SecStatus::kUnknown;
    sec.detected += flagged && is_breaking[k];
    sec.missed += !flagged && is_breaking[k];
    sec.beyond += flagged && !is_breaking[k];
    sec.sat_calls += r.stats.sat_calls;
    sec.sat_conflicts += r.stats.sat_conflicts;
    sec.sat_decisions += r.stats.sat_decisions;
    sec.sat_propagations += r.stats.sat_propagations;
  }
  sec.wall_s = watch.seconds();
  print_row(sec);
  rows.push_back(sec);
  if (!out_file.empty() &&
      !write_json(out_file, circuit, mutations.size(), breaking, rows)) {
    return 1;
  }
  if (sec.missed > 0) {
    std::fprintf(stderr,
                 "SEC gate: missed %zu mutation(s) the %zu-cycle ground "
                 "truth observes\n",
                 sec.missed, kGroundTruthCycles);
    return 1;
  }
  return 0;
}
