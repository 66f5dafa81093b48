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
//   $ ./bench/equiv_vs_stream [circuit] [mutations] [--lanes L]
#include <cstdio>
#include <cstdlib>
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

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positionals;
  std::size_t lanes = 16;
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

  // N-cycle stream comparison.
  for (const std::size_t cycles : kStreamLengths) {
    std::size_t detected = 0, missed = 0, false_positive = 0;
    Stopwatch watch;
    for (std::size_t k = 0; k < mutations.size(); ++k) {
      Rng r(31 + cycles);
      const Stimulus stim = random_stimulus(num_inputs, cycles, r);
      const OutputStream a = equiv::simulate_outputs(golden, stim);
      const OutputStream b =
          equiv::simulate_outputs(mutations[k].netlist, stim);
      const bool flagged = first_mismatch(a, b) >= 0;
      detected += flagged && is_breaking[k];
      missed += !flagged && is_breaking[k];
      false_positive += flagged && !is_breaking[k];
    }
    const double per_run = watch.seconds() / static_cast<double>(count);
    std::printf("stream-%-5zu %6zu/%-2zu %9zu %9zu %9.3f s\n", cycles,
                detected, breaking, missed, false_positive, per_run);
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

      std::size_t detected = 0, missed = 0, beyond = 0;
      Stopwatch watch;
      WideSimulator golden_sim(golden, lanes);
      const OutputStream a = run_wide_stream(golden_sim, packed, 0);
      for (std::size_t k = 0; k < mutations.size(); ++k) {
        WideSimulator mutant_sim(mutations[k].netlist, lanes);
        const OutputStream b = run_wide_stream(mutant_sim, packed, 0);
        const bool flagged = first_mismatch(a, b) >= 0;
        detected += flagged && is_breaking[k];
        missed += !flagged && is_breaking[k];
        beyond += flagged && !is_breaking[k];
      }
      const double per_run = watch.seconds() / static_cast<double>(count);
      char label[32];
      std::snprintf(label, sizeof(label), "wide-%zux%zu", cycles, lanes);
      std::printf("%-12s %6zu/%-2zu %9zu %9zu %9.3f s", label, detected,
                  breaking, missed, std::size_t{0}, per_run);
      if (beyond) {
        std::printf("   (+%zu confirmed beyond the truth horizon)", beyond);
      }
      std::printf("\n");
    }
  }

  // Sequential equivalence checking. A falsification on a mutant the ground
  // truth calls "unobservable" is not a false alarm: the cex is replayed on
  // the reference simulator before SEC reports it, so it found a divergence
  // beyond the 5000-cycle horizon (or off the sampled stimulus path).
  std::size_t sec_missed = 0;
  {
    std::size_t detected = 0, missed = 0, beyond = 0, unknown = 0;
    Stopwatch watch;
    for (std::size_t k = 0; k < mutations.size(); ++k) {
      const equiv::SecResult r =
          equiv::check_sequential_equivalence(golden, mutations[k].netlist);
      const bool flagged =
          r.status == equiv::SecStatus::kFalsified && r.cex.confirmed;
      unknown += r.status == equiv::SecStatus::kUnknown;
      detected += flagged && is_breaking[k];
      missed += !flagged && is_breaking[k];
      beyond += flagged && !is_breaking[k];
    }
    const double per_run = watch.seconds() / static_cast<double>(count);
    std::printf("SEC          %6zu/%-2zu %9zu %9zu %9.3f s", detected,
                breaking, missed, std::size_t{0}, per_run);
    if (beyond) {
      std::printf("   (+%zu confirmed beyond the truth horizon)", beyond);
    }
    if (unknown) std::printf("   (%zu unknown)", unknown);
    std::printf("\n");
    sec_missed = missed;
  }
  if (sec_missed > 0) {
    std::fprintf(stderr,
                 "SEC gate: missed %zu mutation(s) the %zu-cycle ground "
                 "truth observes\n",
                 sec_missed, kGroundTruthCycles);
    return 1;
  }
  return 0;
}
