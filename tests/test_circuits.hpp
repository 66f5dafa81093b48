// Shared test helper: random FF-based circuits with tunable structure
// (enable-controlled registers, combinational feedback, depth), used by the
// conversion, timing, retiming, and integration tests.
#pragma once

#include <string>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/util/rng.hpp"

namespace tp::testing {

struct RandomCircuitSpec {
  int num_ffs = 12;
  int num_pis = 4;
  int num_pos = 4;
  int num_gates = 40;
  /// Fraction of FFs that carry an enable (kDffEn before CG inference).
  double enable_fraction = 0.0;
  /// Number of distinct enable signals the enabled FFs share.
  int num_enables = 2;
  /// Probability that an FF's D input mixes in its own output (self-loop).
  double feedback_fraction = 0.2;
  std::int64_t period_ps = 3000;
  std::uint64_t seed = 1;
};

inline Netlist random_ff_circuit(const RandomCircuitSpec& spec) {
  Rng rng(spec.seed);
  Netlist nl("rand" + std::to_string(spec.seed));
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clk_net = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(spec.period_ps, clk_net);

  std::vector<NetId> sources;
  for (int i = 0; i < spec.num_pis; ++i) {
    sources.push_back(nl.cell(nl.add_input("pi" + std::to_string(i))).out);
  }
  const NetId zero = nl.add_net("zero");
  nl.add_cell(CellKind::kConst0, "c0", {}, zero);

  // Registers first (D temporarily tied to zero, rewired below).
  std::vector<CellId> ffs;
  std::vector<NetId> enables;
  for (int e = 0; e < spec.num_enables; ++e) {
    enables.push_back(sources[rng.below(sources.size())]);
  }
  for (int i = 0; i < spec.num_ffs; ++i) {
    const NetId q = nl.add_net("q" + std::to_string(i));
    if (rng.chance(spec.enable_fraction) && !enables.empty()) {
      ffs.push_back(nl.add_cell(CellKind::kDffEn, "ff" + std::to_string(i),
                                {zero, enables[rng.below(enables.size())],
                                 clk_net},
                                q, Phase::kClk));
    } else {
      ffs.push_back(nl.add_cell(CellKind::kDff, "ff" + std::to_string(i),
                                {zero, clk_net}, q, Phase::kClk));
    }
    sources.push_back(q);
  }

  // Random acyclic combinational cloud over PIs and register outputs.
  const CellKind kinds[] = {CellKind::kAnd2, CellKind::kOr2,
                            CellKind::kNand2, CellKind::kNor2,
                            CellKind::kXor2, CellKind::kXnor2,
                            CellKind::kInv,  CellKind::kMux2,
                            CellKind::kAoi21};
  std::vector<NetId> all = sources;
  for (int g = 0; g < spec.num_gates; ++g) {
    const CellKind kind = kinds[rng.below(std::size(kinds))];
    PinList ins;
    for (int p = 0; p < num_inputs(kind); ++p) {
      ins.push_back(all[rng.below(all.size())]);
    }
    all.push_back(
        nl.cell(nl.add_gate(kind, "g" + std::to_string(g), ins)).out);
  }

  // Rewire register D pins (and optionally mix in self-feedback).
  for (int i = 0; i < spec.num_ffs; ++i) {
    NetId d = all[rng.below(all.size())];
    if (rng.chance(spec.feedback_fraction)) {
      const CellId mix = nl.add_gate(
          CellKind::kXor2, "fb" + std::to_string(i),
          {d, nl.cell(ffs[static_cast<std::size_t>(i)]).out});
      d = nl.cell(mix).out;
    }
    nl.replace_input(ffs[static_cast<std::size_t>(i)], 0, d);
  }

  for (int i = 0; i < spec.num_pos; ++i) {
    nl.add_output("po" + std::to_string(i), all[rng.below(all.size())]);
  }
  nl.validate();
  return nl;
}

}  // namespace tp::testing
