// Property suite: the event-driven simulator against an independent
// cycle-accurate reference evaluator.
//
// The reference model is deliberately trivial: explicit state vectors, a
// topological combinational sweep per cycle, registers updated from the
// previous cycle's settled values. If the event-driven machinery (delta
// queues, atomic register batches, clock-network propagation, reset
// parking) disagrees with it on any FF design, something is wrong.
#include <gtest/gtest.h>

#include "src/netlist/traverse.hpp"
#include "src/sim/stimulus.hpp"
#include "tests/test_circuits.hpp"

namespace tp {
namespace {

/// Cycle-accurate reference for FF netlists (kDff/kDffEn + combinational
/// logic; no latches or clock gates).
class ReferenceModel {
 public:
  explicit ReferenceModel(const Netlist& netlist)
      : netlist_(netlist), lev_(levelize(netlist)) {
    values_.assign(netlist.num_nets(), 0);
    for (const CellId id : netlist.live_cells()) {
      if (netlist.cell(id).kind == CellKind::kConst1) {
        values_[netlist.cell(id).out.value()] = 1;
      }
    }
    settle();
  }

  void step(const std::vector<std::uint8_t>& pi) {
    // 1. Registers sample simultaneously from the settled previous state.
    std::vector<std::pair<NetId, std::uint8_t>> next;
    for (const CellId id : netlist_.registers()) {
      const Cell& cell = netlist_.cell(id);
      std::uint8_t q = values_[cell.out.value()];
      if (cell.kind == CellKind::kDff) {
        q = values_[cell.ins[0].value()];
      } else if (cell.kind == CellKind::kDffEn) {
        if (values_[cell.ins[1].value()]) q = values_[cell.ins[0].value()];
      } else {
        throw Error("ReferenceModel: FF netlists only");
      }
      next.push_back({cell.out, q});
    }
    for (const auto& [net, q] : next) values_[net.value()] = q;
    // 2. Inputs change, logic settles.
    const std::vector<CellId> pis = netlist_.data_inputs();
    for (std::size_t i = 0; i < pis.size(); ++i) {
      values_[netlist_.cell(pis[i]).out.value()] = pi[i];
    }
    settle();
  }

  [[nodiscard]] std::vector<std::uint8_t> outputs() const {
    std::vector<std::uint8_t> po;
    for (const CellId id : netlist_.outputs()) {
      po.push_back(values_[netlist_.cell(id).ins[0].value()]);
    }
    return po;
  }

 private:
  void settle() {
    bool ins[3];
    for (const CellId id : lev_.comb_order) {
      const Cell& cell = netlist_.cell(id);
      if (is_clock_cell(cell.kind) || !cell.out.valid()) continue;
      for (std::size_t i = 0; i < cell.ins.size(); ++i) {
        ins[i] = values_[cell.ins[i].value()] != 0;
      }
      values_[cell.out.value()] =
          eval_comb(cell.kind, std::span<const bool>(ins, cell.ins.size()))
              ? 1
              : 0;
    }
  }

  const Netlist& netlist_;
  Levelization lev_;
  std::vector<std::uint8_t> values_;
};

class SimulatorVsReference : public ::testing::TestWithParam<int> {};

TEST_P(SimulatorVsReference, IdenticalOutputStreams) {
  testing::RandomCircuitSpec spec;
  spec.seed = static_cast<std::uint64_t>(GetParam()) * 131 + 7;
  spec.num_ffs = 6 + GetParam() % 24;
  spec.num_gates = 20 + (GetParam() * 13) % 80;
  spec.enable_fraction = (GetParam() % 2) * 0.5;  // kDffEn stays un-lowered
  spec.feedback_fraction = (GetParam() % 5) * 0.1;
  const Netlist nl = testing::random_ff_circuit(spec);

  Rng rng(spec.seed);
  const Stimulus stim = random_stimulus(nl.data_inputs().size(), 64, rng,
                                        0.45);
  Simulator sim(nl);
  ReferenceModel reference(nl);
  for (std::size_t cycle = 0; cycle < stim.size(); ++cycle) {
    sim.step(stim[cycle]);
    reference.step(stim[cycle]);
    ASSERT_EQ(sim.outputs(), reference.outputs())
        << "cycle " << cycle << ", seed " << spec.seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorVsReference,
                         ::testing::Range(0, 40));

TEST(SimulatorVsReference, UnitAndZeroDelayAgreeWithReference) {
  testing::RandomCircuitSpec spec;
  spec.num_ffs = 20;
  spec.num_gates = 70;
  const Netlist nl = testing::random_ff_circuit(spec);
  Rng rng(3);
  const Stimulus stim = random_stimulus(nl.data_inputs().size(), 48, rng);
  Simulator unit(nl);
  ReferenceModel reference(nl);
  for (const auto& pi : stim) {
    unit.step(pi);
    reference.step(pi);
    ASSERT_EQ(unit.outputs(), reference.outputs());
  }
}

}  // namespace
}  // namespace tp
