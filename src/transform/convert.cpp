#include "src/transform/convert.hpp"

#include <map>

#include "src/util/strcat.hpp"

namespace tp {
namespace {

void require_no_dffen(const Netlist& netlist, const char* what) {
  for (const CellId id : netlist.live_cells()) {
    require(netlist.cell(id).kind != CellKind::kDffEn,
            cat(what, ": run infer_clock_gating first (kDffEn present)"));
  }
}

/// Removes clock cells whose gated/buffered clock no longer drives anything,
/// then the original clock root if it became unused.
void sweep_dead_clock_cells(Netlist& netlist, NetId old_root) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const CellId id : netlist.live_cells()) {
      const Cell& cell = netlist.cell(id);
      if (is_clock_cell(cell.kind) && cell.out.valid() &&
          netlist.net(cell.out).fanouts.empty()) {
        netlist.remove_cell(id);
        changed = true;
      }
    }
  }
  const Net& root = netlist.net(old_root);
  if (root.fanouts.empty() && root.driver.valid()) {
    netlist.remove_cell(root.driver);
  }
}

}  // namespace

Netlist to_master_slave(const Netlist& ff_netlist) {
  require_no_dffen(ff_netlist, "to_master_slave");
  Netlist nl = ff_netlist;
  nl.set_name(ff_netlist.name() + "_ms");
  for (const CellId id : nl.registers()) {
    const Cell& cell = nl.cell(id);
    require(cell.kind == CellKind::kDff,
            "to_master_slave: expected a pure DFF netlist");
    const NetId d = cell.ins[0];
    const NetId ck = cell.ins[1];
    // Master: transparent while the clock is low, capturing the next state
    // at the rising edge; the original FF becomes the slave.
    const CellId master = nl.add_gate(CellKind::kLatchL, cell.name + "_m",
                                      {d, ck}, Phase::kClk);
    nl.morph_cell(id, CellKind::kLatchH, {nl.cell(master).out, ck});
  }
  return nl;
}

ThreePhaseResult to_three_phase(const Netlist& ff_netlist,
                                const ThreePhaseOptions& options) {
  require_no_dffen(ff_netlist, "to_three_phase");
  ThreePhaseResult result{.netlist = ff_netlist, .assignment = {}};
  Netlist& nl = result.netlist;
  nl.set_name(ff_netlist.name() + "_3p");

  const RegisterGraph graph = build_register_graph(nl);
  result.assignment =
      options.precomputed ? *options.precomputed : assign_phases(graph);
  validate_assignment(graph, result.assignment);

  require(nl.clocks().phases.size() == 1,
          "to_three_phase: expected a single-clock design");
  const NetId old_root = nl.clocks().phases.front().root;
  const std::int64_t period = nl.clocks().period_ps;

  // New phase roots.
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  const NetId p1_net = nl.cell(p1).out;
  const NetId p2_net = nl.cell(p2).out;
  const NetId p3_net = nl.cell(p3).out;
  nl.clocks() = three_phase_spec(period, p1_net, p2_net, p3_net);

  // Phase-specific clock source for an original clock net: the root maps to
  // the phase root; an ICG chain is duplicated per phase (Sec. IV-B). Clock
  // buffers are transparent here — CTS rebuilds buffering later.
  std::map<std::pair<std::uint32_t, std::uint32_t>, NetId> duplicated;
  std::map<std::uint32_t, int> icg_phase_uses;
  auto clock_for = [&](auto&& self, NetId original, Phase phase) -> NetId {
    if (original == old_root) {
      return phase == Phase::kP1 ? p1_net : p3_net;
    }
    const CellId driver_id = nl.net(original).driver;
    require(driver_id.valid(), "to_three_phase: undriven clock net");
    const Cell& driver = nl.cell(driver_id);
    if (driver.kind == CellKind::kClkBuf) {
      return self(self, driver.ins[0], phase);
    }
    require(is_icg(driver.kind), "to_three_phase: unexpected clock driver");
    const auto key = std::make_pair(driver_id.value(),
                                    static_cast<std::uint32_t>(phase));
    if (const auto it = duplicated.find(key); it != duplicated.end()) {
      return it->second;
    }
    const NetId parent = self(self, driver.ins[1], phase);
    const NetId out =
        nl.add_net(cat(driver.name, "_", phase_name(phase)));
    nl.add_cell(CellKind::kIcg, cat(driver.name, "_", phase_name(phase)),
                {driver.ins[0], parent}, out, phase);
    duplicated.emplace(key, out);
    ++icg_phase_uses[driver_id.value()];
    return out;
  };

  // Replace every DFF with its assigned latch.
  for (std::size_t u = 0; u < graph.regs.size(); ++u) {
    const CellId reg = graph.regs[u];
    const Cell& cell = nl.cell(reg);
    require(cell.kind == CellKind::kDff,
            "to_three_phase: expected a pure DFF netlist");
    const Phase phase = result.assignment.position_phase(static_cast<int>(u));
    const NetId gate = clock_for(clock_for, cell.ins[1], phase);
    const NetId d = cell.ins[0];
    nl.morph_cell(reg, CellKind::kLatchH, {d, gate});
    nl.set_phase(reg, phase);
  }
  // Insert p2 latches at back-to-back outputs (after all morphs so that
  // transfer_fanouts sees final pin wiring).
  for (std::size_t u = 0; u < graph.regs.size(); ++u) {
    if (!result.assignment.g[u]) continue;
    const CellId reg = graph.regs[u];
    insert_latch_after(nl, nl.cell(reg).out, p2_net, Phase::kP2,
                       nl.cell(reg).name + "_p2");
    ++result.inserted_p2;
  }
  // Interface rule: p2 latches after flagged primary inputs.
  for (std::size_t p = 0; p < graph.data_pis.size(); ++p) {
    if (!result.assignment.pi_g[p]) continue;
    const CellId pi = graph.data_pis[p];
    insert_latch_after(nl, nl.cell(pi).out, p2_net, Phase::kP2,
                       nl.cell(pi).name + "_p2");
    ++result.inserted_p2;
  }

  for (const auto& [icg, uses] : icg_phase_uses) {
    (void)icg;
    if (uses > 1) result.duplicated_icgs += uses - 1;
  }
  sweep_dead_clock_cells(nl, old_root);
  nl.validate();
  return result;
}

}  // namespace tp
