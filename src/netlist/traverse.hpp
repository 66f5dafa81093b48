// Netlist traversal: combinational levelization, the register-to-register
// connectivity graph that feeds the phase-assignment ILP, and the backward
// clock walk the lint rules and domain inference share.
#pragma once

#include <unordered_map>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace tp {

/// Topological levels of all live cells. Roots (level 0): primary inputs,
/// constants, and register outputs. Combinational cells (including clock
/// buffers and stateless ICGs) get max(input levels) + 1. Registers and ICGs
/// with state are barriers: their own level is 0 regardless of input levels.
/// Throws tp::Error on a combinational cycle.
struct Levelization {
  /// level[cell id] — -1 for dead cells.
  std::vector<int> level;
  /// Live combinational cells in topological (level) order.
  std::vector<CellId> comb_order;
  int max_level = 0;
};

Levelization levelize(const Netlist& netlist);

/// The FF/latch connectivity graph of Sec. IV-A: node u is a register,
/// FO(u) is the set of registers reachable from u's output through
/// combinational logic only (clock cells are not traversed). Primary data
/// inputs are tracked separately: pi_fanout[i] lists the registers reachable
/// from data input i, used for the ILP's PI constraints.
struct RegisterGraph {
  std::vector<CellId> regs;                 // node index -> register cell
  std::unordered_map<std::uint32_t, int> node_of;  // cell id -> node index
  std::vector<std::vector<int>> fanout;     // deduplicated FF->FF edges
  std::vector<CellId> data_pis;             // data primary inputs
  std::vector<std::vector<int>> pi_fanout;  // per data PI -> register nodes

  [[nodiscard]] int node(CellId reg) const {
    const auto it = node_of.find(reg.value());
    require(it != node_of.end(), "RegisterGraph::node: not a register");
    return it->second;
  }

  /// True when node u has itself in FO(u) (FF with combinational feedback).
  [[nodiscard]] bool has_self_loop(int u) const;

  [[nodiscard]] std::size_t num_edges() const;
};

RegisterGraph build_register_graph(const Netlist& netlist);

/// For every ICG cell: the registers (and data PIs, reported as kInput
/// cells) that have a combinational path to its enable pin. Used by the M2
/// legality analysis ("EN has no start point latched by the same phase",
/// Sec. IV-D).
std::unordered_map<std::uint32_t, std::vector<CellId>> icg_enable_sources(
    const Netlist& netlist);

/// Reset-state values of every net: registers at their init value, primary
/// inputs low, clocks parked at their end-of-cycle levels (transparent
/// latches evaluated to fixpoint). `overrides` pins selected nets to fixed
/// values — retiming uses this to evaluate cut nets as functions of the
/// bypassed latches' original init values.
std::vector<std::uint8_t> reset_net_values(
    const Netlist& netlist,
    const std::unordered_map<std::uint32_t, std::uint8_t>* overrides =
        nullptr);

/// Registers (and data PIs) with a combinational path into `pin` of `cell`.
std::vector<CellId> pin_fanin_sources(const Netlist& netlist, CellId cell,
                                      std::uint32_t pin);

/// Registers (and data PIs) with a combinational path to `net`.
std::vector<CellId> pin_fanin_sources_of_net(const Netlist& netlist,
                                             NetId net);

/// What a backward walk from a clock pin reaches.
enum class ClockTraceKind {
  kPhaseRoot,  // exactly one phase root (the only legal outcome)
  kConstant,   // kConst0/kConst1
  kFloating,   // an undriven net
  kData,       // data logic, a non-root input, or a clock-net loop
};

struct ClockTrace {
  ClockTraceKind kind = ClockTraceKind::kData;
  NetId root;                   // for kPhaseRoot
  Phase phase = Phase::kNone;   // for kPhaseRoot
  bool inverted = false;        // odd number of kClkInv on the path
  int divide_ratio = 1;         // 2^(kClkDiv2 on the path), capped at 2^20
  bool constant_value = false;  // for kConstant
};

/// Backward walk from a clock-pin net to what drives it: clock buffers
/// pass, inverters flip, ICGs follow their clock input, and dividers halve
/// the rate without inverting. Iterative, so clock-buffer chains of any
/// depth are safe; a walk longer than the net count is a clock-network loop
/// and returns kData.
ClockTrace trace_clock(const Netlist& netlist, NetId net);

}  // namespace tp
