#include "src/netlist/traverse.hpp"

#include <algorithm>
#include "src/util/strcat.hpp"

namespace tp {
namespace {

/// True for cells that data traversal may pass through: plain combinational
/// gates that are not part of the clock network.
bool is_data_comb(const Cell& cell) {
  return is_combinational(cell.kind) && !is_clock_cell(cell.kind);
}

}  // namespace

Levelization levelize(const Netlist& netlist) {
  Levelization result;
  result.level.assign(netlist.num_cells(), -1);

  // Kahn's algorithm over the combinational subgraph. Sequential cells and
  // stateful ICGs are barriers (level 0 sources via their outputs).
  std::vector<int> pending(netlist.num_cells(), 0);
  std::vector<CellId> ready;
  std::size_t num_comb = 0;

  for (CellId id : netlist.live_cells()) {
    const Cell& cell = netlist.cell(id);
    if (is_combinational(cell.kind)) {
      ++num_comb;
      int deps = 0;
      for (NetId in : cell.ins) {
        const CellId driver = netlist.net(in).driver;
        if (driver.valid() &&
            is_combinational(netlist.cell(driver).kind)) {
          ++deps;
        }
      }
      pending[id.value()] = deps;
      if (deps == 0) ready.push_back(id);
    } else {
      result.level[id.value()] = 0;
    }
  }

  while (!ready.empty()) {
    const CellId id = ready.back();
    ready.pop_back();
    const Cell& cell = netlist.cell(id);
    int level = 0;
    for (NetId in : cell.ins) {
      const CellId driver = netlist.net(in).driver;
      if (driver.valid()) level = std::max(level, result.level[driver.value()]);
    }
    result.level[id.value()] = level + 1;
    result.max_level = std::max(result.max_level, level + 1);
    result.comb_order.push_back(id);
    if (cell.out.valid()) {
      for (const PinRef& ref : netlist.net(cell.out).fanouts) {
        const Cell& sink = netlist.cell(ref.cell);
        if (is_combinational(sink.kind) && --pending[ref.cell.value()] == 0) {
          ready.push_back(ref.cell);
        }
      }
    }
  }

  require(result.comb_order.size() == num_comb,
          cat("levelize: combinational cycle (", result.comb_order.size(),
              " of ", num_comb, " cells ordered)"));
  // comb_order was produced by a stack; re-sort by level for deterministic
  // in-level ordering.
  std::stable_sort(result.comb_order.begin(), result.comb_order.end(),
                   [&](CellId a, CellId b) {
                     return result.level[a.value()] < result.level[b.value()];
                   });
  return result;
}

namespace {

/// Forward BFS from `source_net` through data combinational cells; calls
/// `on_reg(reg_cell)` for every register whose D (or DFFEN enable) pin is
/// reached. `epoch`/`mark` implement O(1) reset between sources.
template <class OnReg>
void forward_to_registers(const Netlist& netlist, NetId source_net,
                          std::vector<std::uint32_t>& mark,
                          std::uint32_t epoch, std::vector<NetId>& stack,
                          OnReg&& on_reg) {
  stack.clear();
  stack.push_back(source_net);
  mark[source_net.value()] = epoch;
  while (!stack.empty()) {
    const NetId net_id = stack.back();
    stack.pop_back();
    for (const PinRef& ref : netlist.net(net_id).fanouts) {
      const Cell& sink = netlist.cell(ref.cell);
      if (!sink.alive) continue;
      if (is_register(sink.kind)) {
        // D pin of any register, or EN pin of a DFFEN, is a sampled data
        // input; the clock/gate pin is not a data edge.
        if (static_cast<int>(ref.pin) != clock_pin(sink.kind)) {
          on_reg(ref.cell);
        }
      } else if (is_data_comb(sink) && sink.out.valid() &&
                 mark[sink.out.value()] != epoch) {
        mark[sink.out.value()] = epoch;
        stack.push_back(sink.out);
      }
    }
  }
}

}  // namespace

bool RegisterGraph::has_self_loop(int u) const {
  return std::find(fanout[u].begin(), fanout[u].end(), u) !=
         fanout[u].end();
}

std::size_t RegisterGraph::num_edges() const {
  std::size_t n = 0;
  for (const auto& f : fanout) n += f.size();
  return n;
}

RegisterGraph build_register_graph(const Netlist& netlist) {
  RegisterGraph graph;
  graph.regs = netlist.registers();
  for (int i = 0; i < static_cast<int>(graph.regs.size()); ++i) {
    graph.node_of.emplace(graph.regs[i].value(), i);
  }
  graph.fanout.resize(graph.regs.size());
  graph.data_pis = netlist.data_inputs();
  graph.pi_fanout.resize(graph.data_pis.size());

  std::vector<std::uint32_t> mark(netlist.num_nets(), 0);
  std::vector<NetId> stack;
  std::uint32_t epoch = 0;

  auto collect = [&](NetId source, std::vector<int>& out) {
    ++epoch;
    forward_to_registers(netlist, source, mark, epoch, stack,
                         [&](CellId reg) {
                           out.push_back(graph.node_of.at(reg.value()));
                         });
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  };

  for (int u = 0; u < static_cast<int>(graph.regs.size()); ++u) {
    collect(netlist.cell(graph.regs[u]).out, graph.fanout[u]);
  }
  for (std::size_t i = 0; i < graph.data_pis.size(); ++i) {
    collect(netlist.cell(graph.data_pis[i]).out, graph.pi_fanout[i]);
  }
  return graph;
}

std::vector<std::uint8_t> reset_net_values(
    const Netlist& netlist,
    const std::unordered_map<std::uint32_t, std::uint8_t>* overrides) {
  // Reset ("parked") state: every clock phase sits at its value just before
  // the cycle boundary (t = Tc - 1), so e.g. masters (transparent-low) and
  // p3 latches are transparent and show their data cones, while closed
  // latches and flip-flops hold their init values. Evaluated to fixpoint;
  // legal designs never have two adjacent transparent latches, so the
  // iteration converges in a few passes.
  std::vector<std::uint8_t> value(netlist.num_nets(), 0);
  const ClockSpec& clocks = netlist.clocks();
  for (const CellId id : netlist.live_cells()) {
    const Cell& cell = netlist.cell(id);
    if (!cell.out.valid()) continue;
    if (cell.kind == CellKind::kConst1) value[cell.out.value()] = 1;
    if (is_register(cell.kind)) value[cell.out.value()] = cell.init;
    if (cell.kind == CellKind::kInput && netlist.net(cell.out).is_clock &&
        clocks.period_ps > 0) {
      if (const PhaseWaveform* w = clocks.find(cell.phase)) {
        const std::int64_t t = clocks.period_ps - 1;
        const std::int64_t rise = w->rise_ps % clocks.period_ps;
        const std::int64_t fall = w->fall_ps % clocks.period_ps;
        const bool level =
            rise <= fall ? (rise <= t && t < fall) : (t >= rise || t < fall);
        value[cell.out.value()] = level ? 1 : 0;
      }
    }
  }
  auto apply_overrides = [&] {
    if (!overrides) return;
    for (const auto& [net, v] : *overrides) value[net] = v;
  };
  apply_overrides();
  const Levelization lev = levelize(netlist);
  bool ins[3] = {};
  for (int pass = 0; pass < 16; ++pass) {
    bool changed = false;
    auto write = [&](NetId net, bool v) {
      if (overrides && overrides->count(net.value())) return;  // pinned
      if ((value[net.value()] != 0) != v) {
        value[net.value()] = v ? 1 : 0;
        changed = true;
      }
    };
    for (const CellId id : lev.comb_order) {
      const Cell& cell = netlist.cell(id);
      if (!cell.out.valid()) continue;
      for (std::size_t i = 0; i < cell.ins.size(); ++i) {
        ins[i] = value[cell.ins[i].value()] != 0;
      }
      if (cell.kind == CellKind::kIcgNoLatch || !is_clock_cell(cell.kind)) {
        write(cell.out,
              eval_comb(cell.kind,
                        std::span<const bool>(ins, cell.ins.size())));
      }
    }
    for (const CellId id : netlist.live_cells()) {
      const Cell& cell = netlist.cell(id);
      if (!cell.out.valid()) continue;
      if (is_icg(cell.kind) && cell.kind != CellKind::kIcgNoLatch) {
        // The internal enable latch tracked EN while every clock was low
        // before parking, so its frozen value is the settled enable.
        write(cell.out, value[cell.ins[0].value()] != 0 &&
                            value[cell.ins[1].value()] != 0);
      } else if (is_latch(cell.kind)) {
        const bool gate = value[cell.ins[1].value()] != 0;
        const bool transparent =
            cell.kind == CellKind::kLatchH ? gate : !gate;
        if (transparent) write(cell.out, value[cell.ins[0].value()] != 0);
      }
    }
    if (!changed) break;
  }
  return value;
}

std::vector<CellId> pin_fanin_sources(const Netlist& netlist, CellId cell,
                                      std::uint32_t pin) {
  return pin_fanin_sources_of_net(netlist, netlist.cell(cell).ins[pin]);
}

std::vector<CellId> pin_fanin_sources_of_net(const Netlist& netlist,
                                             NetId net) {
  // Reverse BFS from the net through data combinational cells to register
  // outputs and primary inputs.
  std::vector<CellId> sources;
  std::vector<bool> seen(netlist.num_nets(), false);
  std::vector<NetId> stack{net};
  seen[stack.back().value()] = true;
  while (!stack.empty()) {
    const NetId net_id = stack.back();
    stack.pop_back();
    const CellId driver_id = netlist.net(net_id).driver;
    if (!driver_id.valid()) continue;
    const Cell& driver = netlist.cell(driver_id);
    if (is_register(driver.kind) || driver.kind == CellKind::kInput) {
      sources.push_back(driver_id);
    } else if (is_data_comb(driver)) {
      for (NetId in : driver.ins) {
        if (!seen[in.value()]) {
          seen[in.value()] = true;
          stack.push_back(in);
        }
      }
    }
  }
  std::sort(sources.begin(), sources.end());
  sources.erase(std::unique(sources.begin(), sources.end()), sources.end());
  return sources;
}

std::unordered_map<std::uint32_t, std::vector<CellId>> icg_enable_sources(
    const Netlist& netlist) {
  std::unordered_map<std::uint32_t, std::vector<CellId>> result;
  for (CellId id : netlist.live_cells()) {
    if (is_icg(netlist.cell(id).kind)) {
      result.emplace(id.value(), pin_fanin_sources(netlist, id, 0));
    }
  }
  return result;
}

ClockTrace trace_clock(const Netlist& netlist, NetId net) {
  constexpr int kMaxDivideRatio = 1 << 20;
  ClockTrace trace;
  for (std::size_t step = 0; step <= netlist.num_nets(); ++step) {
    for (const PhaseWaveform& wave : netlist.clocks().phases) {
      if (wave.root == net) {
        trace.kind = ClockTraceKind::kPhaseRoot;
        trace.root = net;
        trace.phase = wave.phase;
        return trace;
      }
    }
    const CellId driver = netlist.net(net).driver;
    if (!driver.valid()) {
      trace.kind = ClockTraceKind::kFloating;
      return trace;
    }
    const Cell& cell = netlist.cell(driver);
    switch (cell.kind) {
      case CellKind::kClkBuf:
        net = cell.ins[0];
        break;
      case CellKind::kClkInv:
        trace.inverted = !trace.inverted;
        net = cell.ins[0];
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1:
      case CellKind::kIcgNoLatch:
        net = cell.ins[1];
        break;
      case CellKind::kClkDiv2:
        // Same phase root at half the rate; dividers never invert (state
        // starts low, first toggle on the first rise).
        if (trace.divide_ratio < kMaxDivideRatio) trace.divide_ratio *= 2;
        net = cell.ins[0];
        break;
      case CellKind::kConst0:
      case CellKind::kConst1:
        trace.kind = ClockTraceKind::kConstant;
        trace.constant_value = cell.kind == CellKind::kConst1;
        return trace;
      default:
        // Data gates and non-root primary inputs do not clock anything.
        return trace;
    }
  }
  return trace;  // more steps than nets: the walk is circling a loop
}

}  // namespace tp
