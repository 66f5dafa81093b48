#include "src/retime/retime.hpp"

#include <algorithm>
#include <unordered_map>

#include "src/netlist/traverse.hpp"
#include "src/retime/maxflow.hpp"
#include "src/util/strcat.hpp"

namespace tp {
namespace {

constexpr std::uint32_t kNoGate = kInvalidIndex;
constexpr std::uint32_t kMixedGate = kInvalidIndex - 1;

std::uint32_t combine_gates(std::uint32_t a, std::uint32_t b) {
  if (a == kNoGate) return b;
  if (b == kNoGate) return a;
  return a == b ? a : kMixedGate;
}

// Marks `seeds` and every net reachable from them forward through data
// combinational cells.
void mark_forward(const Netlist& netlist, std::vector<NetId> seeds,
                  std::vector<std::uint8_t>& mark) {
  for (const NetId net : seeds) mark[net.value()] = 1;
  while (!seeds.empty()) {
    const NetId net = seeds.back();
    seeds.pop_back();
    for (const PinRef& ref : netlist.net(net).fanouts) {
      const Cell& sink = netlist.cell(ref.cell);
      if (is_combinational(sink.kind) && !is_clock_cell(sink.kind) &&
          sink.out.valid() && !mark[sink.out.value()]) {
        mark[sink.out.value()] = 1;
        seeds.push_back(sink.out);
      }
    }
  }
}

}  // namespace

RetimeResult retime_inserted_latches(Netlist& netlist,
                                     const CellLibrary& library,
                                     const RetimeOptions& options) {
  RetimeResult result;
  if (!options.enabled) return result;

  // Movable latches: transparent-high latches on the movable phase. In a
  // master-slave design (phase kClk) these are exactly the slaves.
  std::vector<CellId> movable;
  for (const CellId id : netlist.registers()) {
    const Cell& cell = netlist.cell(id);
    if (cell.kind == CellKind::kLatchH &&
        cell.phase == options.movable_phase) {
      movable.push_back(id);
    }
  }
  result.latches_before = static_cast<int>(movable.size());
  if (movable.empty()) return result;

  // 1. Bypass: downstream logic reconnects to the latch input.
  std::unordered_map<std::uint32_t, std::uint32_t> source_gate;  // net -> gate
  std::unordered_map<std::uint32_t, std::string> source_name;
  std::unordered_map<std::uint32_t, std::uint8_t> source_init;
  for (const CellId id : movable) {
    const Cell& cell = netlist.cell(id);
    const NetId q = cell.ins[0];
    const NetId q2 = cell.out;
    const NetId gate = cell.ins[1];
    const std::string name = cell.name;
    const std::uint8_t init = cell.init;
    netlist.remove_cell(id);
    netlist.transfer_fanouts(q2, q);
    netlist.remove_net(q2);
    source_gate.emplace(q.value(), gate.value());
    source_name.emplace(q.value(), name);
    source_init.emplace(q.value(), init);
  }

  // 2. Region discovery: nets reachable forward from the sources through
  //    data combinational cells. Sinks are consumer pins on registers,
  //    primary outputs, and clock cells (ICG enables).
  std::vector<std::uint8_t> in_region(netlist.num_nets(), 0);
  {
    std::vector<NetId> sources;
    for (const auto& [net, gate] : source_gate) {
      (void)gate;
      sources.push_back(NetId{net});
    }
    mark_forward(netlist, std::move(sources), in_region);
  }

  // PI taint: a gated latch holds its output while disabled, so moving it
  // past a merge with a primary-input signal would freeze a value the
  // original design recomputes every cycle. Nets with PI contributions are
  // only legal for latches clocked straight from a phase root.
  std::vector<std::uint8_t> pi_taint(netlist.num_nets(), 0);
  {
    std::vector<NetId> inputs;
    for (const CellId pi : netlist.data_inputs()) {
      inputs.push_back(netlist.cell(pi).out);
    }
    mark_forward(netlist, std::move(inputs), pi_taint);
  }
  std::vector<std::uint8_t> always_on(netlist.num_nets(), 0);
  for (const PhaseWaveform& w : netlist.clocks().phases) {
    always_on[w.root.value()] = 1;
  }

  // Inserting a movable-phase latch on a path launched by a non-movable
  // latch is functionally transparent in this scheme (the inserted window
  // nests between the launcher's closing edge and the capture edge, passing
  // the same cycle's value), so unlike classic retiming no "taint" rule is
  // needed — only delay legality, evaluated in absolute time across every
  // launch class below.

  // 3. Delay labels and gate-consistency over the region.
  //
  // Absolute-time arrivals over the whole netlist (registers depart when
  // their window opens, or at its close under assume_full_borrowing), plus
  // region-restricted tails to the stage sinks. A net is a legal latch
  // position when data settles before the movable window closes and the
  // relaunched data reaches every capture by the end of the cycle:
  //     arr(n) + setup  <= close_m - margin
  //     open_m + d2q + tail(n) <= Tc - margin
  const Levelization lev = levelize(netlist);
  const auto period = static_cast<double>(netlist.clocks().period_ps);
  const PhaseWaveform* movable_wave =
      netlist.clocks().find(options.movable_phase);
  require(movable_wave != nullptr, "retime: movable phase has no waveform");
  // Transparent-high latches open at the rise; the full transparency window
  // is [rise, fall].
  const double open_m = static_cast<double>(movable_wave->rise_ps);
  const double close_m = static_cast<double>(movable_wave->fall_ps);
  const CellParams& latch_params = library.params(CellKind::kLatchH);

  // Launch seeds are normalized to the capture frame of the movable
  // window: a launcher whose window opens at or after close_m launched in
  // the previous cycle (e.g. p3 latches are valid T/3 before cycle start
  // relative to the p2 capture; masters half a cycle before the slave
  // close).
  std::vector<double> launch_seed(netlist.num_nets(), 0);
  for (const CellId id : netlist.registers()) {
    const Cell& cell = netlist.cell(id);
    const PhaseWaveform* w = netlist.clocks().find(cell.phase);
    if (!w) continue;
    const double open = cell.kind == CellKind::kLatchL
                            ? static_cast<double>(w->fall_ps)
                            : static_cast<double>(w->rise_ps);
    const double close = cell.kind == CellKind::kLatchL
                             ? static_cast<double>(w->rise_ps) + period
                             : static_cast<double>(w->fall_ps);
    double normalized;
    if (options.assume_full_borrowing) {
      // Worst case: the launcher holds data until its window closes.
      normalized = close_m > close ? close : close - period;
    } else {
      normalized = close_m > open ? open : open - period;
    }
    launch_seed[cell.out.value()] =
        normalized + library.delay_ps(cell.kind,
                                      library.net_load_ff(netlist, cell.out));
  }
  for (const CellId pi : netlist.data_inputs()) {
    launch_seed[netlist.cell(pi).out.value()] = 60.0;  // external inputs
  }

  std::vector<std::uint32_t> gate_label(netlist.num_nets(), kNoGate);
  for (const auto& [net, gate] : source_gate) gate_label[net] = gate;
  for (const CellId id : lev.comb_order) {
    const Cell& cell = netlist.cell(id);
    if (!cell.out.valid() || !in_region[cell.out.value()]) continue;
    std::uint32_t g = kNoGate;
    for (const NetId in : cell.ins) {
      if (in_region[in.value()]) g = combine_gates(g, gate_label[in.value()]);
    }
    gate_label[cell.out.value()] = g;
  }

  // Arrival labels, relaunch-aware: any net that is a legal latch position
  // may hold data until the movable window opens and relaunch it, so its
  // consumers must absorb max(arrival, open + d2q). Legality depends on the
  // arrivals, so iterate to a fixpoint (arrivals only grow, the legal set
  // only shrinks).
  std::vector<double> arrival(netlist.num_nets(), 0);
  std::vector<std::uint8_t> delay_legal(netlist.num_nets(), 1);
  for (int iteration = 0; iteration < 8; ++iteration) {
    auto relaunched = [&](NetId net) {
      double a = in_region[net.value()] ? arrival[net.value()]
                                        : launch_seed[net.value()];
      if (in_region[net.value()] && delay_legal[net.value()]) {
        a = std::max(a, open_m + library.delay_ps(
                                     CellKind::kLatchH,
                                     library.net_load_ff(netlist, net)));
      }
      return a;
    };
    for (const auto& [net, gate] : source_gate) {
      (void)gate;
      arrival[net] = launch_seed[net];
    }
    for (const CellId id : lev.comb_order) {
      const Cell& cell = netlist.cell(id);
      if (!cell.out.valid() || !in_region[cell.out.value()]) continue;
      const double delay = library.delay_ps(
          cell.kind, library.net_load_ff(netlist, cell.out));
      double a = 0;
      for (const NetId in : cell.ins) a = std::max(a, relaunched(in));
      arrival[cell.out.value()] = a + delay;
    }
    bool changed = false;
    for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
      if (!in_region[n]) continue;
      const bool ok =
          arrival[n] + latch_params.setup_ps <= close_m - options.margin_ps;
      if (delay_legal[n] && !ok) {
        delay_legal[n] = 0;
        changed = true;
      }
    }
    if (!changed) break;
  }

  // Tails, reverse topological over the region. Sinks contribute their
  // setup (registers) or zero (POs, ICG enables).
  std::vector<double> tail(netlist.num_nets(), 0);
  auto seed_tail = [&](NetId net) {
    double t = tail[net.value()];
    for (const PinRef& ref : netlist.net(net).fanouts) {
      const Cell& sink = netlist.cell(ref.cell);
      if (is_register(sink.kind) &&
          static_cast<int>(ref.pin) != clock_pin(sink.kind)) {
        t = std::max(t, library.params(sink.kind).setup_ps);
      }
    }
    tail[net.value()] = t;
  };
  for (auto it = lev.comb_order.rbegin(); it != lev.comb_order.rend(); ++it) {
    const Cell& cell = netlist.cell(*it);
    if (!cell.out.valid() || !in_region[cell.out.value()]) continue;
    seed_tail(cell.out);
    const double delay = library.delay_ps(
        cell.kind, library.net_load_ff(netlist, cell.out));
    for (const NetId in : cell.ins) {
      if (!in_region[in.value()]) continue;
      tail[in.value()] =
          std::max(tail[in.value()], delay + tail[cell.out.value()]);
    }
  }
  for (const auto& [net, gate] : source_gate) {
    (void)gate;
    seed_tail(NetId{net});
  }

  // Candidate evaluation: each region net is a latch position, legal when
  // its gate and PI labels allow a latch there and both Tc/2 halves fit.
  std::vector<std::uint8_t> position_legal(netlist.num_nets(), 0);
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    if (!in_region[n]) continue;
    const std::uint32_t gate = gate_label[n];
    if (gate == kMixedGate) continue;
    if (pi_taint[n] && !(gate != kNoGate && always_on[gate])) continue;
    const double d2q = library.delay_ps(
        CellKind::kLatchH, library.net_load_ff(netlist, NetId{n}));
    position_legal[n] = static_cast<std::uint8_t>(
        delay_legal[n] &&
        open_m + d2q + tail[n] <= period - options.margin_ps);
  }
  auto legal = [&](NetId net) { return position_legal[net.value()] != 0; };

  // 4. Flow network: node-split region nets (split arc = latch position),
  //    infinite structural arcs between nets. A plain min-cut suffices: see
  //    the capacity comments below and docs/theory.md §4.
  std::unordered_map<std::uint32_t, int> node_of;  // net -> in-node
  int next_node = 2;                               // 0 = S, 1 = T
  for (std::uint32_t n = 0; n < netlist.num_nets(); ++n) {
    if (in_region[n]) {
      node_of.emplace(n, next_node);
      next_node += 2;
    }
  }
  MaxFlow flow(next_node);
  const int source_node = 0, sink_node = 1;
  std::vector<std::pair<std::uint32_t, int>> split_edges;  // net, edge index
  // Original latch positions are always *feasible* (the conversion placed
  // latches there), but when they violate the Tc/2 halves they carry a high
  // finite cost so the min-cut prefers a legal interior cut even at the
  // price of extra latches — the timing-first behavior of the paper's
  // FF-based retiming, and the mechanism behind its observation that
  // retiming can increase area.
  constexpr std::int64_t kIllegalSourceCost = 1000;
  for (const auto& [n, in_node] : node_of) {
    const int out_node = in_node + 1;
    const bool is_source = source_gate.count(n) != 0;
    const std::int64_t cap =
        legal(NetId{n}) ? 1
                        : (is_source ? kIllegalSourceCost : MaxFlow::kInf);
    const int e = flow.add_edge(in_node, out_node, cap);
    split_edges.push_back({n, e});
    if (source_gate.count(n)) flow.add_edge(source_node, in_node, MaxFlow::kInf);
    for (const PinRef& ref : netlist.net(NetId{n}).fanouts) {
      const Cell& sink = netlist.cell(ref.cell);
      const bool is_sink_pin =
          sink.kind == CellKind::kOutput || is_clock_cell(sink.kind) ||
          (is_register(sink.kind) &&
           static_cast<int>(ref.pin) != clock_pin(sink.kind));
      if (is_sink_pin) {
        flow.add_edge(out_node, sink_node, MaxFlow::kInf);
      } else if (is_combinational(sink.kind) && sink.out.valid() &&
                 in_region[sink.out.value()]) {
        // Plain min-cut: the cut guarantees every source-to-sink path
        // crosses at least one inserted latch. Crossing more than one is
        // harmless — same-phase transparent latches in series pass the same
        // value in the same window, so a chain behaves like a single latch
        // (mixed-gate positions are excluded by the legality rule).
        flow.add_edge(out_node, node_of.at(sink.out.value()),
                      MaxFlow::kInf);
      }
    }
  }
  const std::int64_t cut = flow.solve(source_node, sink_node);
  require(cut < MaxFlow::kInf, "retime: no finite latch cut found");
  const std::vector<std::uint8_t> side = flow.min_cut_side(source_node);
  // Collect the cut.
  std::vector<NetId> cut_nets;
  for (const auto& [n, e] : split_edges) {
    (void)e;
    const int in_node = node_of.at(n);
    if (side[static_cast<std::size_t>(in_node)] &&
        !side[static_cast<std::size_t>(in_node + 1)]) {
      cut_nets.push_back(NetId{n});
    }
  }

  // 5. Re-insert latches on the cut nets. Forward retiming changes the
  // state encoding: a moved latch's reset value is the combinational
  // function of the bypassed latches' original init values evaluated at its
  // cut net (source nets pinned to those inits); an unmoved latch keeps its
  // own init.
  const std::vector<std::uint8_t> reset_values =
      reset_net_values(netlist, &source_init);
  int inserted = 0;
  for (const auto& [n, e] : split_edges) {
    const int in_node = node_of.at(n);
    if (!side[static_cast<std::size_t>(in_node)] ||
        side[static_cast<std::size_t>(in_node + 1)]) {
      continue;
    }
    const NetId net{n};
    const auto src_it = source_gate.find(n);
    const NetId gate = src_it != source_gate.end()
                           ? NetId{src_it->second}
                           : NetId{gate_label[n] != kNoGate &&
                                           gate_label[n] != kMixedGate
                                       ? gate_label[n]
                                       : source_gate.begin()->second};
    const std::string name =
        src_it != source_gate.end()
            ? source_name.at(n)
            : cat(netlist.net(net).name, "_", phase_name(options.movable_phase),
                  "r");
    const CellId latch =
        insert_latch_after(netlist, net, gate, options.movable_phase, name);
    netlist.set_init(latch, src_it != source_gate.end()
                                ? source_init.at(n) != 0
                                : reset_values[net.value()] != 0);
    ++inserted;
    if (src_it == source_gate.end()) ++result.moved;
  }
  result.latches_after = inserted;
  require(inserted == static_cast<int>(cut_nets.size()),
          "retime: cut extraction mismatch");
  netlist.validate();
  return result;
}

}  // namespace tp
