#include "src/sim/simulator.hpp"

#include <algorithm>

#include "src/sim/schedule.hpp"

namespace tp {

Simulator::Simulator(const Netlist& netlist, SimOptions options)
    : netlist_(netlist), options_(options) {
  require(netlist_.clocks().period_ps > 0,
          "Simulator: netlist has no clock spec");
  event_times_ = edge_times(netlist_.clocks());
  data_pis_ = netlist_.data_inputs();  // rebuilt per call; cache once
  reset();
}

void Simulator::reset() {
  values_.assign(netlist_.num_nets(), 0);
  icg_state_.assign(netlist_.num_cells(), 0);
  last_clock_.assign(netlist_.num_cells(), 0);
  queued_.assign(netlist_.num_cells(), 0);
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
  po_snapshot_.assign(netlist_.outputs().size(), 0);
  tick_now_.clear();
  tick_next_.clear();
  clock_worklist_.clear();
  nested_clock_changes_.clear();

  // Constants, then settle the whole combinational network once.
  evals_this_event_ = 0;
  std::vector<CellId> clock_cells;
  for (CellId id : netlist_.live_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kConst1) values_[cell.out.value()] = 1;
    if (is_register(cell.kind)) values_[cell.out.value()] = cell.init;
    if (is_clock_cell(cell.kind)) {
      clock_cells.push_back(id);
    } else if (is_combinational(cell.kind) || is_latch(cell.kind)) {
      // Latches are enqueued too: init values can leave a transparent latch
      // with D != Q, which no event would otherwise reconcile.
      tick_next_.push_back(id);
      queued_[id.value()] = 1;
    }
  }
  propagate_data();

  // Let ICG enable latches observe the settled enables while every clock is
  // still low (kIcg latches are transparent then), mirroring how hardware
  // leaves reset with the gating decision already latched.
  clock_worklist_ = clock_cells;
  std::vector<NetId> changed;
  propagate_clock_network(changed);
  update_registers(changed);
  propagate_data();

  // Park the schedule at the end of the previous cycle (t = Tc - 1): phases
  // that are high going into the cycle boundary (e.g. p3 of a 3-phase
  // design, clkbar of a master-slave clock) open their latches now. Without
  // this, latches whose capture window ends exactly at the cycle boundary
  // would miss the update corresponding to the FF design's edge 0, and
  // state with combinational feedback would never re-synchronize.
  const ClockSpec& clocks = netlist_.clocks();
  changed.clear();
  for (const PhaseWaveform& w : clocks.phases) {
    const bool target = phase_level(w, clocks.period_ps,
                                    clocks.period_ps - 1);
    if (value(w.root) != target) {
      set_net(w.root, target);
      changed.push_back(w.root);
      for (const PinRef& ref : netlist_.net(w.root).fanouts) {
        if (is_clock_cell(netlist_.cell(ref.cell).kind)) {
          clock_worklist_.push_back(ref.cell);
        }
      }
    }
  }
  propagate_clock_network(changed);
  update_registers(changed);
  propagate_data();

  // Settling is bookkeeping, not activity.
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
}

void Simulator::clear_stats() {
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
}

void Simulator::step(std::span<const std::uint8_t> pi_values) {
  require(pi_values.size() == data_pis_.size(),
          "Simulator::step: wrong number of PI values");
  ++stats_.cycles;

  const int snapshot = std::min(
      options_.snapshot_event.value_or(snapshot_event(netlist_.clocks())),
      static_cast<int>(event_times_.size()) - 1);
  int event_index = 0;
  for (const std::int64_t t : event_times_) {
    evals_this_event_ = 0;

    // 1. Root clock transitions, then zero-delay clock-network propagation.
    event_clock_changes_.clear();
    for (const PhaseWaveform& w : netlist_.clocks().phases) {
      const bool target = phase_level(w, netlist_.clocks().period_ps, t);
      if (value(w.root) != target) {
        set_net(w.root, target);
        event_clock_changes_.push_back(w.root);
        for (const PinRef& ref : netlist_.net(w.root).fanouts) {
          if (is_clock_cell(netlist_.cell(ref.cell).kind)) {
            clock_worklist_.push_back(ref.cell);
          }
        }
      }
    }
    propagate_clock_network(event_clock_changes_);

    // 2. Atomic register update on the settled clock state.
    update_registers(event_clock_changes_);

    // 3. Primary-input changes (PIs behave as if clocked by p1: they change
    //    at t = 0, after registers sampled the old values).
    if (t == 0) {
      for (std::size_t i = 0; i < data_pis_.size(); ++i) {
        const NetId net = netlist_.cell(data_pis_[i]).out;
        if (value(net) != (pi_values[i] != 0)) {
          set_net(net, pi_values[i] != 0);
          enqueue_fanouts(net);
        }
      }
    }

    // 4. Data propagation (handles nested clock events from illegal gating).
    propagate_data();

    if (event_index == snapshot) {
      const auto& outs = netlist_.outputs();
      for (std::size_t i = 0; i < outs.size(); ++i) {
        po_snapshot_[i] = value(netlist_.cell(outs[i]).ins[0]) ? 1 : 0;
      }
    }
    ++event_index;
  }
}

bool Simulator::icg_transparent(const Cell& cell) const {
  if (cell.kind == CellKind::kIcg) {
    return !value(cell.ins[1]);  // internal latch open while CK low
  }
  // kIcgM1: internal latch open while the borrowed phase pin PB is high.
  return value(cell.ins[2]);
}

void Simulator::propagate_clock_network(
    std::vector<NetId>& changed_clock_nets) {
  while (!clock_worklist_.empty()) {
    const CellId id = clock_worklist_.back();
    clock_worklist_.pop_back();
    const Cell& cell = netlist_.cell(id);
    if (!cell.alive) continue;
    bool out = false;
    switch (cell.kind) {
      case CellKind::kClkBuf:
        out = value(cell.ins[0]);
        break;
      case CellKind::kClkInv:
        out = !value(cell.ins[0]);
        break;
      case CellKind::kIcgNoLatch:
        out = value(cell.ins[0]) && value(cell.ins[1]);
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1:
        if (icg_transparent(cell)) {
          icg_state_[id.value()] = value(cell.ins[0]);
        }
        out = icg_state_[id.value()] && value(cell.ins[1]);
        break;
      case CellKind::kClkDiv2: {
        // Toggle state on the rising input edge. Re-evaluation without an
        // input change (the worklist can revisit a cell within one event)
        // is a no-op because last_clock_ already matches.
        const bool ck = value(cell.ins[0]);
        if (ck && !last_clock_[id.value()]) {
          icg_state_[id.value()] = !icg_state_[id.value()];
        }
        last_clock_[id.value()] = ck;
        out = icg_state_[id.value()] != 0;
        break;
      }
      default:
        continue;  // non-clock cells never enter this worklist
    }
    if (out != value(cell.out)) {
      set_net(cell.out, out);
      changed_clock_nets.push_back(cell.out);
      for (const PinRef& ref : netlist_.net(cell.out).fanouts) {
        if (is_clock_cell(netlist_.cell(ref.cell).kind)) {
          clock_worklist_.push_back(ref.cell);
        }
      }
    }
  }
}

void Simulator::update_registers(
    const std::vector<NetId>& changed_clock_nets) {
  // Read phase: decide every register's new output from pre-update values.
  writes_.clear();
  for (const NetId net : changed_clock_nets) {
    const bool level = value(net);
    for (const PinRef& ref : netlist_.net(net).fanouts) {
      const Cell& cell = netlist_.cell(ref.cell);
      if (!is_register(cell.kind) ||
          static_cast<int>(ref.pin) != clock_pin(cell.kind)) {
        continue;
      }
      switch (cell.kind) {
        case CellKind::kDff:
        case CellKind::kLatchP:  // hold-clean pulsed latch: edge sample
          if (level && !last_clock_[ref.cell.value()]) {
            writes_.push_back({ref.cell, value(cell.ins[0])});
          }
          break;
        case CellKind::kDffEn:
          if (level && !last_clock_[ref.cell.value()]) {
            writes_.push_back({ref.cell, value(cell.ins[1])
                                             ? value(cell.ins[0])
                                             : value(cell.out)});
          }
          break;
        case CellKind::kLatchH:
          if (level) writes_.push_back({ref.cell, value(cell.ins[0])});
          break;
        case CellKind::kLatchL:
          if (!level) writes_.push_back({ref.cell, value(cell.ins[0])});
          break;
        case CellKind::kDffDet:  // dual-edge: sample on any clock toggle
          if (level != (last_clock_[ref.cell.value()] != 0)) {
            writes_.push_back({ref.cell, value(cell.ins[0])});
          }
          break;
        default:
          break;
      }
      last_clock_[ref.cell.value()] = level;
    }
  }
  // Write phase: apply simultaneously and seed data propagation.
  for (const Write& w : writes_) {
    const NetId out = netlist_.cell(w.cell).out;
    if (value(out) != w.q) {
      set_net(out, w.q);
      enqueue_fanouts(out);
    }
  }
}

void Simulator::set_net(NetId net, bool v) {
  values_[net.value()] = v;
  ++stats_.net_toggles[net.value()];
}

void Simulator::enqueue_fanouts(NetId net) {
  for (const PinRef& ref : netlist_.net(net).fanouts) {
    const Cell& cell = netlist_.cell(ref.cell);
    if (is_clock_cell(cell.kind)) {
      // Enable or clock input of a clock cell changed from the data side:
      // processed as a nested clock event after the current tick.
      clock_worklist_.push_back(ref.cell);
      continue;
    }
    if (is_register(cell.kind)) {
      if (static_cast<int>(ref.pin) == clock_pin(cell.kind)) {
        // Data driving a register clock pin — only possible in illegal
        // designs; handled as a nested clock event.
        nested_clock_changes_.push_back(net);
      } else if (is_latch(cell.kind) && !queued_[ref.cell.value()]) {
        // A transparent latch reacts to D; FFs only react to edges.
        queued_[ref.cell.value()] = 1;
        tick_next_.push_back(ref.cell);
      }
      continue;
    }
    if (cell.kind == CellKind::kOutput || !cell.alive) continue;
    if (!queued_[ref.cell.value()]) {
      queued_[ref.cell.value()] = 1;
      tick_next_.push_back(ref.cell);
    }
  }
}

void Simulator::evaluate_cell(CellId id) {
  const Cell& cell = netlist_.cell(id);
  if (!cell.alive) return;
  if (++evals_this_event_ > options_.max_evals_per_event) {
    throw Error("Simulator: propagation did not settle (oscillation?)");
  }
  if (is_latch(cell.kind)) {
    const bool gate = value(cell.ins[1]);
    const bool transparent =
        cell.kind == CellKind::kLatchH ? gate : !gate;
    if (transparent && value(cell.out) != value(cell.ins[0])) {
      set_net(cell.out, value(cell.ins[0]));
      enqueue_fanouts(cell.out);
    }
    return;
  }
  if (samples_on_edge(cell.kind)) {
    return;  // edge-sampled in update_registers
  }
  // Plain combinational gate.
  bool ins[3] = {};
  for (std::size_t i = 0; i < cell.ins.size(); ++i) {
    ins[i] = value(cell.ins[i]);
  }
  const bool out =
      eval_comb(cell.kind, std::span<const bool>(ins, cell.ins.size()));
  if (out != value(cell.out)) {
    set_net(cell.out, out);
    enqueue_fanouts(cell.out);
  }
}

void Simulator::propagate_data() {
  for (;;) {
    while (!tick_next_.empty()) {
      tick_now_.swap(tick_next_);
      tick_next_.clear();
      // Canonical wave order: evaluate in ascending cell-id order. This is
      // the order the bit-parallel WideSimulator evaluates the union wave
      // of all lanes, so per-lane toggle counts decompose exactly (the
      // bit-identity contract); for the generator-produced netlists it also
      // matches topological creation order and suppresses most spurious
      // glitch counting.
      std::sort(tick_now_.begin(), tick_now_.end());
      for (const CellId id : tick_now_) queued_[id.value()] = 0;
      for (const CellId id : tick_now_) evaluate_cell(id);
      tick_now_.clear();
    }
    if (clock_worklist_.empty() && nested_clock_changes_.empty()) break;
    // Nested clock event (enable changed while its clock is high, or data
    // driving a clock pin): settle the clock network, update registers,
    // continue propagating.
    nested_scratch_.swap(nested_clock_changes_);
    nested_clock_changes_.clear();
    propagate_clock_network(nested_scratch_);
    update_registers(nested_scratch_);
  }
}

}  // namespace tp
