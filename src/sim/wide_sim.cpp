#include "src/sim/wide_sim.hpp"

#include <algorithm>
#include <bit>
#include <ostream>
#include <string>

#include "src/sim/schedule.hpp"

namespace tp {
namespace {

/// VCD identifier for a net id (printable characters '!'..'~').
std::string vcd_id(std::uint32_t n) {
  std::string id;
  do {
    id += static_cast<char>('!' + n % 94);
    n /= 94;
  } while (n);
  return id;
}

}  // namespace

WideSimulator::WideSimulator(const Netlist& netlist, std::size_t lanes,
                             SimOptions options)
    : netlist_(netlist), options_(options), lanes_(lanes) {
  require(netlist_.clocks().period_ps > 0,
          "WideSimulator: netlist has no clock spec");
  require(lanes >= 1 && lanes <= kMaxSimLanes,
          "WideSimulator: lanes must be in [1, 64]");
  lane_mask_ = lanes == kMaxSimLanes ? ~std::uint64_t{0}
                                     : (std::uint64_t{1} << lanes) - 1;
  event_times_ = edge_times(netlist_.clocks());
  data_pis_ = netlist_.data_inputs();
  reset();
}

void WideSimulator::reset() {
  values_.assign(netlist_.num_nets(), 0);
  icg_state_.assign(netlist_.num_cells(), 0);
  last_clock_.assign(netlist_.num_cells(), 0);
  queued_.assign(netlist_.num_cells(), 0);
  trigger_.assign(netlist_.num_cells(), 0);
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
  vcd_cycle_ = 0;
  po_snapshot_.assign(netlist_.outputs().size(), 0);
  tick_now_.clear();
  tick_next_.clear();
  clock_worklist_.clear();
  nested_clock_changes_.clear();

  // Constants, then settle the whole combinational network once. Every
  // lane starts from the same state, so the settle is lane-uniform.
  evals_this_event_ = 0;
  std::vector<CellId> clock_cells;
  for (CellId id : netlist_.live_cells()) {
    const Cell& cell = netlist_.cell(id);
    if (cell.kind == CellKind::kConst1) {
      values_[cell.out.value()] = lane_mask_;
    }
    if (is_register(cell.kind)) {
      values_[cell.out.value()] = cell.init ? lane_mask_ : 0;
    }
    if (is_clock_cell(cell.kind)) {
      clock_cells.push_back(id);
    } else if (is_combinational(cell.kind) || is_latch(cell.kind)) {
      // Latches are enqueued too: init values can leave a transparent latch
      // with D != Q, which no event would otherwise reconcile.
      tick_next_.push_back(id);
      queued_[id.value()] = 1;
      trigger_[id.value()] = lane_mask_;  // initial settle runs every lane
    }
  }
  propagate_data();

  // Let ICG enable latches observe the settled enables while every clock is
  // still low (kIcg latches are transparent then), in every lane.
  clock_worklist_ = clock_cells;
  event_clock_changes_.clear();
  propagate_clock_network(event_clock_changes_);
  update_registers(event_clock_changes_);
  propagate_data();

  // Park the schedule at the end of the previous cycle (t = Tc - 1), same
  // as the scalar reset(): phases that are high going into the cycle
  // boundary open their latches now. Roots are lane-uniform words.
  const ClockSpec& clocks = netlist_.clocks();
  event_clock_changes_.clear();
  for (const PhaseWaveform& w : clocks.phases) {
    const bool target = phase_level(w, clocks.period_ps,
                                                clocks.period_ps - 1);
    const std::uint64_t word = target ? lane_mask_ : 0;
    if (values_[w.root.value()] != word) {
      set_net(w.root, word);
      event_clock_changes_.push_back(w.root);
      for (const PinRef& ref : netlist_.net(w.root).fanouts) {
        if (is_clock_cell(netlist_.cell(ref.cell).kind)) {
          clock_worklist_.push_back(ref.cell);
        }
      }
    }
  }
  propagate_clock_network(event_clock_changes_);
  update_registers(event_clock_changes_);
  propagate_data();

  // Settling is bookkeeping, not activity.
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
}

void WideSimulator::clear_stats() {
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
}

void WideSimulator::step(std::span<const std::uint64_t> pi_words) {
  require(pi_words.size() == data_pis_.size(),
          "WideSimulator::step: wrong number of PI words");
  stats_.cycles += lanes_;  // one simulated cycle per lane

  const int snapshot = std::min(
      options_.snapshot_event.value_or(snapshot_event(netlist_.clocks())),
      static_cast<int>(event_times_.size()) - 1);
  int event_index = 0;
  // VCD time counts cycles since reset(); clear_stats() at the warmup
  // boundary leaves it alone, so '#' times never go backwards.
  const std::int64_t cycle_base =
      static_cast<std::int64_t>(vcd_cycle_++) * netlist_.clocks().period_ps;
  for (const std::int64_t t : event_times_) {
    evals_this_event_ = 0;
    if (vcd_ != nullptr) *vcd_ << '#' << cycle_base + t << "\n";

    // 1. Root clock transitions, then zero-delay clock-network propagation.
    event_clock_changes_.clear();
    for (const PhaseWaveform& w : netlist_.clocks().phases) {
      const bool target =
          phase_level(w, netlist_.clocks().period_ps, t);
      const std::uint64_t word = target ? lane_mask_ : 0;
      if (values_[w.root.value()] != word) {
        set_net(w.root, word);
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

    // 3. Primary-input changes at t = 0 (after registers sampled the old
    //    values), lane-packed.
    if (t == 0) {
      for (std::size_t i = 0; i < data_pis_.size(); ++i) {
        const NetId net = netlist_.cell(data_pis_[i]).out;
        const std::uint64_t word = pi_words[i] & lane_mask_;
        const std::uint64_t diff = values_[net.value()] ^ word;
        if (diff != 0) {
          set_net(net, word);
          enqueue_fanouts(net, diff);
        }
      }
    }

    // 4. Data propagation (handles nested clock events from illegal gating).
    propagate_data();

    if (event_index == snapshot) {
      const auto& outs = netlist_.outputs();
      for (std::size_t i = 0; i < outs.size(); ++i) {
        po_snapshot_[i] = values_[netlist_.cell(outs[i]).ins[0].value()];
      }
    }
    ++event_index;
  }
}

std::uint64_t WideSimulator::icg_transparent(const Cell& cell) const {
  if (cell.kind == CellKind::kIcg) {
    // Internal latch open while CK low.
    return ~values_[cell.ins[1].value()] & lane_mask_;
  }
  // kIcgM1: internal latch open while the borrowed phase pin PB is high.
  return values_[cell.ins[2].value()];
}

void WideSimulator::propagate_clock_network(
    std::vector<NetId>& changed_clock_nets) {
  while (!clock_worklist_.empty()) {
    const CellId id = clock_worklist_.back();
    clock_worklist_.pop_back();
    const Cell& cell = netlist_.cell(id);
    if (!cell.alive) continue;
    std::uint64_t out = 0;
    switch (cell.kind) {
      case CellKind::kClkBuf:
        out = values_[cell.ins[0].value()];
        break;
      case CellKind::kClkInv:
        out = ~values_[cell.ins[0].value()] & lane_mask_;
        break;
      case CellKind::kIcgNoLatch:
        out = values_[cell.ins[0].value()] & values_[cell.ins[1].value()];
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1: {
        // Per-lane mux of the internal enable latch: transparent lanes
        // track EN, opaque lanes hold. Lanes whose inputs did not change
        // reproduce their current state, so evaluating the cell on another
        // lane's behalf is a per-lane no-op (bit-identity contract).
        const std::uint64_t transp = icg_transparent(cell);
        std::uint64_t& state = icg_state_[id.value()];
        state = (transp & values_[cell.ins[0].value()]) | (~transp & state);
        out = state & values_[cell.ins[1].value()];
        break;
      }
      case CellKind::kClkDiv2: {
        // Lanes whose input just rose toggle the divider state; repeat
        // evaluation without an input change flips nothing (rising == 0).
        const std::uint64_t ck = values_[cell.ins[0].value()];
        const std::uint64_t rising = ck & ~last_clock_[id.value()];
        last_clock_[id.value()] = ck;
        std::uint64_t& state = icg_state_[id.value()];
        state ^= rising;
        out = state & lane_mask_;
        break;
      }
      default:
        continue;  // non-clock cells never enter this worklist
    }
    if (out != values_[cell.out.value()]) {
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

void WideSimulator::update_registers(
    const std::vector<NetId>& changed_clock_nets) {
  // Read phase: decide every register's new output from pre-update values.
  // `changed` restricts each write to the lanes whose clock net actually
  // transitioned this event — the other lanes were not processed by the
  // scalar engine either (their clock did not move), so touching them
  // would break the per-lane decomposition.
  writes_.clear();
  for (const NetId net : changed_clock_nets) {
    const std::uint64_t level = values_[net.value()];
    for (const PinRef& ref : netlist_.net(net).fanouts) {
      const Cell& cell = netlist_.cell(ref.cell);
      if (!is_register(cell.kind) ||
          static_cast<int>(ref.pin) != clock_pin(cell.kind)) {
        continue;
      }
      const std::uint64_t changed = level ^ last_clock_[ref.cell.value()];
      std::uint64_t mask = 0;
      std::uint64_t data = 0;
      switch (cell.kind) {
        case CellKind::kDff:
        case CellKind::kLatchP:  // hold-clean pulsed latch: edge sample
        case CellKind::kLatchH:
          // Rising lanes sample D. For kLatchH this is exactly the scalar
          // behavior too: open-and-unchanged lanes already track D through
          // evaluate_cell, only the lanes whose gate just rose are written
          // here.
          mask = changed & level;
          data = values_[cell.ins[0].value()];
          break;
        case CellKind::kDffEn: {
          mask = changed & level;
          const std::uint64_t en = values_[cell.ins[1].value()];
          data = (en & values_[cell.ins[0].value()]) |
                 (~en & values_[cell.out.value()]);
          break;
        }
        case CellKind::kLatchL:
          mask = changed & ~level;  // lanes whose gate just fell (opened)
          data = values_[cell.ins[0].value()];
          break;
        case CellKind::kDffDet:  // dual-edge: any toggling lane samples
          mask = changed;
          data = values_[cell.ins[0].value()];
          break;
        default:
          break;
      }
      last_clock_[ref.cell.value()] = level;
      if (mask != 0) writes_.push_back({ref.cell, mask, data});
    }
  }
  // Write phase: apply simultaneously and seed data propagation.
  for (const Write& w : writes_) {
    const NetId out = netlist_.cell(w.cell).out;
    const std::uint64_t q = values_[out.value()];
    const std::uint64_t next = (w.mask & w.data) | (~w.mask & q);
    if (next != q) {
      set_net(out, next);
      enqueue_fanouts(out, q ^ next);
    }
  }
}

void WideSimulator::start_vcd(std::ostream& out) {
  vcd_ = &out;
  out << "$timescale 1ps $end\n$scope module "
      << (netlist_.name().empty() ? "top" : netlist_.name()) << " $end\n";
  for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
    const Net& net = netlist_.net(NetId{n});
    if (!net.alive) continue;
    // VCD identifiers must not contain whitespace; net names are sanitized
    // by replacing anything suspicious.
    std::string name = net.name;
    for (char& c : name) {
      if (c == ' ' || c == '$') c = '_';
    }
    out << "$var wire 1 " << vcd_id(n) << ' ' << name << " $end\n";
  }
  out << "$upscope $end\n$enddefinitions $end\n$dumpvars\n";
  for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
    if (netlist_.net(NetId{n}).alive) {
      out << ((values_[n] & 1u) ? '1' : '0') << vcd_id(n) << "\n";
    }
  }
  out << "$end\n";
}

void WideSimulator::set_net(NetId net, std::uint64_t word) {
  std::uint64_t& slot = values_[net.value()];
  stats_.net_toggles[net.value()] +=
      static_cast<std::uint64_t>(std::popcount(slot ^ word));
  if (vcd_ != nullptr && ((slot ^ word) & 1u) != 0) {
    *vcd_ << ((word & 1u) ? '1' : '0') << vcd_id(net.value()) << "\n";
  }
  slot = word;
}

void WideSimulator::enqueue_fanouts(NetId net, std::uint64_t changed_lanes) {
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
      } else if (is_latch(cell.kind)) {
        // A transparent latch reacts to D; FFs only react to edges.
        trigger_[ref.cell.value()] |= changed_lanes;
        if (!queued_[ref.cell.value()]) {
          queued_[ref.cell.value()] = 1;
          tick_next_.push_back(ref.cell);
        }
      }
      continue;
    }
    if (cell.kind == CellKind::kOutput || !cell.alive) continue;
    trigger_[ref.cell.value()] |= changed_lanes;
    if (!queued_[ref.cell.value()]) {
      queued_[ref.cell.value()] = 1;
      tick_next_.push_back(ref.cell);
    }
  }
}

void WideSimulator::evaluate_cell(CellId id, std::uint64_t trigger) {
  const Cell& cell = netlist_.cell(id);
  if (!cell.alive) return;
  if (++evals_this_event_ > options_.max_evals_per_event) {
    throw Error("WideSimulator: propagation did not settle (oscillation?)");
  }
  // Only lanes whose fanin changed (the trigger mask) may take the new
  // value: a lane pulled into this union wave by another lane's change
  // keeps its old output here and re-runs in the wave its own scalar
  // schedule would have used (its fanin change re-enqueued this cell).
  if (is_latch(cell.kind)) {
    const std::uint64_t gate = values_[cell.ins[1].value()];
    const std::uint64_t open =
        (cell.kind == CellKind::kLatchH ? gate : ~gate) & lane_mask_;
    const std::uint64_t q = values_[cell.out.value()];
    const std::uint64_t tracked =
        (open & values_[cell.ins[0].value()]) | (~open & q);
    const std::uint64_t next = (trigger & tracked) | (~trigger & q);
    if (next != q) {
      set_net(cell.out, next);
      enqueue_fanouts(cell.out, q ^ next);
    }
    return;
  }
  if (samples_on_edge(cell.kind)) {
    return;  // edge-sampled in update_registers
  }
  // Plain combinational gate, word-wide.
  std::uint64_t ins[3] = {};
  for (std::size_t i = 0; i < cell.ins.size(); ++i) {
    ins[i] = values_[cell.ins[i].value()];
  }
  const std::uint64_t eval =
      eval_comb_word(cell.kind, std::span<const std::uint64_t>(
                                    ins, cell.ins.size())) &
      lane_mask_;
  const std::uint64_t old = values_[cell.out.value()];
  const std::uint64_t out = (trigger & eval) | (~trigger & old);
  if (out != old) {
    set_net(cell.out, out);
    enqueue_fanouts(cell.out, old ^ out);
  }
}

void WideSimulator::propagate_data() {
  for (;;) {
    while (!tick_next_.empty()) {
      tick_now_.swap(tick_next_);
      tick_next_.clear();
      // Canonical wave order (ascending cell id), shared with the scalar
      // engine: the union wave evaluates cells in the same order every
      // lane's scalar wave would, so per-lane toggle counts decompose.
      std::sort(tick_now_.begin(), tick_now_.end());
      // Snapshot the trigger masks before any evaluation: a fanin change
      // produced *during* this wave must trigger the cell in the next wave
      // (its scalar wave membership), not retroactively in this one.
      wave_trigger_.resize(tick_now_.size());
      for (std::size_t i = 0; i < tick_now_.size(); ++i) {
        const std::size_t c = tick_now_[i].value();
        wave_trigger_[i] = trigger_[c];
        trigger_[c] = 0;
        queued_[c] = 0;
      }
      for (std::size_t i = 0; i < tick_now_.size(); ++i) {
        evaluate_cell(tick_now_[i], wave_trigger_[i]);
      }
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
