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
  compile();
  reset();
}

void WideSimulator::compile() {
  const std::size_t num_cells = netlist_.num_cells();
  kind_.resize(num_cells);
  alive_.resize(num_cells);
  out_.resize(num_cells);
  in_begin_.assign(1, 0);
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    const Cell& cell = netlist_.cell(CellId{c});
    kind_[c] = cell.kind;
    alive_[c] = cell.alive ? 1 : 0;
    out_[c] = cell.out.value();
    for (const NetId in : cell.ins) in_nets_.push_back(in.value());
    in_begin_.push_back(static_cast<std::uint32_t>(in_nets_.size()));
    if (cell.alive && ((cell.kind == CellKind::kConst1) ||
                       (is_register(cell.kind) && cell.init != 0))) {
      reset_high_.push_back(cell.out.value());
    }
  }
  // One pass per list keeps each in the net's fanout order: clock-cell and
  // register order decide the clock worklist and register write order.
  const auto build = [&](NetLists& lists, auto keep) {
    lists.begin.assign(1, 0);
    for (std::uint32_t n = 0; n < netlist_.num_nets(); ++n) {
      for (const PinRef& ref : netlist_.net(NetId{n}).fanouts) {
        const Cell& cell = netlist_.cell(ref.cell);
        if (cell.alive && keep(cell.kind, static_cast<int>(ref.pin))) {
          lists.items.push_back(ref.cell.value());
        }
      }
      lists.begin.push_back(static_cast<std::uint32_t>(lists.items.size()));
    }
  };
  build(data_sinks_, [](CellKind kind, int pin) {
    if (is_clock_cell(kind) || kind == CellKind::kOutput) return false;
    // A transparent latch reacts to D; FFs only react to edges.
    return !is_register(kind) || (is_latch(kind) && pin != clock_pin(kind));
  });
  build(clock_sinks_, [](CellKind kind, int) { return is_clock_cell(kind); });
  build(reg_sinks_, [](CellKind kind, int pin) {
    return is_register(kind) && pin == clock_pin(kind);
  });
  for (const CellId pi : netlist_.data_inputs()) {
    pi_nets_.push_back(netlist_.cell(pi).out.value());
  }
  for (const CellId po : netlist_.outputs()) {
    po_nets_.push_back(netlist_.cell(po).ins[0].value());
  }
}

void WideSimulator::reset() {
  const std::size_t num_cells = kind_.size();
  values_.assign(netlist_.num_nets(), 0);
  icg_state_.assign(num_cells, 0);
  last_clock_.assign(num_cells, 0);
  trigger_.assign(num_cells, 0);
  pending_.assign((num_cells + 63) / 64, 0);
  pending_words_.assign((pending_.size() + 63) / 64, 0);
  any_pending_ = false;
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
  vcd_cycle_ = 0;
  po_snapshot_.assign(po_nets_.size(), 0);
  clock_worklist_.clear();
  nested_clock_changes_.clear();

  // Constants, then settle the whole combinational network once. Every
  // lane starts from the same state, so the settle is lane-uniform.
  evals_this_event_ = 0;
  for (const std::uint32_t net : reset_high_) values_[net] = lane_mask_;
  std::vector<std::uint32_t> clock_cells;
  for (std::uint32_t c = 0; c < num_cells; ++c) {
    if (!alive_[c]) continue;
    if (is_clock_cell(kind_[c])) {
      clock_cells.push_back(c);
    } else if (is_combinational(kind_[c]) || is_latch(kind_[c])) {
      // Latches are enqueued too: init values can leave a transparent latch
      // with D != Q, which no event would otherwise reconcile. The initial
      // settle runs every lane.
      schedule(c, lane_mask_);
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
  // boundary open their latches now.
  clock_event(netlist_.clocks().period_ps - 1);
  propagate_data();

  // Settling is bookkeeping, not activity.
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
}

void WideSimulator::clear_stats() {
  stats_.net_toggles.assign(netlist_.num_nets(), 0);
  stats_.cycles = 0;
}

void WideSimulator::step(std::span<const std::uint64_t> pi_words) {
  require(pi_words.size() == pi_nets_.size(),
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

    // 1-2. Root clock transitions, the clock network, register update.
    clock_event(t);

    // 3. Primary-input changes at t = 0 (after registers sampled the old
    //    values), lane-packed.
    if (t == 0) {
      for (std::size_t i = 0; i < pi_nets_.size(); ++i) {
        const std::uint32_t net = pi_nets_[i];
        const std::uint64_t word = pi_words[i] & lane_mask_;
        const std::uint64_t diff = values_[net] ^ word;
        if (diff != 0) {
          set_net(net, word);
          enqueue_fanouts(net, diff);
        }
      }
    }

    // 4. Data propagation (handles nested clock events from illegal gating).
    propagate_data();

    if (event_index == snapshot) {
      for (std::size_t i = 0; i < po_nets_.size(); ++i) {
        po_snapshot_[i] = values_[po_nets_[i]];
      }
    }
    ++event_index;
  }
}

void WideSimulator::clock_event(std::int64_t t) {
  // Root clock transitions (lane-uniform words), then zero-delay
  // clock-network propagation, then the atomic register update on the
  // settled clock state.
  const ClockSpec& clocks = netlist_.clocks();
  event_clock_changes_.clear();
  for (const PhaseWaveform& w : clocks.phases) {
    const std::uint64_t word =
        phase_level(w, clocks.period_ps, t) ? lane_mask_ : 0;
    const std::uint32_t root = w.root.value();
    if (values_[root] != word) {
      set_net(root, word);
      event_clock_changes_.push_back(root);
      queue_clock_sinks(root);
    }
  }
  propagate_clock_network(event_clock_changes_);
  update_registers(event_clock_changes_);
}

std::uint64_t WideSimulator::icg_transparent(std::uint32_t cell) const {
  if (kind_[cell] == CellKind::kIcg) {
    // Internal latch open while CK low.
    return ~values_[in_net(cell, 1)] & lane_mask_;
  }
  // kIcgM1: internal latch open while the borrowed phase pin PB is high.
  return values_[in_net(cell, 2)];
}

void WideSimulator::queue_clock_sinks(std::uint32_t net) {
  for (const std::uint32_t cell : clock_sinks_.of(net)) {
    clock_worklist_.push_back(cell);
  }
}

void WideSimulator::propagate_clock_network(
    std::vector<std::uint32_t>& changed_clock_nets) {
  while (!clock_worklist_.empty()) {
    const std::uint32_t id = clock_worklist_.back();
    clock_worklist_.pop_back();
    std::uint64_t out = 0;
    switch (kind_[id]) {
      case CellKind::kClkBuf:
        out = values_[in_net(id, 0)];
        break;
      case CellKind::kClkInv:
        out = ~values_[in_net(id, 0)] & lane_mask_;
        break;
      case CellKind::kIcgNoLatch:
        out = values_[in_net(id, 0)] & values_[in_net(id, 1)];
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1: {
        // Per-lane mux of the internal enable latch: transparent lanes
        // track EN, opaque lanes hold. Lanes whose inputs did not change
        // reproduce their current state, so evaluating the cell on another
        // lane's behalf is a per-lane no-op (bit-identity contract).
        const std::uint64_t transp = icg_transparent(id);
        std::uint64_t& state = icg_state_[id];
        state = (transp & values_[in_net(id, 0)]) | (~transp & state);
        out = state & values_[in_net(id, 1)];
        break;
      }
      case CellKind::kClkDiv2: {
        // Lanes whose input just rose toggle the divider state; repeat
        // evaluation without an input change flips nothing (rising == 0).
        const std::uint64_t ck = values_[in_net(id, 0)];
        const std::uint64_t rising = ck & ~last_clock_[id];
        last_clock_[id] = ck;
        std::uint64_t& state = icg_state_[id];
        state ^= rising;
        out = state & lane_mask_;
        break;
      }
      default:
        continue;  // non-clock cells never enter this worklist
    }
    const std::uint32_t net = out_[id];
    if (out != values_[net]) {
      set_net(net, out);
      changed_clock_nets.push_back(net);
      queue_clock_sinks(net);
    }
  }
}

void WideSimulator::update_registers(
    const std::vector<std::uint32_t>& changed_clock_nets) {
  // Read phase: decide every register's new output from pre-update values.
  // `changed` restricts each write to the lanes whose clock net actually
  // transitioned this event — the other lanes were not processed by the
  // scalar engine either (their clock did not move), so touching them
  // would break the per-lane decomposition.
  writes_.clear();
  for (const std::uint32_t net : changed_clock_nets) {
    const std::uint64_t level = values_[net];
    for (const std::uint32_t reg : reg_sinks_.of(net)) {
      const std::uint64_t changed = level ^ last_clock_[reg];
      std::uint64_t mask = 0;
      std::uint64_t data = 0;
      switch (kind_[reg]) {
        case CellKind::kDff:
        case CellKind::kLatchP:  // hold-clean pulsed latch: edge sample
        case CellKind::kLatchH:
          // Rising lanes sample D. For kLatchH this is exactly the scalar
          // behavior too: open-and-unchanged lanes already track D through
          // evaluate_cell, only the lanes whose gate just rose are written
          // here.
          mask = changed & level;
          data = values_[in_net(reg, 0)];
          break;
        case CellKind::kDffEn: {
          mask = changed & level;
          const std::uint64_t en = values_[in_net(reg, 1)];
          data = (en & values_[in_net(reg, 0)]) | (~en & values_[out_[reg]]);
          break;
        }
        case CellKind::kLatchL:
          mask = changed & ~level;  // lanes whose gate just fell (opened)
          data = values_[in_net(reg, 0)];
          break;
        case CellKind::kDffDet:  // dual-edge: any toggling lane samples
          mask = changed;
          data = values_[in_net(reg, 0)];
          break;
        default:
          break;
      }
      last_clock_[reg] = level;
      if (mask != 0) writes_.push_back({reg, mask, data});
    }
  }
  // Write phase: apply simultaneously and seed data propagation.
  for (const Write& w : writes_) {
    const std::uint32_t out = out_[w.cell];
    const std::uint64_t q = values_[out];
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

void WideSimulator::set_net(std::uint32_t net, std::uint64_t word) {
  std::uint64_t& slot = values_[net];
  stats_.net_toggles[net] +=
      static_cast<std::uint64_t>(std::popcount(slot ^ word));
  if (vcd_ != nullptr && ((slot ^ word) & 1u) != 0) {
    *vcd_ << ((word & 1u) ? '1' : '0') << vcd_id(net) << "\n";
  }
  slot = word;
}

void WideSimulator::schedule(std::uint32_t cell, std::uint64_t lanes) {
  trigger_[cell] |= lanes;
  pending_[cell / 64] |= std::uint64_t{1} << (cell % 64);
  pending_words_[cell / 4096] |= std::uint64_t{1} << (cell / 64 % 64);
  any_pending_ = true;
}

void WideSimulator::enqueue_fanouts(std::uint32_t net,
                                    std::uint64_t changed_lanes) {
  for (const std::uint32_t cell : data_sinks_.of(net)) {
    schedule(cell, changed_lanes);
  }
  // Enable or clock input of a clock cell changed from the data side:
  // processed as a nested clock event after the current wave.
  queue_clock_sinks(net);
  // Data driving a register clock pin — only possible in illegal designs;
  // also a nested clock event. One entry per net suffices: a repeat would
  // find every sink's last_clock_ already at the new level.
  if (!reg_sinks_.of(net).empty()) nested_clock_changes_.push_back(net);
}

void WideSimulator::evaluate_cell(std::uint32_t cell, std::uint64_t trigger) {
  if (++evals_this_event_ > options_.max_evals_per_event) {
    throw Error("WideSimulator: propagation did not settle (oscillation?)");
  }
  const CellKind kind = kind_[cell];
  const std::uint32_t* ins = in_nets_.data() + in_begin_[cell];
  const std::uint32_t out = out_[cell];
  const std::uint64_t old = values_[out];
  std::uint64_t eval = 0;
  if (is_latch(kind)) {
    const std::uint64_t gate = values_[ins[1]];
    const std::uint64_t open =
        (kind == CellKind::kLatchH ? gate : ~gate) & lane_mask_;
    eval = (open & values_[ins[0]]) | (~open & old);
  } else {
    // Plain combinational gate, word-wide.
    const std::size_t n = in_begin_[cell + 1] - in_begin_[cell];
    std::uint64_t words[3] = {};
    for (std::size_t i = 0; i < n; ++i) words[i] = values_[ins[i]];
    eval = eval_comb_word(kind, std::span<const std::uint64_t>(words, n)) &
           lane_mask_;
  }
  // Only lanes whose fanin changed (the trigger mask) may take the new
  // value: a lane pulled into this union wave by another lane's change
  // keeps its old output here and re-runs in the wave its own scalar
  // schedule would have used (its fanin change re-enqueued this cell).
  const std::uint64_t next = (trigger & eval) | (~trigger & old);
  if (next != old) {
    set_net(out, next);
    enqueue_fanouts(out, old ^ next);
  }
}

void WideSimulator::take_wave() {
  // Reading the bitmap in ascending bit order yields the canonical wave
  // order (ascending cell id), shared with the scalar engine: the union
  // wave evaluates cells in the same order every lane's scalar wave would,
  // so per-lane toggle counts decompose. The trigger masks are snapshotted
  // before any evaluation: a fanin change produced *during* this wave must
  // trigger the cell in the next wave (its scalar wave membership), not
  // retroactively in this one.
  wave_.clear();
  wave_trigger_.clear();
  for (std::size_t s = 0; s < pending_words_.size(); ++s) {
    std::uint64_t words = pending_words_[s];
    pending_words_[s] = 0;
    while (words != 0) {
      const std::size_t w = s * 64 + static_cast<std::size_t>(
                                         std::countr_zero(words));
      words &= words - 1;
      std::uint64_t bits = pending_[w];
      pending_[w] = 0;
      while (bits != 0) {
        const auto cell = static_cast<std::uint32_t>(
            w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
        bits &= bits - 1;
        wave_.push_back(cell);
        wave_trigger_.push_back(trigger_[cell]);
        trigger_[cell] = 0;
      }
    }
  }
  any_pending_ = false;
}

void WideSimulator::propagate_data() {
  for (;;) {
    while (any_pending_) {
      take_wave();
      for (std::size_t i = 0; i < wave_.size(); ++i) {
        evaluate_cell(wave_[i], wave_trigger_[i]);
      }
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
