// Bit-parallel (64-lane) gate-level simulator.
//
// WideSimulator packs up to 64 independent stimulus lanes into one
// std::uint64_t per net and evaluates the whole netlist word-wise:
// combinational gates become word AND/OR/XOR (eval_comb_word), latches
// per-lane muxes Q = (open & D) | (~open & Q), ICG/kIcgM1 internal-latch
// state a word, and edge-sampled DFFs per-lane rise masks. Toggle counts
// accumulate popcount(old ^ new), so ActivityStats stays exact — it is the
// sum over lanes, and ActivityStats::cycles advances by the lane count per
// step so toggle_rate() remains an average per simulated cycle.
//
// Bit-identity contract (tests/wide_sim_test.cpp): for any netlist and any
// stimulus lanes, lane i of a wide run is bit-identical to a scalar
// Simulator run driven with stimulus stream i — same per-cycle output
// stream, same per-net toggle trajectory — and the wide ActivityStats
// equals the per-lane scalar stats summed. This holds because both engines
// share the same event schedule (one event per distinct phase edge time,
// PIs change at t = 0, nested clock events from illegal gating) and the
// same canonical ascending cell-id order within each propagation wave, and
// because every evaluation is gated by a per-cell *trigger mask* — the
// union of lanes whose fanin actually changed since the cell last ran.
// Only triggered lanes take the new value; a lane enqueued into a later
// wave by its own fanin change keeps its scalar wave membership even when
// another lane pulls the cell into an earlier union wave, so per-lane
// glitch/toggle trajectories decompose exactly. See docs/simulation.md.
//
// The output-stream snapshot protocol is the scalar one (snapshot_event()
// in src/sim/schedule.hpp); outputs() returns one packed word per primary
// output. A VCD waveform is a per-lane concept: start_vcd()
// records lane 0.
//
// Compiled view: the constructor flattens the netlist once into per-cell
// arrays (kind, alive, output net, an input-net CSR) and three per-net
// fanout CSRs, each in the net's fanout order: the data sinks a value
// change re-evaluates (gates and latch D pins; FF data pins, outputs and
// dead cells dropped), the clock-cell sinks it queues, and the register
// clock-pin sinks update_registers samples (from the data side, a nested
// clock event). The hot loops read only these arrays, never Cell/Net.
// The netlist must therefore not be edited while a simulator on it lives
// (the data-PI list and the event times are snapshotted as well).
//
// Each propagation wave is a two-level bitmap over cell ids — one bit per
// cell plus one summary bit per 64-cell word — so reading it yields the
// canonical ascending-id wave directly, with no per-wave sort.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"
#include "src/sim/simulator.hpp"

namespace tp {

/// Lanes per word — the hard upper bound on WideSimulator lanes.
inline constexpr std::size_t kMaxSimLanes = 64;

class WideSimulator {
 public:
  /// `lanes` must be in [1, kMaxSimLanes]. SimOptions means exactly what
  /// it means for the scalar engine.
  WideSimulator(const Netlist& netlist, std::size_t lanes,
                SimOptions options = {});

  /// Resets all lanes: nets to 0, register/ICG state to the init values,
  /// statistics cleared, combinational network settled, schedule parked at
  /// the end of the previous cycle — the scalar reset() word-wide.
  void reset();

  /// Simulates one full clock cycle in every lane. `pi_words` holds one
  /// lane-packed word per data primary input (Netlist::data_inputs()
  /// order): bit i is the value lane i applies at t = 0.
  void step(std::span<const std::uint64_t> pi_words);

  /// Lane-packed primary-output snapshot of the last step(), taken after
  /// the snapshot event, in Netlist::outputs() order.
  [[nodiscard]] const std::vector<std::uint64_t>& outputs() const {
    return po_snapshot_;
  }

  /// Current lane-packed value word of a net.
  [[nodiscard]] std::uint64_t value_word(NetId net) const {
    return values_[net.value()];
  }

  /// Value of a net in one lane.
  [[nodiscard]] bool value(NetId net, std::size_t lane) const {
    return (values_[net.value()] >> lane) & 1u;
  }

  /// Lane-packed internal enable-latch state of a kIcg/kIcgM1 cell (the
  /// toggle state of a kClkDiv2). The equivalence checker reads lane 0
  /// after reset to extract the clock-gating network's reset state.
  [[nodiscard]] std::uint64_t icg_state_word(CellId cell) const {
    return icg_state_[cell.value()];
  }

  /// Summed-over-lanes activity. cycles advances by lanes() per step.
  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  void clear_stats();

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  /// Mask with bit i set for every active lane i.
  [[nodiscard]] std::uint64_t lane_mask() const { return lane_mask_; }

  /// Starts dumping a VCD waveform of every live net in lane 0 to `out`
  /// (header emitted immediately, one timestep per intra-cycle event). The
  /// stream must outlive the simulator or be detached with stop_vcd().
  void start_vcd(std::ostream& out);
  void stop_vcd() { vcd_ = nullptr; }

 private:
  /// A per-net CSR: the items of net n are items[begin[n] .. begin[n+1]).
  struct NetLists {
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> items;
    [[nodiscard]] std::span<const std::uint32_t> of(std::uint32_t net) const {
      return {items.data() + begin[net], items.data() + begin[net + 1]};
    }
  };

  void compile();
  void clock_event(std::int64_t t);
  void propagate_clock_network(std::vector<std::uint32_t>& changed_clock_nets);
  void update_registers(const std::vector<std::uint32_t>& changed_clock_nets);
  void propagate_data();
  void take_wave();
  void evaluate_cell(std::uint32_t cell, std::uint64_t trigger);
  void set_net(std::uint32_t net, std::uint64_t word);
  void enqueue_fanouts(std::uint32_t net, std::uint64_t changed_lanes);
  void schedule(std::uint32_t cell, std::uint64_t lanes);
  void queue_clock_sinks(std::uint32_t net);

  /// Lane mask of lanes whose ICG internal latch is transparent.
  [[nodiscard]] std::uint64_t icg_transparent(std::uint32_t cell) const;
  [[nodiscard]] std::uint32_t in_net(std::uint32_t cell, int pin) const {
    return in_nets_[in_begin_[cell] + static_cast<std::uint32_t>(pin)];
  }

  const Netlist& netlist_;
  SimOptions options_;
  std::size_t lanes_ = 1;
  std::uint64_t lane_mask_ = 1;

  // Compiled view (see the file comment), built once by compile().
  std::vector<CellKind> kind_;          // per cell
  std::vector<std::uint8_t> alive_;     // per cell
  std::vector<std::uint32_t> out_;      // per cell: output net
  std::vector<std::uint32_t> in_begin_;  // per cell: CSR into in_nets_
  std::vector<std::uint32_t> in_nets_;
  NetLists data_sinks_;   // per net: gates and latch D pins it drives
  NetLists clock_sinks_;  // per net: clock cells it drives (any pin)
  NetLists reg_sinks_;    // per net: registers whose clock pin it drives
  std::vector<std::uint32_t> reset_high_;  // Const1 and init-1 register nets
  std::vector<std::uint32_t> pi_nets_;  // Netlist::data_inputs() nets
  std::vector<std::uint32_t> po_nets_;  // Netlist::outputs() source nets
  std::vector<std::int64_t> event_times_;  // distinct edge times in a cycle

  std::vector<std::uint64_t> values_;     // per net, lane-packed
  std::vector<std::uint64_t> icg_state_;  // per cell: ICG enable latch
  std::vector<std::uint64_t> last_clock_;  // per cell: last clock-pin word

  // The next data wave: bit c of pending_ marks cell c, bit w of
  // pending_words_ marks a nonzero pending_[w]. Ascending bit order is the
  // canonical wave order.
  std::vector<std::uint64_t> pending_;
  std::vector<std::uint64_t> pending_words_;
  bool any_pending_ = false;
  std::vector<std::uint32_t> wave_;  // the wave being evaluated
  // Per cell: lanes whose fanin changed since the cell last evaluated.
  // Consumed (snapshotted into wave_trigger_, then zeroed) at the start of
  // each wave so same-wave fanin changes re-trigger for the *next* wave,
  // exactly like each lane's scalar schedule.
  std::vector<std::uint64_t> trigger_;
  std::vector<std::uint64_t> wave_trigger_;  // aligned with wave_

  // Clock-network worklist reused across events.
  std::vector<std::uint32_t> clock_worklist_;
  // Clock nets changed during *data* propagation in some lane (illegal
  // gating); drained as nested clock events.
  std::vector<std::uint32_t> nested_clock_changes_;

  // Reused scratch (mirrors the scalar engine's allocation-free hot path).
  std::vector<std::uint32_t> event_clock_changes_;
  struct Write {
    std::uint32_t cell;
    std::uint64_t mask;  // lanes that sample this event
    std::uint64_t data;  // lane-packed value to sample
  };
  std::vector<Write> writes_;
  std::vector<std::uint32_t> nested_scratch_;

  ActivityStats stats_;
  std::vector<std::uint64_t> po_snapshot_;
  std::uint64_t evals_this_event_ = 0;

  std::ostream* vcd_ = nullptr;  // lane-0 VCD sink; null when disabled
  std::uint64_t vcd_cycle_ = 0;  // steps since reset(): the VCD clock
};

}  // namespace tp
