// Event-driven gate-level simulator with multi-phase clocking.
//
// Gate-level simulation plays two roles in the paper: (1) validating that
// the FF-based, master-slave, and 3-phase variants of a design produce
// identical output streams, and (2) extracting per-net switching activity
// that drives data-driven clock gating and the power model. The flow, SEC
// and counterexample replay run the bit-parallel WideSimulator
// (src/sim/wide_sim.hpp); this scalar engine is the reference it is
// tested against, one lane at a time.
//
// Model:
//  - The clock network (phase roots, clock buffers, ICGs) propagates with
//    zero delay — the ideal post-CTS clock assumption. Registers on nets
//    that rise in the same instant sample atomically (read-all-then-write),
//    so shift chains behave correctly.
//  - Data propagates with unit gate delay, so combinational glitches are
//    visible in the toggle statistics — glitch power is one of the effects
//    the paper discusses.
//  - Within one clock cycle the simulator processes one event per distinct
//    phase edge time; primary inputs change at t = 0 (the paper treats PIs
//    as if clocked by p1).
//
// Output-stream protocol: primary outputs are snapshotted after the event
// snapshot_event() (src/sim/schedule.hpp) derives from the clock plan
// settles. For single-phase designs (FF, master-slave) the t = 0 event
// (index 0) is the instant at which every register output carries the
// logical cycle-n state. For multi-phase designs that instant is after the
// second event (index 1; T/3 for 3-phase): p1 latches have closed on x_n,
// p3 latches still hold x_n, and the inserted p2 latches are transparent
// and pass x_n — so all register-side signals agree with the FF design's
// cycle-n state and the styles are directly comparable.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "src/netlist/netlist.hpp"

namespace tp {

struct SimOptions {
  /// Abort threshold for non-settling (oscillating) propagation.
  std::uint64_t max_evals_per_event = 50'000'000;
  /// Overrides the event index after which primary outputs are snapshotted
  /// (clamped to the cycle's last event). Unset derives it from the clock
  /// plan with snapshot_event(), the rule every flow, SEC and replay uses.
  std::optional<int> snapshot_event;
};

/// Per-net toggle counts accumulated over simulated cycles.
struct ActivityStats {
  std::vector<std::uint64_t> net_toggles;
  std::uint64_t cycles = 0;

  /// Average toggles per cycle for a net (0 when no cycles were run).
  [[nodiscard]] double toggle_rate(NetId net) const {
    return cycles == 0
               ? 0.0
               : static_cast<double>(net_toggles[net.value()]) /
                     static_cast<double>(cycles);
  }
};

class Simulator {
 public:
  explicit Simulator(const Netlist& netlist, SimOptions options = {});

  /// Resets all state: nets to 0, register/ICG internal state to 0,
  /// statistics cleared, and the combinational network settled.
  void reset();

  /// Simulates one full clock cycle. `pi_values` are the values of the data
  /// primary inputs (in Netlist::data_inputs() order, 0/1), applied at t = 0
  /// and held for the cycle.
  void step(std::span<const std::uint8_t> pi_values);

  /// Primary-output snapshot of the last step(), taken after the snapshot
  /// event (see the output-stream protocol above), in Netlist::outputs()
  /// order.
  [[nodiscard]] const std::vector<std::uint8_t>& outputs() const {
    return po_snapshot_;
  }

  [[nodiscard]] bool value(NetId net) const {
    return values_[net.value()] != 0;
  }

  [[nodiscard]] const ActivityStats& stats() const { return stats_; }
  void clear_stats();

 private:
  void propagate_clock_network(std::vector<NetId>& changed_clock_nets);
  void update_registers(const std::vector<NetId>& changed_clock_nets);
  void propagate_data();
  void evaluate_cell(CellId cell);
  void set_net(NetId net, bool value);
  void enqueue_fanouts(NetId net);

  [[nodiscard]] bool icg_transparent(const Cell& cell) const;

  const Netlist& netlist_;
  SimOptions options_;

  std::vector<char> values_;      // per net
  std::vector<char> icg_state_;   // per cell: ICG internal enable latch
  std::vector<char> last_clock_;  // per cell: last seen clock-pin value
  std::vector<std::int64_t> event_times_;  // distinct edge times in a cycle
  std::vector<CellId> data_pis_;  // cached Netlist::data_inputs()

  // Data-propagation worklists (current / next tick).
  std::vector<CellId> tick_now_;
  std::vector<CellId> tick_next_;
  std::vector<char> queued_;  // per cell: already in tick_next_

  // Clock-network worklist reused across events.
  std::vector<CellId> clock_worklist_;
  // Clock nets whose value changed during *data* propagation (illegal clock
  // gating makes this possible); processed as nested clock events.
  std::vector<NetId> nested_clock_changes_;

  // Scratch buffers reused across events so the per-cycle hot path does not
  // allocate: clock nets changed by the current event, deferred register
  // writes, and the nested-clock-changes snapshot drained per round.
  std::vector<NetId> event_clock_changes_;
  struct Write {
    CellId cell;
    bool q;
  };
  std::vector<Write> writes_;
  std::vector<NetId> nested_scratch_;

  ActivityStats stats_;
  std::vector<std::uint8_t> po_snapshot_;
  std::uint64_t evals_this_event_ = 0;
};

}  // namespace tp
