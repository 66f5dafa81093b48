// Gate-level netlist: cells, nets, clock phases.
//
// A Netlist is a flat single-module gate-level design. Cells are typed by
// CellKind (see cell_kind.hpp); every cell has positional input nets and at
// most one output net. A cell stores its input nets inline (PinList: no
// kind has more than three inputs), so cells own no heap block for their
// pins. Nets record their driver and full fanout (cell, pin) list so
// transformations can rewire in O(degree).
//
// Clocking: clock phases are modeled explicitly. Each phase has a root net
// driven by a kInput pseudo-cell; gated-clock logic (ICGs, clock buffers) is
// instantiated on the netlist like any other cell, so the simulator, the
// clock-tree model, and the power engine all see the real clock network.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/netlist/cell_kind.hpp"
#include "src/util/ids.hpp"
#include "src/util/log.hpp"

namespace tp {

/// Clock phase tag. A flip-flop design uses kClk; the intermediate retiming
/// netlist uses kClk/kClkBar; a 3-phase design uses kP1/kP2/kP3.
enum class Phase : std::uint8_t { kNone, kClk, kClkBar, kP1, kP2, kP3 };

std::string_view phase_name(Phase phase);

/// One phase of the clock: a root net plus its rise/fall times inside the
/// common cycle (times in picoseconds, 0 <= rise < fall <= period is not
/// required: a waveform may also wrap, but all waveforms in this project use
/// rise < fall <= period).
struct PhaseWaveform {
  Phase phase = Phase::kNone;
  NetId root;
  std::int64_t rise_ps = 0;
  std::int64_t fall_ps = 0;

  friend bool operator==(const PhaseWaveform&,
                         const PhaseWaveform&) = default;
};

/// The design's clocking plan: a common period and one waveform per phase.
struct ClockSpec {
  std::int64_t period_ps = 0;
  std::vector<PhaseWaveform> phases;

  [[nodiscard]] const PhaseWaveform* find(Phase phase) const;
  [[nodiscard]] NetId root(Phase phase) const;

  friend bool operator==(const ClockSpec&, const ClockSpec&) = default;
};

/// Returns the canonical waveforms used throughout the project:
///  - single-phase FF clock: high [0, T/2)
///  - clk/clkbar (retiming intermediate): clk high [0, T/2), clkbar [T/2, T)
///  - 3-phase: p1 high [0, T/3), p2 [T/3, 2T/3), p3 [2T/3, T)
/// (Phase closing edges e1 <= e2 <= e3 = Tc as in the SMO model, Sec. II.)
ClockSpec single_phase_spec(std::int64_t period_ps, NetId clk_root);
ClockSpec two_phase_spec(std::int64_t period_ps, NetId clk_root,
                         NetId clkbar_root);
ClockSpec three_phase_spec(std::int64_t period_ps, NetId p1_root,
                           NetId p2_root, NetId p3_root);

/// A (cell, input-pin) endpoint; element of a net's fanout list.
struct PinRef {
  CellId cell;
  std::uint32_t pin = 0;

  friend bool operator==(const PinRef&, const PinRef&) = default;
};

/// A cell's positional input nets, held inline. No CellKind has more than
/// kMaxPins inputs; adding a fourth pin throws tp::Error. Reads like a
/// small vector (size, [], iteration, ==) but never allocates.
class PinList {
 public:
  static constexpr std::size_t kMaxPins = 3;

  PinList() = default;
  PinList(std::initializer_list<NetId> nets) {
    for (const NetId net : nets) push_back(net);
  }

  void push_back(NetId net) {
    require(size_ < kMaxPins, "PinList: a cell has at most 3 input pins");
    nets_[size_++] = net;
  }
  void clear() { *this = PinList(); }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  NetId& operator[](std::size_t pin) { return nets_[pin]; }
  NetId operator[](std::size_t pin) const { return nets_[pin]; }
  [[nodiscard]] NetId front() const { return nets_[0]; }
  [[nodiscard]] const NetId* begin() const { return nets_.data(); }
  [[nodiscard]] const NetId* end() const { return nets_.data() + size_; }

  friend bool operator==(const PinList& a, const PinList& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  std::array<NetId, kMaxPins> nets_{};
  std::uint8_t size_ = 0;
};

struct Cell {
  CellKind kind = CellKind::kBuf;
  std::string name;
  PinList ins;
  NetId out;
  /// For registers and clock cells: which phase the cell's clock pin belongs
  /// to. Kept redundantly with the clock network so that transforms can
  /// reason about phases without tracing the clock tree each time.
  Phase phase = Phase::kNone;
  /// Reset value of the stored state (registers only). Forward retiming
  /// recomputes this for moved latches — the state encoding changes.
  std::uint8_t init = 0;
  bool alive = true;
};

struct Net {
  std::string name;
  CellId driver;
  std::vector<PinRef> fanouts;
  /// True for nets on the clock network (phase roots, ICG/clock-buffer
  /// outputs). Set by add_cell for clock cells and by mark_clock_net.
  bool is_clock = false;
  bool alive = true;
};

/// A declared asynchronous reset root (metadata — the model has no reset
/// pins; register reset state lives in Cell::init). `release_order` ranks
/// de-assertion time across roots: a larger value is released later. The
/// reset-domain analysis (A6, src/analysis/domains.cpp) flags data paths
/// from a root released no earlier than the destination's.
struct ResetRoot {
  NetId net;
  bool active_low = true;
  int release_order = 0;
};

class Netlist {
 public:
  explicit Netlist(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  // --- construction -------------------------------------------------------

  NetId add_net(std::string name);

  /// Adds a cell. `ins` must match num_inputs(kind); `out` must be a valid
  /// net with no existing driver (or invalid for kOutput). Fanout lists are
  /// maintained automatically.
  CellId add_cell(CellKind kind, std::string name, PinList ins, NetId out,
                  Phase phase = Phase::kNone);

  /// Convenience: creates the output net "<name>" and the cell driving it.
  CellId add_gate(CellKind kind, std::string name, PinList ins,
                  Phase phase = Phase::kNone);

  /// Registers a primary input/output. PIs are kInput cells, POs kOutput
  /// cells; the registration order defines the stimulus/response ordering.
  CellId add_input(std::string name);
  CellId add_output(std::string name, NetId src);

  // --- mutation (used by the conversion transforms) ------------------------

  /// Reconnects input pin `pin` of `cell` to `net`, updating fanout lists.
  void replace_input(CellId cell, std::uint32_t pin, NetId net);

  /// Moves every fanout of `from` onto `to` (i.e. "to replaces from" as the
  /// signal consumers see it). `from` keeps its driver.
  void transfer_fanouts(NetId from, NetId to);

  /// Deletes a cell: detaches all pins, frees its output net's driver slot.
  /// The cell id becomes dead (alive == false); ids are never reused.
  void remove_cell(CellId cell);

  /// Deletes a dead net (no driver and no fanouts required).
  void remove_net(NetId net);

  /// Changes a cell's kind. The new kind must have the same number of input
  /// pins unless new input nets are supplied.
  void morph_cell(CellId cell, CellKind kind);
  void morph_cell(CellId cell, CellKind kind, PinList ins);

  void set_phase(CellId cell, Phase phase);
  void set_init(CellId cell, bool init);
  void mark_clock_net(NetId net, bool is_clock = true);

  // --- access --------------------------------------------------------------

  [[nodiscard]] std::size_t num_cells() const { return cells_.size(); }
  [[nodiscard]] std::size_t num_nets() const { return nets_.size(); }

  [[nodiscard]] const Cell& cell(CellId id) const {
    return cells_[id.value()];
  }
  [[nodiscard]] const Net& net(NetId id) const { return nets_[id.value()]; }

  [[nodiscard]] const std::vector<CellId>& inputs() const { return inputs_; }
  [[nodiscard]] const std::vector<CellId>& outputs() const {
    return outputs_;
  }

  /// Data (non-clock) primary inputs, in registration order.
  [[nodiscard]] std::vector<CellId> data_inputs() const;

  [[nodiscard]] ClockSpec& clocks() { return clocks_; }
  [[nodiscard]] const ClockSpec& clocks() const { return clocks_; }

  /// Ids of all live cells / registers, in id order.
  [[nodiscard]] std::vector<CellId> live_cells() const;
  [[nodiscard]] std::vector<CellId> registers() const;

  /// Number of live cells satisfying a kind predicate.
  template <class Pred>
  [[nodiscard]] std::size_t count_cells(Pred pred) const {
    std::size_t n = 0;
    for (const auto& c : cells_) {
      if (c.alive && pred(c.kind)) ++n;
    }
    return n;
  }

  /// Throws tp::Error when the netlist is structurally inconsistent:
  /// dangling pins, multiply-driven nets, fanout-list mismatches, or pin
  /// counts disagreeing with the cell kind.
  void validate() const;

  /// Declares a clock root: marks the input cell's net as a clock and tags
  /// the phase. The cell must be a kInput.
  void set_clock_root(CellId input_cell, Phase phase);

  // --- reset metadata ------------------------------------------------------

  /// Declares an async reset root on a kInput cell's net. Pure metadata:
  /// the net carries no simulated reset waveform and registers have no
  /// reset pin — only the domain analysis (A6) consumes it.
  void declare_reset_root(CellId input_cell, bool active_low,
                          int release_order);

  /// Associates a register with a declared reset root's net (or any net
  /// that buffers/inverts one). Overwrites a previous association.
  void set_reset(CellId reg, NetId reset_net);

  /// The reset net associated with `reg`, or an invalid NetId.
  [[nodiscard]] NetId reset_of(CellId reg) const;

  [[nodiscard]] const std::vector<ResetRoot>& reset_roots() const {
    return reset_roots_;
  }
  /// Sparse register -> reset-net map (cell id value keyed). Iteration
  /// order is unspecified; sort by key for deterministic output.
  [[nodiscard]] const std::unordered_map<std::uint32_t, NetId>&
  reset_assignments() const {
    return reset_of_;
  }

  // --- edit counter --------------------------------------------------------

  /// Grows with every call to the mutators above, add_net included. A
  /// reader that saw the same count saw the same cells, nets, phases,
  /// inits, clock-net marks and reset metadata. The clock plan is
  /// not counted (clocks() hands out a mutable reference), so readers that
  /// cache over it compare the ClockSpec as well.
  [[nodiscard]] std::uint64_t edits() const { return edits_; }

  /// Does nothing: every netlist counts its edits. Kept so that callers
  /// written against the former per-edit journal still build.
  void enable_journal() {}

 private:
  std::string name_;
  std::vector<Cell> cells_;
  std::vector<Net> nets_;
  std::vector<CellId> inputs_;
  std::vector<CellId> outputs_;
  ClockSpec clocks_;
  std::vector<ResetRoot> reset_roots_;
  std::unordered_map<std::uint32_t, NetId> reset_of_;
  std::uint64_t edits_ = 0;
};

/// Inserts a transparent-high latch on phase `phase` at net `q`: all
/// existing fanouts of `q` move to the latch output. Returns the new latch.
CellId insert_latch_after(Netlist& netlist, NetId q, NetId gate_root,
                          Phase phase, const std::string& name);

}  // namespace tp
