#include "src/equiv/sec.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <initializer_list>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "src/equiv/sat.hpp"
#include "src/sim/schedule.hpp"
#include "src/sim/wide_sim.hpp"
#include "src/util/log.hpp"
#include "src/util/rng.hpp"

namespace tp::equiv {
namespace {

constexpr Lit kUnsetLit = 0xFFFFFFFFu;

/// map[node] translates a node; lifts to literals by carrying the edge's
/// complement bit across.
Lit apply_map(const std::vector<Lit>& map, Lit l) {
  return lit_xor(map[lit_node(l)], lit_neg(l));
}

Lit const_lit(bool v) { return v ? kLitTrue : kLitFalse; }

// ---------------------------------------------------------------------------
// One-cycle symbolic execution.
//
// Replays the simulator's schedule (src/sim/schedule.hpp) with AIG literals
// instead of bits: a park pseudo-event reconstructs the settled
// end-of-previous-cycle network from the abstract state variables, then
// each phase-edge event runs (1) clock sampling + atomic edge-register
// update from pre-event values, (2) a full recursive settle of every live
// net with level-transparent latches and ICG enable latches folded in as
// multiplexer functions.
// ---------------------------------------------------------------------------

class CycleBuilder {
 public:
  CycleBuilder(Aig& aig, const Netlist& netlist, std::span<const Lit> pi_prev,
               std::span<const Lit> pi_now)
      : aig_(aig), nl_(netlist), pi_prev_(pi_prev), pi_now_(pi_now) {
    require(nl_.clocks().period_ps > 0, "equiv: netlist has no clock spec");
    times_ = edge_times(nl_.clocks());
  }

  Machine build() {
    discover_state();
    index_nets();
    run_park();
    const int snapshot = std::min(snapshot_event(nl_.clocks()),
                                  static_cast<int>(times_.size()) - 1);
    for (std::size_t e = 0; e < times_.size(); ++e) {
      run_event(times_[e]);
      if (static_cast<int>(e) == snapshot) capture_outputs();
    }
    // End-of-cycle settle == park settle of the next cycle (event times are
    // exactly the change points, so nothing moves between the last event and
    // t = Tc-1).
    for (std::size_t i = 0; i < m_.regs.size(); ++i) {
      m_.next_state.push_back(prev_[nl_.cell(m_.regs[i]).out.value()]);
    }
    for (std::size_t j = 0; j < m_.icgs.size(); ++j) {
      m_.next_state.push_back(icg_prev_[j]);
    }
    return std::move(m_);
  }

 private:
  void discover_state() {
    reg_index_.assign(nl_.num_cells(), kInvalidIndex);
    icg_index_.assign(nl_.num_cells(), kInvalidIndex);
    for (const CellId id : nl_.live_cells()) {
      const Cell& cell = nl_.cell(id);
      if (is_register(cell.kind)) {
        reg_index_[id.value()] = static_cast<std::uint32_t>(m_.regs.size());
        m_.regs.push_back(id);
      } else if (cell.kind == CellKind::kIcg ||
                 cell.kind == CellKind::kIcgM1 ||
                 cell.kind == CellKind::kClkDiv2) {
        // Clock dividers share the ICG state slots: one bit of toggle state
        // per cell, read back from WideSimulator::icg_state_word at reset.
        icg_index_[id.value()] = static_cast<std::uint32_t>(m_.icgs.size());
        m_.icgs.push_back(id);
      }
    }
    for (std::size_t i = 0; i < m_.regs.size() + m_.icgs.size(); ++i) {
      m_.state_in.push_back(aig_.add_input());
    }
    reg_val_.assign(m_.regs.size(), kUnsetLit);
    icg_prev_.assign(m_.icgs.size(), kUnsetLit);
    icg_cur_.assign(m_.icgs.size(), kUnsetLit);
  }

  void index_nets() {
    root_wave_.assign(nl_.num_nets(), nullptr);
    for (const PhaseWaveform& w : nl_.clocks().phases) {
      root_wave_[w.root.value()] = &w;
    }
    pi_of_net_.assign(nl_.num_nets(), kInvalidIndex);
    const std::vector<CellId> pis = nl_.data_inputs();
    require(pis.size() == pi_prev_.size() && pis.size() == pi_now_.size(),
            "equiv: PI literal count mismatch");
    for (std::size_t i = 0; i < pis.size(); ++i) {
      pi_of_net_[nl_.cell(pis[i]).out.value()] =
          static_cast<std::uint32_t>(i);
    }
    live_nets_.clear();
    for (std::uint32_t n = 0; n < nl_.num_nets(); ++n) {
      const Net& net = nl_.net(NetId{n});
      if (net.alive && net.driver.valid() && nl_.cell(net.driver).alive) {
        live_nets_.push_back(NetId{n});
      }
    }
  }

  void run_park() {
    park_ = true;
    now_ = nl_.clocks().period_ps - 1;
    for (std::size_t i = 0; i < m_.regs.size(); ++i) {
      reg_val_[i] = m_.state_in[i];
    }
    for (std::size_t j = 0; j < m_.icgs.size(); ++j) {
      icg_prev_[j] = m_.state_in[m_.regs.size() + j];
    }
    cur_.assign(nl_.num_nets(), kUnsetLit);
    for (const NetId net : live_nets_) eval_net(net);
    for (Lit& l : cur_) {
      if (l == kUnsetLit) l = kLitFalse;  // dangling nets settle to 0
    }
    prev_ = std::move(cur_);
    park_ = false;
  }

  void run_event(std::int64_t t) {
    now_ = t;
    // Phase 1: clock sampling and atomic edge-register update from pre-event
    // values (the simulator's update_registers step).
    sample_.assign(nl_.num_nets(), kUnsetLit);
    for (std::size_t i = 0; i < m_.regs.size(); ++i) {
      const Cell& cell = nl_.cell(m_.regs[i]);
      if (!samples_on_edge(cell.kind)) {
        reg_val_[i] = kUnsetLit;  // latches settle recursively below
        continue;
      }
      const NetId ck_net = cell.ins[clock_pin(cell.kind)];
      const Lit ck_new = clk_sample(ck_net);
      // Dual-edge FFs trigger on any clock toggle; everything else on the
      // rising edge only.
      const Lit trigger =
          cell.kind == CellKind::kDffDet
              ? aig_.lxor(ck_new, prev_[ck_net.value()])
              : aig_.land(ck_new, lit_not(prev_[ck_net.value()]));
      const Lit held = prev_[cell.out.value()];
      Lit d = prev_[cell.ins[0].value()];
      if (cell.kind == CellKind::kDffEn) {
        d = aig_.lmux(prev_[cell.ins[1].value()], d, held);
      }
      reg_val_[i] = aig_.lmux(trigger, d, held);
    }
    // Phase 2: full settle of every live net.
    cur_.assign(nl_.num_nets(), kUnsetLit);
    icg_cur_.assign(m_.icgs.size(), kUnsetLit);
    for (const NetId net : live_nets_) eval_net(net);
    finalize_icg_states();
    for (Lit& l : cur_) {
      if (l == kUnsetLit) l = kLitFalse;
    }
    prev_ = std::move(cur_);
    cur_.clear();
    icg_prev_ = icg_cur_;
  }

  void capture_outputs() {
    // Called right after run_event moved the settle into prev_.
    for (const CellId out : nl_.outputs()) {
      m_.po.push_back(prev_[nl_.cell(out).ins[0].value()]);
    }
  }

  // --- clock sampling (register-update time: data nets at pre-event values)

  Lit clk_sample(NetId net) {
    const std::uint32_t n = net.value();
    if (sample_[n] != kUnsetLit) return sample_[n];
    const Net& wire = nl_.net(net);
    Lit v = kLitFalse;
    if (!wire.driver.valid()) {
      sample_[n] = v;
      return v;
    }
    const Cell& cell = nl_.cell(wire.driver);
    switch (cell.kind) {
      case CellKind::kInput:
        v = root_wave_[n] != nullptr
                ? const_lit(phase_level(*root_wave_[n],
                                        nl_.clocks().period_ps, now_))
                : prev_[n];
        break;
      case CellKind::kConst0:
        v = kLitFalse;
        break;
      case CellKind::kConst1:
        v = kLitTrue;
        break;
      case CellKind::kClkBuf:
        v = clk_sample(cell.ins[0]);
        break;
      case CellKind::kClkInv:
        v = lit_not(clk_sample(cell.ins[0]));
        break;
      case CellKind::kIcgNoLatch:
        v = aig_.land(prev_[cell.ins[0].value()], clk_sample(cell.ins[1]));
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1: {
        const Lit ck = clk_sample(cell.ins[1]);
        const Lit transp = cell.kind == CellKind::kIcg
                               ? lit_not(ck)
                               : clk_sample(cell.ins[2]);
        const Lit state =
            aig_.lmux(transp, prev_[cell.ins[0].value()],
                      icg_prev_[icg_index_[wire.driver.value()]]);
        v = aig_.land(state, ck);
        break;
      }
      case CellKind::kClkDiv2: {
        // The simulator's clock propagation toggles the divider before any
        // register samples, so registers see the post-toggle state.
        const Lit rising = aig_.land(clk_sample(cell.ins[0]),
                                     lit_not(prev_[cell.ins[0].value()]));
        v = aig_.lxor(icg_prev_[icg_index_[wire.driver.value()]], rising);
        break;
      }
      default:
        v = prev_[n];  // data logic feeding a clock pin: pre-event value
        break;
    }
    sample_[n] = v;
    return v;
  }

  // --- full settle --------------------------------------------------------

  void store_memo(NetId net, Lit v) {
    if (assume_.empty()) {
      cur_[net.value()] = v;
    } else {
      ctx_memo_.back()[net.value()] = v;
    }
  }

  Lit eval_net(NetId net) {
    const std::uint32_t n = net.value();
    if (cur_[n] != kUnsetLit) return cur_[n];
    // Values memoized under outer assumptions stay valid in nested contexts
    // (an assumption only prunes a case split; it never changes a value).
    for (const auto& memo : ctx_memo_) {
      if (const auto it = memo.find(n); it != memo.end()) return it->second;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(assume_.size()) << 32) | n;
    if (!onstack_.insert(key).second) {
      std::string msg = "equiv: combinational cycle through net '" +
                        nl_.net(net).name + "' of '" + nl_.name() + "': ";
      for (const NetId s : stack_) msg += nl_.net(s).name + " -> ";
      msg += nl_.net(net).name;
      throw Error(msg);
    }
    stack_.push_back(net);
    const Lit v = compute_net(net);
    stack_.pop_back();
    onstack_.erase(key);
    store_memo(net, v);
    return v;
  }

  Lit compute_net(NetId net) {
    const Net& wire = nl_.net(net);
    if (!wire.driver.valid()) return kLitFalse;
    const Cell& cell = nl_.cell(wire.driver);
    switch (cell.kind) {
      case CellKind::kInput: {
        if (root_wave_[net.value()] != nullptr) {
          return const_lit(phase_level(*root_wave_[net.value()],
                                       nl_.clocks().period_ps, now_));
        }
        const std::uint32_t pi = pi_of_net_[net.value()];
        if (pi != kInvalidIndex) return park_ ? pi_prev_[pi] : pi_now_[pi];
        return kLitFalse;  // undriven pseudo-input
      }
      case CellKind::kConst0:
        return kLitFalse;
      case CellKind::kConst1:
        return kLitTrue;
      case CellKind::kDff:
      case CellKind::kDffEn:
      case CellKind::kDffDet:
      case CellKind::kLatchP:
        return reg_val_[reg_index_[wire.driver.value()]];
      case CellKind::kLatchH:
      case CellKind::kLatchL: {
        const std::uint32_t idx = reg_index_[wire.driver.value()];
        if (reg_val_[idx] != kUnsetLit) return reg_val_[idx];  // park
        return eval_latch(cell, net);
      }
      case CellKind::kIcg:
      case CellKind::kIcgM1:
        return eval_icg(cell, wire.driver, net);
      case CellKind::kClkDiv2: {
        const std::uint32_t idx = icg_index_[wire.driver.value()];
        if (park_) return icg_prev_[idx];  // stored toggle state
        if (icg_cur_[idx] != kUnsetLit) return icg_cur_[idx];
        const Lit rising = aig_.land(eval_net(cell.ins[0]),
                                     lit_not(prev_[cell.ins[0].value()]));
        const Lit state = aig_.lxor(icg_prev_[idx], rising);
        if (assume_.empty()) icg_cur_[idx] = state;
        return state;
      }
      case CellKind::kOutput:
        return kLitFalse;  // unreachable: kOutput drives no net
      default:
        return eval_comb_cell(cell);
    }
  }

  Lit eval_comb_cell(const Cell& cell) {
    Lit in[3] = {};
    for (std::size_t i = 0; i < cell.ins.size(); ++i) {
      in[i] = eval_net(cell.ins[i]);
    }
    switch (cell.kind) {
      case CellKind::kBuf:
      case CellKind::kClkBuf:
        return in[0];
      case CellKind::kInv:
      case CellKind::kClkInv:
        return lit_not(in[0]);
      case CellKind::kAnd2:
      case CellKind::kIcgNoLatch:
        return aig_.land(in[0], in[1]);
      case CellKind::kAnd3:
        return aig_.land(aig_.land(in[0], in[1]), in[2]);
      case CellKind::kOr2:
        return aig_.lor(in[0], in[1]);
      case CellKind::kOr3:
        return aig_.lor(aig_.lor(in[0], in[1]), in[2]);
      case CellKind::kNand2:
        return lit_not(aig_.land(in[0], in[1]));
      case CellKind::kNand3:
        return lit_not(aig_.land(aig_.land(in[0], in[1]), in[2]));
      case CellKind::kNor2:
        return lit_not(aig_.lor(in[0], in[1]));
      case CellKind::kNor3:
        return lit_not(aig_.lor(aig_.lor(in[0], in[1]), in[2]));
      case CellKind::kXor2:
        return aig_.lxor(in[0], in[1]);
      case CellKind::kXnor2:
        return lit_not(aig_.lxor(in[0], in[1]));
      case CellKind::kMux2:
        return aig_.lmux(in[2], in[1], in[0]);
      case CellKind::kAoi21:
        return lit_not(aig_.lor(aig_.land(in[0], in[1]), in[2]));
      case CellKind::kOai21:
        return lit_not(aig_.land(aig_.lor(in[0], in[1]), in[2]));
      case CellKind::kMaj3:
        return aig_.lor(aig_.lor(aig_.land(in[0], in[1]),
                                 aig_.land(in[0], in[2])),
                        aig_.land(in[1], in[2]));
      default:
        throw Error("equiv: unexpected cell kind in settle");
    }
  }

  /// Source net of a latch gate, traced back through clock buffers and
  /// inverters (CTS may hand the master and slave of one pair different
  /// buffered copies of the same gated clock; assumptions key on the source
  /// so the pair still splits correctly). A walk longer than the net count is
  /// a buffer loop; it stops there and the settle reports the cycle.
  std::pair<NetId, bool> clock_alias(NetId net) const {
    bool inverted = false;
    for (std::size_t step = 0; step <= nl_.num_nets(); ++step) {
      const CellId driver = nl_.net(net).driver;
      if (!driver.valid()) return {net, inverted};
      const Cell& cell = nl_.cell(driver);
      if (cell.kind == CellKind::kClkBuf || cell.kind == CellKind::kBuf) {
        net = cell.ins[0];
      } else if (cell.kind == CellKind::kClkInv ||
                 cell.kind == CellKind::kInv) {
        net = cell.ins[0];
        inverted = !inverted;
      } else {
        return {net, inverted};
      }
    }
    return {net, inverted};
  }

  Lit eval_latch(const Cell& cell, NetId out_net) {
    const bool open_high = cell.kind == CellKind::kLatchH;
    const auto [src, inverted] = clock_alias(cell.ins[1]);
    for (const auto& [anet, alevel] : assume_) {
      if (anet == src) {
        const bool gate_level = alevel != inverted;
        return gate_level == open_high ? eval_net(cell.ins[0])
                                       : prev_[out_net.value()];
      }
    }
    const Lit gate = eval_net(cell.ins[1]);
    const Lit open = open_high ? gate : lit_not(gate);
    if (open == kLitTrue) return eval_net(cell.ins[0]);
    if (open == kLitFalse) return prev_[out_net.value()];
    // Symbolic gate (a gated clock): evaluate the transparent branch under
    // the assumption that this latch is open. A master-slave pair on one
    // gated clock forms a false combinational cycle — master open forces
    // slave closed — which this case split breaks.
    assume_.emplace_back(src, open_high != inverted);
    ctx_memo_.emplace_back();
    const Lit d = eval_net(cell.ins[0]);
    ctx_memo_.pop_back();
    assume_.pop_back();
    return aig_.lmux(open, d, prev_[out_net.value()]);
  }

  Lit eval_icg(const Cell& cell, CellId id, NetId out_net) {
    const std::uint32_t idx = icg_index_[id.value()];
    const Lit ck = eval_net(cell.ins[1]);
    if (park_) {
      // Park reconstruction: the stored enable is the state variable itself.
      return aig_.land(icg_prev_[idx], ck);
    }
    if (cell.kind == CellKind::kIcg) {
      // The standard ICG's output never depends combinationally on its
      // enable: the internal latch is transparent only while CK is low, and
      // CK low forces the output low, so out = CK & state_prev exactly —
      // even when CK is symbolic (a chained gated clock). The next-event
      // state is finalized after the settle loop (finalize_icg_states),
      // because walking the enable cone here would recurse back through
      // gated latches whose evaluation is still in progress (DDCG D-vs-Q
      // XORs read the very latch this ICG clocks).
      const Lit out = aig_.land(icg_prev_[idx], ck);
      store_memo(out_net, out);
      return out;
    }
    // kIcgM1 samples transparency from a separate phase pin, so its output
    // can genuinely depend on the enable when both windows overlap. With the
    // gated clock settled low the output is low regardless; defer the enable
    // walk to finalize_icg_states — the enable (e.g. a DDCG D-vs-Q XOR)
    // may read back through the very latch this ICG clocks.
    if (ck == kLitFalse) {
      store_memo(out_net, kLitFalse);
      return kLitFalse;
    }
    Lit state;
    if (icg_cur_[idx] != kUnsetLit) {
      state = icg_cur_[idx];
    } else {
      const Lit transp = eval_net(cell.ins[2]);
      if (transp == kLitFalse) {
        state = icg_prev_[idx];
      } else if (transp == kLitTrue) {
        state = eval_net(cell.ins[0]);
      } else {
        state = aig_.lmux(transp, eval_net(cell.ins[0]), icg_prev_[idx]);
      }
      // Values computed under a latch-split assumption are conditional; the
      // unconditional top-level pass over all live nets fills the cache.
      if (assume_.empty()) icg_cur_[idx] = state;
    }
    return aig_.land(state, ck);
  }

  void finalize_icg_states() {
    // Deferred ICG next-state: state' = CK ? state : EN (transparent-low
    // enable latch). Runs after the settle loop, so the enable cone reads
    // fully memoized nets and cannot re-enter an in-progress latch.
    for (std::size_t j = 0; j < m_.icgs.size(); ++j) {
      if (icg_cur_[j] != kUnsetLit) continue;
      const Cell& cell = nl_.cell(m_.icgs[j]);
      if (cell.kind == CellKind::kClkDiv2) {
        // Divider with a dead output net: still advance its toggle state.
        const Lit rising = aig_.land(eval_net(cell.ins[0]),
                                     lit_not(prev_[cell.ins[0].value()]));
        icg_cur_[j] = aig_.lxor(icg_prev_[j], rising);
        continue;
      }
      const Lit ck = eval_net(cell.ins[1]);
      const Lit transp = cell.kind == CellKind::kIcg ? lit_not(ck)
                                                     : eval_net(cell.ins[2]);
      if (transp == kLitFalse) {
        icg_cur_[j] = icg_prev_[j];
      } else if (transp == kLitTrue) {
        icg_cur_[j] = eval_net(cell.ins[0]);
      } else {
        icg_cur_[j] =
            aig_.lmux(transp, eval_net(cell.ins[0]), icg_prev_[j]);
      }
    }
  }

  Aig& aig_;
  const Netlist& nl_;
  std::span<const Lit> pi_prev_, pi_now_;
  std::vector<std::int64_t> times_;
  Machine m_;

  std::vector<std::uint32_t> reg_index_, icg_index_;  // per cell
  std::vector<const PhaseWaveform*> root_wave_;       // per net
  std::vector<std::uint32_t> pi_of_net_;              // per net
  std::vector<NetId> live_nets_;
  std::vector<NetId> stack_;  // in-progress nets, for cycle diagnostics

  std::vector<Lit> reg_val_;             // per register, current event
  std::vector<Lit> icg_prev_, icg_cur_;  // per ICG enable latch
  std::vector<Lit> cur_, prev_, sample_;  // per net
  std::int64_t now_ = 0;
  bool park_ = false;

  std::vector<std::pair<NetId, bool>> assume_;  // latch-split assumptions
  std::vector<std::unordered_map<std::uint32_t, Lit>> ctx_memo_;
  std::unordered_set<std::uint64_t> onstack_;
};

// ---------------------------------------------------------------------------
// A CDCL solver over a lazy Tseitin encoding of AIG cones. Each proof phase
// gets its own instance, so its clause database holds only the cones and
// constraints that phase's queries need.
// ---------------------------------------------------------------------------

class AigSat {
 public:
  AigSat(const Aig& aig, std::int64_t conflict_limit) : aig_(aig) {
    sat_.set_conflict_limit(conflict_limit);
    const int f = sat_.new_var();
    sat_.add_clause({SatSolver::neg_lit(f)});
    var_of_.push_back(f);  // node 0 pinned to false
  }

  /// Can literals a and b differ? The miter is switched on by an activation
  /// literal and retired by a unit clause, so later queries never see it.
  SatResult differ(Lit a, Lit b) {
    const int sa = sat_lit(a);
    const int sb = sat_lit(b);
    focus({a, b});
    const int d = SatSolver::pos_lit(sat_.new_var());
    sat_.add_clause({SatSolver::negate(d), sa, sb});
    sat_.add_clause({SatSolver::negate(d), SatSolver::negate(sa),
                     SatSolver::negate(sb)});
    const std::array<int, 1> assume{d};
    const SatResult r = sat_.solve(assume);
    sat_.add_clause({SatSolver::negate(d)});
    return r;
  }

  /// Can `l` be true?
  SatResult satisfiable(Lit l) {
    const std::array<int, 1> assume{sat_lit(l)};
    focus({l});
    return sat_.solve(assume);
  }

  /// Asserts `l` for every later query.
  void assert_true(Lit l) { sat_.add_clause({sat_lit(l)}); }

  /// Asserts a == b for every later query.
  void assert_equal(Lit a, Lit b) {
    const int sa = sat_lit(a);
    const int sb = sat_lit(b);
    sat_.add_clause({sa, SatSolver::negate(sb)});
    sat_.add_clause({SatSolver::negate(sa), sb});
  }

  /// Value of `l` in the model of the last kSat answer (false when its cone
  /// was never encoded).
  [[nodiscard]] bool model_bit(Lit l) const {
    const std::uint32_t node = lit_node(l);
    const bool val = node < var_of_.size() && var_of_[node] >= 0 &&
                     sat_.model_value(var_of_[node]);
    return lit_neg(l) ? !val : val;
  }

  [[nodiscard]] const SatSolver& solver() const { return sat_; }

 private:
  int var_of(std::uint32_t node) {
    if (node >= var_of_.size() || var_of_[node] < 0) encode(node);
    return var_of_[node];
  }

  int sat_lit(Lit l) {
    const int v = var_of(lit_node(l));
    return lit_neg(l) ? SatSolver::neg_lit(v) : SatSolver::pos_lit(v);
  }

  [[nodiscard]] int lit_of_encoded(Lit l) const {
    const int v = var_of_[lit_node(l)];
    return lit_neg(l) ? SatSolver::neg_lit(v) : SatSolver::pos_lit(v);
  }

  /// Cone-first branching, after the activity factors of ABC's fraiging:
  /// bumps the encoded cone of the query's roots, but only its top 30% of
  /// AIG levels, weighted from 1 at that floor to 11 at the roots. Without
  /// it the solver first decides variables that earlier queries left
  /// active; bumping the whole cone evenly was measured slower.
  void focus(std::initializer_list<Lit> roots) {
    for (auto n = static_cast<std::uint32_t>(level_.size());
         n < aig_.num_nodes(); ++n) {
      level_.push_back(aig_.is_input(n)
                           ? 0
                           : 1 + std::max(level_[lit_node(aig_.fanin0(n))],
                                          level_[lit_node(aig_.fanin1(n))]));
    }
    std::uint32_t top = 0;
    for (const Lit r : roots) top = std::max(top, level_[lit_node(r)]);
    const std::uint32_t floor = top * 7 / 10;
    if (top == floor) return;
    mark_.resize(level_.size(), 0);
    ++stamp_;
    std::vector<std::uint32_t> stack;
    for (const Lit r : roots) stack.push_back(lit_node(r));
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      stack.pop_back();
      if (level_[n] <= floor || mark_[n] == stamp_) continue;
      mark_[n] = stamp_;
      sat_.bump(var_of_[n], 1.0 + 10.0 * (level_[n] - floor) / (top - floor));
      stack.push_back(lit_node(aig_.fanin0(n)));
      stack.push_back(lit_node(aig_.fanin1(n)));
    }
  }

  void encode(std::uint32_t root) {
    if (var_of_.size() < aig_.num_nodes()) var_of_.resize(aig_.num_nodes(), -1);
    std::vector<std::uint32_t> stack{root};
    while (!stack.empty()) {
      const std::uint32_t n = stack.back();
      if (var_of_[n] >= 0) {
        stack.pop_back();
        continue;
      }
      if (aig_.is_input(n)) {
        var_of_[n] = sat_.new_var();
        stack.pop_back();
        continue;
      }
      const std::uint32_t a = lit_node(aig_.fanin0(n));
      const std::uint32_t b = lit_node(aig_.fanin1(n));
      if (var_of_[a] < 0) {
        stack.push_back(a);
        continue;
      }
      if (var_of_[b] < 0) {
        stack.push_back(b);
        continue;
      }
      const int v = sat_.new_var();
      var_of_[n] = v;
      const int sa = lit_of_encoded(aig_.fanin0(n));
      const int sb = lit_of_encoded(aig_.fanin1(n));
      sat_.add_clause({SatSolver::neg_lit(v), sa});
      sat_.add_clause({SatSolver::neg_lit(v), sb});
      sat_.add_clause(
          {SatSolver::pos_lit(v), SatSolver::negate(sa), SatSolver::negate(sb)});
      stack.pop_back();
    }
  }

  const Aig& aig_;
  SatSolver sat_;
  std::vector<int> var_of_;  // per node; -1 = not yet encoded
  std::vector<std::uint32_t> level_{0};  // per node: AIG level, inputs 0
  std::vector<std::uint32_t> mark_;      // per node: last focus() visit
  std::uint32_t stamp_ = 0;
};

// ---------------------------------------------------------------------------
// Candidate equivalence classes over machine nodes. Each group is a list of
// literals (sorted by node id, lowest = representative) claiming mutual
// equality; the polarity of the claim rides in the literal's complement bit.
// ---------------------------------------------------------------------------

class Classes {
 public:
  void build(std::span<const std::uint64_t> sig,
             std::span<const std::uint64_t> csig) {
    class_of_.assign(sig.size(), kInvalidIndex);
    lit_of_.assign(sig.size(), kLitFalse);
    std::unordered_map<std::uint64_t, std::vector<Lit>> buckets;
    for (std::uint32_t n = 0; n < sig.size(); ++n) {
      const bool neg = csig[n] < sig[n];
      buckets[std::min(sig[n], csig[n])].push_back(make_lit(n, neg));
    }
    std::vector<std::vector<Lit>> keep;
    for (auto& [key, members] : buckets) {
      if (members.size() >= 2) keep.push_back(std::move(members));
    }
    // Hash-map iteration order is unspecified; sort for reproducible runs.
    std::sort(keep.begin(), keep.end());
    for (auto& members : keep) commit(std::move(members));
  }

  [[nodiscard]] const std::vector<std::vector<Lit>>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::uint32_t class_of(std::uint32_t node) const {
    return class_of_[node];
  }
  [[nodiscard]] Lit lit_of(std::uint32_t node) const { return lit_of_[node]; }
  [[nodiscard]] bool same_class(std::uint32_t a, std::uint32_t b) const {
    return class_of_[a] != kInvalidIndex && class_of_[a] == class_of_[b];
  }

  [[nodiscard]] std::size_t num_pairs() const {
    std::size_t pairs = 0;
    for (const auto& g : groups_) {
      if (g.size() >= 2) pairs += g.size() - 1;
    }
    return pairs;
  }

  /// Splits every group by the members' concrete values in `node_words`.
  void refine(std::span<const std::uint64_t> node_words) {
    const std::size_t end = groups_.size();  // appended groups are uniform
    for (std::size_t g = 0; g < end; ++g) split_group(g, node_words);
  }

  /// Drops one member (dissolving the group when it shrinks below 2).
  void remove(Lit member) {
    const std::uint32_t g = class_of_[lit_node(member)];
    if (g == kInvalidIndex) return;
    auto& group = groups_[g];
    std::erase(group, member);
    class_of_[lit_node(member)] = kInvalidIndex;
    if (group.size() < 2) {
      for (const Lit rest : group) class_of_[lit_node(rest)] = kInvalidIndex;
      group.clear();
    }
  }

 private:
  void commit(std::vector<Lit> members) {
    const auto idx = static_cast<std::uint32_t>(groups_.size());
    for (const Lit m : members) {
      class_of_[lit_node(m)] = idx;
      lit_of_[lit_node(m)] = m;
    }
    groups_.push_back(std::move(members));
  }

  void split_group(std::size_t g, std::span<const std::uint64_t> words) {
    if (groups_[g].size() < 2) return;
    std::vector<std::pair<std::uint64_t, std::vector<Lit>>> parts;
    std::unordered_map<std::uint64_t, std::size_t> index;
    for (const Lit m : groups_[g]) {
      const std::uint64_t w = Aig::word_of(words, m);
      const auto [it, fresh] = index.emplace(w, parts.size());
      if (fresh) parts.emplace_back(w, std::vector<Lit>{});
      parts[it->second].second.push_back(m);
    }
    if (parts.size() == 1) return;
    std::vector<Lit> slot;  // first surviving part keeps slot g
    for (auto& [w, part] : parts) {
      if (part.size() < 2) {
        for (const Lit m : part) class_of_[lit_node(m)] = kInvalidIndex;
        continue;
      }
      if (slot.empty()) {
        for (const Lit m : part) class_of_[lit_node(m)] = g;
        slot = std::move(part);
        continue;
      }
      const auto idx = static_cast<std::uint32_t>(groups_.size());
      for (const Lit m : part) class_of_[lit_node(m)] = idx;
      groups_.push_back(std::move(part));
    }
    groups_[g] = std::move(slot);
  }

  std::vector<std::vector<Lit>> groups_;
  std::vector<std::uint32_t> class_of_;  // per node; kInvalidIndex = unclassed
  std::vector<Lit> lit_of_;              // per node; valid when classed
};

// ---------------------------------------------------------------------------
// The SEC engine: random simulation -> base filter -> 1-step induction with
// speculative reduction -> output check -> BMC falsification.
// ---------------------------------------------------------------------------

class Checker {
 public:
  Checker(const Netlist& golden, const Netlist& revised,
          const SecOptions& opt)
      : golden_(golden),
        revised_(revised),
        opt_(opt),
        frame0_(aig_, opt.sat_conflict_limit) {}

  SecResult run() {
    SecResult res;
    build_product(res.stats);
    if (ma_.po == mb_.po) {
      res.status = SecStatus::kProven;
      res.detail = "primary outputs structurally identical";
      return finish(res);
    }
    if (random_sim(res)) return finish(res);
    cls_.build(sig_, csig_);
    base_filter();
    res.stats.candidate_pairs = cls_.num_pairs();
    const bool fixpoint = induction(res.stats);
    if (fixpoint) {
      switch (po_check(res)) {
        case SecStatus::kProven:
          res.status = SecStatus::kProven;
          res.detail = "proved by 1-step induction over " +
                       std::to_string(cls_.num_pairs()) +
                       " invariant pairs (" + std::to_string(res.stats.rounds) +
                       " rounds)";
          return finish(res);
        case SecStatus::kFalsified:
          return finish(res);
        case SecStatus::kUnknown:
          break;  // fall through to BMC
      }
    }
    if (bmc(res, fixpoint)) return finish(res);
    res.status = SecStatus::kUnknown;
    if (res.detail.empty()) {
      res.detail = fixpoint
                       ? "induction fixpoint too weak to decide the outputs; "
                         "no divergence within " +
                             std::to_string(opt_.bmc_frames) + " BMC frames"
                       : "no induction fixpoint within " +
                             std::to_string(opt_.max_rounds) +
                             " rounds; no divergence within " +
                             std::to_string(opt_.bmc_frames) + " BMC frames";
    }
    return finish(res);
  }

 private:
  // Machine input index layout (creation order): [0,P) previous-cycle PIs,
  // [P,2P) current-cycle PIs, then golden state, then revised state.

  void build_product(SecStats& stats) {
    num_pi_ = golden_.data_inputs().size();
    const std::vector<std::size_t> pin_map = map_data_inputs(golden_, revised_);
    for (std::size_t i = 0; i < num_pi_; ++i) pi_prev_.push_back(aig_.add_input());
    for (std::size_t i = 0; i < num_pi_; ++i) pi_now_.push_back(aig_.add_input());
    std::vector<Lit> r_prev(num_pi_), r_now(num_pi_);
    for (std::size_t j = 0; j < num_pi_; ++j) {
      r_prev[j] = pi_prev_[pin_map[j]];
      r_now[j] = pi_now_[pin_map[j]];
    }
    ma_ = build_machine(aig_, golden_, pi_prev_, pi_now_);
    mb_ = build_machine(aig_, revised_, r_prev, r_now);
    require(ma_.po.size() == mb_.po.size(),
            "equiv: primary output counts differ");
    n_machine_ = aig_.num_nodes();
    num_in_ = aig_.num_inputs();
    const auto ra = reset_state(golden_, ma_);
    const auto rb = reset_state(revised_, mb_);
    reset_.assign(ra.begin(), ra.end());
    reset_.insert(reset_.end(), rb.begin(), rb.end());
    next_state_ = ma_.next_state;
    next_state_.insert(next_state_.end(), mb_.next_state.begin(),
                       mb_.next_state.end());
    stats.golden_state_bits = ma_.state_in.size();
    stats.revised_state_bits = mb_.state_in.size();
  }

  SecResult& finish(SecResult& res) {
    res.stats.aig_nodes = aig_.num_nodes();
    count_sat_work(frame0_, res.stats);
    if (step_) count_sat_work(*step_, res.stats);
    return res;
  }

  static void count_sat_work(const AigSat& s, SecStats& stats) {
    stats.sat_calls += s.solver().num_solve_calls;
    stats.sat_conflicts += s.solver().num_conflicts;
    stats.sat_decisions += s.solver().num_decisions;
    stats.sat_propagations += s.solver().num_propagations;
  }

  static std::uint64_t broadcast(bool b) { return b ? ~0ull : 0ull; }

  /// Replays, minimizes and reports a model-level counterexample. Returns
  /// false when the simulator does not reproduce it (model/semantics gap).
  bool falsify(Stimulus stimulus, SecResult& res, const std::string& origin) {
    Counterexample cex;
    cex.inputs = std::move(stimulus);
    if (!replay(golden_, revised_, cex)) {
      if (res.detail.empty()) {
        res.detail = origin + ": model counterexample failed simulator replay";
      }
      return false;
    }
    minimize(golden_, revised_, cex);
    res.status = SecStatus::kFalsified;
    res.cex = std::move(cex);
    res.detail = origin + ": " + res.cex.to_string();
    return true;
  }

  /// 64-lane random simulation from reset: accumulates candidate signatures
  /// and falsifies outright when an output word diverges.
  bool random_sim(SecResult& res) {
    Rng rng(opt_.seed);
    sig_.assign(n_machine_, 0);
    csig_.assign(n_machine_, 0);
    std::vector<std::uint64_t> in(num_in_, 0);
    for (std::size_t s = 0; s < reset_.size(); ++s) {
      in[2 * num_pi_ + s] = broadcast(reset_[s] != 0);
    }
    std::vector<std::uint64_t> prev_pi(num_pi_, 0);
    bool gave_up_on_replay = false;
    for (int f = 0; f < opt_.sim_frames; ++f) {
      std::vector<std::uint64_t> pis(num_pi_);
      for (auto& w : pis) w = rng.next();
      for (std::size_t i = 0; i < num_pi_; ++i) {
        in[i] = prev_pi[i];
        in[num_pi_ + i] = pis[i];
      }
      aig_.simulate(in, words_);
      pi_hist_.push_back(pis);
      for (std::size_t k = 0; k < ma_.po.size() && !gave_up_on_replay; ++k) {
        const std::uint64_t diff = Aig::word_of(words_, ma_.po[k]) ^
                                   Aig::word_of(words_, mb_.po[k]);
        if (diff == 0) continue;
        const int lane = std::countr_zero(diff);
        Stimulus stim(static_cast<std::size_t>(f) + 1,
                      std::vector<std::uint8_t>(num_pi_, 0));
        for (std::size_t c = 0; c <= static_cast<std::size_t>(f); ++c) {
          for (std::size_t i = 0; i < num_pi_; ++i) {
            stim[c][i] =
                static_cast<std::uint8_t>((pi_hist_[c][i] >> lane) & 1);
          }
        }
        if (falsify(std::move(stim), res, "random simulation")) return true;
        gave_up_on_replay = true;  // keep simulating for signatures
      }
      constexpr std::uint64_t kMul = 0x9E3779B97F4A7C15ull;
      for (std::uint32_t n = 0; n < n_machine_; ++n) {
        sig_[n] = sig_[n] * kMul + words_[n];
        csig_[n] = csig_[n] * kMul + ~words_[n];
      }
      for (std::size_t s = 0; s < next_state_.size(); ++s) {
        in[2 * num_pi_ + s] = Aig::word_of(words_, next_state_[s]);
      }
      prev_pi = std::move(pis);
    }
    return false;
  }

  /// Starts an induction round on a fresh solver that holds the current
  /// candidate equalities over the *original* frame-1 functions as plain
  /// clauses. Obligations checked on it test exactly the inductive step
  /// "equalities at frame 1 imply equalities at frame 2" — without them the
  /// queries range over unconstrained states and refute pairs that are
  /// perfectly 1-inductive, starving the fixpoint (classic van Eijk
  /// constraints). The previous round's solver only contributes its counts.
  void start_round(SecStats& stats) {
    if (step_) count_sat_work(*step_, stats);
    step_.emplace(aig_, opt_.sat_conflict_limit);
    for (const auto& group : cls_.groups()) {
      for (std::size_t k = 1; k < group.size(); ++k) {
        step_->assert_equal(group[0], group[k]);
      }
    }
  }

  /// Frame-0 instantiation: state pinned to reset, previous-cycle PIs to 0
  /// (the simulator's post-reset PI value), current PIs left free.
  void build_base() {
    std::vector<Lit> map(num_in_);
    for (std::size_t i = 0; i < num_pi_; ++i) {
      map[i] = kLitFalse;
      map[num_pi_ + i] = pi_now_[i];
    }
    for (std::size_t s = 0; s < reset_.size(); ++s) {
      map[2 * num_pi_ + s] = reset_[s] ? kLitTrue : kLitFalse;
    }
    base_ = aig_.compose(n_machine_, map);
  }

  /// Drops candidates that already fail in the reset frame, so induction
  /// only ever weakens a base-proven invariant set.
  void base_filter() {
    build_base();
    const std::size_t end = cls_.groups().size();
    for (std::size_t g = 0; g < end; ++g) {
      std::vector<Lit> doomed;
      const auto& group = cls_.groups()[g];
      for (std::size_t k = 1; k < group.size(); ++k) {
        const Lit b_rep = apply_map(base_, group[0]);
        const Lit b_mem = apply_map(base_, group[k]);
        if (b_rep == b_mem) continue;
        if (frame0_.differ(b_rep, b_mem) != SatResult::kUnsat) {
          doomed.push_back(group[k]);
        }
      }
      for (const Lit m : doomed) cls_.remove(m);
    }
  }

  /// A SAT witness refuted one obligation: re-simulate both frames with the
  /// model (frame 2 fed the *real* frame-1 next-state) and split every class
  /// by the real frame-2 values.
  void refine_by_witness() {
    const AigSat& w = *step_;
    std::vector<std::uint64_t> in(aig_.num_inputs(), 0);
    for (std::size_t i = 0; i < num_pi_; ++i) {
      in[i] = broadcast(w.model_bit(pi_prev_[i]));
      in[num_pi_ + i] = broadcast(w.model_bit(pi_now_[i]));
    }
    for (std::size_t s = 0; s < next_state_.size(); ++s) {
      const Lit state_in = s < ma_.state_in.size()
                               ? ma_.state_in[s]
                               : mb_.state_in[s - ma_.state_in.size()];
      in[2 * num_pi_ + s] = broadcast(w.model_bit(state_in));
    }
    aig_.simulate(in, words_);
    std::vector<std::uint64_t> ns(next_state_.size());
    for (std::size_t s = 0; s < next_state_.size(); ++s) {
      ns[s] = Aig::word_of(words_, next_state_[s]);
    }
    std::vector<std::uint64_t> in2(aig_.num_inputs(), 0);
    for (std::size_t i = 0; i < num_pi_; ++i) {
      in2[i] = in[num_pi_ + i];
      in2[num_pi_ + i] = broadcast(w.model_bit(i2_[i]));
    }
    for (std::size_t s = 0; s < next_state_.size(); ++s) {
      in2[2 * num_pi_ + s] = ns[s];
    }
    aig_.simulate(in2, words_);
    cls_.refine(words_);
  }

  /// Van Eijk signal correspondence with speculative reduction: unrolls a
  /// second time frame with every candidate member replaced by its class
  /// representative, discharging one proof obligation per substitution.
  /// Returns true once a full round passes with no refutation.
  bool induction(SecStats& stats) {
    for (std::size_t i = 0; i < num_pi_; ++i) i2_.push_back(aig_.add_input());
    for (int round = 0; round < opt_.max_rounds; ++round) {
      stats.rounds = round + 1;
      bool changed = false;
      start_round(stats);
      std::vector<Lit> spec1(n_machine_);
      for (std::uint32_t n = 0; n < n_machine_; ++n) spec1[n] = make_lit(n);
      for (const auto& group : cls_.groups()) {
        for (std::size_t k = 1; k < group.size(); ++k) {
          spec1[lit_node(group[k])] = lit_xor(group[0], lit_neg(group[k]));
        }
      }
      f2_.assign(n_machine_, kLitFalse);
      for (std::uint32_t n = 1; n < n_machine_; ++n) {
        Lit computed;
        if (aig_.is_input(n)) {
          const std::uint32_t i = aig_.input_index(n);
          if (i < num_pi_) {
            computed = apply_map(spec1, pi_now_[i]);  // pi_prev2 == pi_now1
          } else if (i < 2 * num_pi_) {
            computed = i2_[i - num_pi_];
          } else {
            computed = apply_map(spec1, next_state_[i - 2 * num_pi_]);
          }
        } else {
          computed = aig_.land(apply_map(f2_, aig_.fanin0(n)),
                               apply_map(f2_, aig_.fanin1(n)));
        }
        f2_[n] = computed;
        const std::uint32_t g = cls_.class_of(n);
        if (g == kInvalidIndex) continue;
        const Lit rep = cls_.groups()[g][0];
        if (lit_node(rep) == n) continue;
        const Lit member = cls_.lit_of(n);
        const Lit target =
            lit_xor(apply_map(f2_, rep), lit_neg(member));
        if (computed == target) {
          ++stats.proven_structural;
          f2_[n] = target;
          continue;
        }
        switch (step_->differ(computed, target)) {
          case SatResult::kUnsat:
            f2_[n] = target;  // speculation holds for downstream logic
            break;
          case SatResult::kUnknown:
            cls_.remove(member);  // sound: only weakens the invariant
            changed = true;
            break;
          case SatResult::kSat:
            refine_by_witness();
            if (cls_.same_class(n, lit_node(rep))) {
              cls_.remove(member);  // witness did not split: force progress
            }
            changed = true;
            break;
        }
      }
      if (!changed) return true;  // po_check() reuses this round's solver
    }
    return false;
  }

  /// Output equality under the proven invariants: the reset frame via the
  /// base instantiation (a SAT hit here is a real one-cycle cex), every
  /// later frame via the speculated second time frame.
  SecStatus po_check(SecResult& res) {
    for (std::size_t k = 0; k < ma_.po.size(); ++k) {
      const Lit a0 = apply_map(base_, ma_.po[k]);
      const Lit b0 = apply_map(base_, mb_.po[k]);
      if (a0 != b0) {
        switch (frame0_.differ(a0, b0)) {
          case SatResult::kUnsat:
            break;
          case SatResult::kSat: {
            Stimulus stim(1, std::vector<std::uint8_t>(num_pi_, 0));
            for (std::size_t i = 0; i < num_pi_; ++i) {
              stim[0][i] = frame0_.model_bit(pi_now_[i]) ? 1 : 0;
            }
            if (falsify(std::move(stim), res, "reset-frame check")) {
              return SecStatus::kFalsified;
            }
            return SecStatus::kUnknown;
          }
          case SatResult::kUnknown:
            return SecStatus::kUnknown;
        }
      }
      const Lit a2 = apply_map(f2_, ma_.po[k]);
      const Lit b2 = apply_map(f2_, mb_.po[k]);
      if (a2 == b2) continue;
      if (step_->differ(a2, b2) != SatResult::kUnsat) {
        return SecStatus::kUnknown;
      }
    }
    return SecStatus::kProven;
  }

  /// Bounded model check from the concrete reset state — the falsification
  /// backstop when induction is inconclusive. Constant folding usually kills
  /// the miter for the first frames without any SAT call. A fixpoint's
  /// classes hold on every reachable state (po_check relies on that too), so
  /// each frame is unrolled with every class member replaced by its
  /// representative, as induction() does for frame 2; without a fixpoint
  /// nothing is replaced.
  bool bmc(SecResult& res, bool fixpoint) {
    std::vector<std::vector<Lit>> frame_pi;
    std::vector<Lit> map(num_in_);
    for (std::size_t s = 0; s < reset_.size(); ++s) {
      map[2 * num_pi_ + s] = reset_[s] ? kLitTrue : kLitFalse;
    }
    std::vector<Lit> prev(num_pi_, kLitFalse);
    for (int f = 0; f < opt_.bmc_frames; ++f) {
      frame_pi.emplace_back(num_pi_);
      for (std::size_t i = 0; i < num_pi_; ++i) {
        frame_pi[f][i] = aig_.add_input();
        map[i] = prev[i];
        map[num_pi_ + i] = frame_pi[f][i];
      }
      std::vector<Lit> fm(n_machine_, kLitFalse);
      for (std::uint32_t n = 1; n < n_machine_; ++n) {
        fm[n] = aig_.is_input(n)
                    ? map[aig_.input_index(n)]
                    : aig_.land(apply_map(fm, aig_.fanin0(n)),
                                apply_map(fm, aig_.fanin1(n)));
        const std::uint32_t g = fixpoint ? cls_.class_of(n) : kInvalidIndex;
        if (g == kInvalidIndex) continue;
        const Lit rep = cls_.groups()[g][0];
        if (lit_node(rep) != n) {
          fm[n] = lit_xor(apply_map(fm, rep), lit_neg(cls_.lit_of(n)));
        }
      }
      Lit miter = kLitFalse;
      for (std::size_t k = 0; k < ma_.po.size(); ++k) {
        miter = aig_.lor(miter, aig_.lxor(apply_map(fm, ma_.po[k]),
                                          apply_map(fm, mb_.po[k])));
      }
      res.stats.bmc_depth = f + 1;
      if (miter != kLitFalse) {
        switch (frame0_.satisfiable(miter)) {
          case SatResult::kSat: {
            Stimulus stim(static_cast<std::size_t>(f) + 1,
                          std::vector<std::uint8_t>(num_pi_, 0));
            for (std::size_t c = 0; c <= static_cast<std::size_t>(f); ++c) {
              for (std::size_t i = 0; i < num_pi_; ++i) {
                stim[c][i] = frame0_.model_bit(frame_pi[c][i]) ? 1 : 0;
              }
            }
            return falsify(std::move(stim), res,
                           "bounded model check (depth " +
                               std::to_string(f + 1) + ")");
          }
          case SatResult::kUnknown:
            res.detail = "SAT budget exhausted at BMC frame " +
                         std::to_string(f + 1);
            return false;
          case SatResult::kUnsat:
            frame0_.assert_true(lit_not(miter));
            break;
        }
      }
      for (std::size_t s = 0; s < reset_.size(); ++s) {
        map[2 * num_pi_ + s] = apply_map(fm, next_state_[s]);
      }
      prev = frame_pi[f];
    }
    return false;
  }

  const Netlist& golden_;
  const Netlist& revised_;
  SecOptions opt_;

  Aig aig_;
  // Reset-frame solver: base filter, frame-0 output check and BMC. None of
  // its queries assume the induction hypothesis.
  AigSat frame0_;
  std::optional<AigSat> step_;  // the current induction round's solver
  Classes cls_;

  Machine ma_, mb_;
  std::size_t num_pi_ = 0;
  std::size_t n_machine_ = 0;  // AIG nodes when both machines were built
  std::size_t num_in_ = 0;     // AIG inputs ditto (2*P + states)
  std::vector<Lit> pi_prev_, pi_now_, i2_;
  std::vector<std::uint8_t> reset_;  // golden then revised
  std::vector<Lit> next_state_;      // ditto

  std::vector<std::uint64_t> sig_, csig_, words_;
  std::vector<std::vector<std::uint64_t>> pi_hist_;
  std::vector<Lit> base_, f2_;
};

}  // namespace

SecResult check_sequential_equivalence(const Netlist& golden,
                                       const Netlist& revised,
                                       const SecOptions& options) {
  try {
    Checker checker(golden, revised, options);
    return checker.run();
  } catch (const Error& e) {
    SecResult res;
    res.status = SecStatus::kUnknown;
    res.detail = e.what();
    return res;
  }
}

Machine build_machine(Aig& aig, const Netlist& netlist,
                      std::span<const Lit> pi_prev,
                      std::span<const Lit> pi_now) {
  return CycleBuilder(aig, netlist, pi_prev, pi_now).build();
}

std::vector<std::uint8_t> reset_state(const Netlist& netlist,
                                      const Machine& machine) {
  const WideSimulator sim(netlist, 1);  // constructor runs reset()
  std::vector<std::uint8_t> bits;
  bits.reserve(machine.state_in.size());
  for (const CellId reg : machine.regs) {
    bits.push_back(sim.value(netlist.cell(reg).out, 0) ? 1 : 0);
  }
  for (const CellId icg : machine.icgs) {
    bits.push_back(static_cast<std::uint8_t>(sim.icg_state_word(icg) & 1u));
  }
  return bits;
}

std::string_view status_name(SecStatus status) {
  switch (status) {
    case SecStatus::kProven: return "proven";
    case SecStatus::kFalsified: return "falsified";
    case SecStatus::kUnknown: return "unknown";
  }
  return "?";
}

}  // namespace tp::equiv
