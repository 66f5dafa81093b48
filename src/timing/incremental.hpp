// Incremental SMO static timing.
//
// One arrival engine (SmoEngine) backs both the fresh entry points in
// sta.hpp (check_timing / borrow_profile / profile_timing) and the
// IncrementalTimer session below. The engine caches everything the full
// analysis derives — launch classes, per-register transparency windows,
// per-(class, net) latest/earliest arrivals, per-register departure times,
// per-register setup and per-(register, pin) hold slacks, PO slacks — and
// can re-establish the global fixpoint after a netlist edit by resetting
// and re-running only the dirty fanout cone:
//
//   1. Seeds: every journaled net, the drivers of journaled nets (their
//      output load changed, so their delay changed), and every journaled
//      combinational cell.
//   2. Closure: the combinational fanout cone of the seeds, stopping at
//      register data pins (frontier registers) and primary outputs.
//   3. Restricted fixpoint: cone rows are reset to their seeds and the
//      latest-arrival fixpoint reruns over the cone only, reading cached
//      (final) values at the cone boundary. Because arrivals form a
//      monotone least fixpoint and the cone is forward-closed, this
//      converges to exactly the values a full rerun would compute.
//   4. Frontier pruning: a frontier register whose recomputed departure is
//      bitwise equal to its cached departure cannot influence anything
//      downstream (flip-flops always prune: their departure is
//      arrival-independent). A frontier register whose departure changed
//      is activated, the cone is extended through its output, and the
//      restricted fixpoint reruns from scratch on the larger cone.
//
// Fallback to a full pass happens whenever patching cannot be proven
// byte-identical: clock-plan (ClockSpec) changes — which bypass the
// journal — any register-set or transparency-window change, journal
// disabled, a cone covering most of the design, or a non-converged cached
// fixpoint.
//
// Identity contract: after any sequence of update()/sync() calls the
// session's TimingReport, slack rows, and BorrowRecords are byte-identical
// to a fresh check_timing()/borrow_profile() on the current netlist —
// except TimingReport::iterations, which counts engine passes and is a
// path-dependent diagnostic (a cone rerun legitimately needs fewer
// iterations than a cold start). timing_identity() below canonicalizes a
// report for exact comparison under that contract. docs/timing.md has the
// full derivation.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/library/cell_library.hpp"
#include "src/netlist/netlist.hpp"
#include "src/netlist/traverse.hpp"
#include "src/timing/sta.hpp"

namespace tp {

/// Transparency window [r, f] of a register inside the cycle. Flip-flops
/// are zero-width windows at their sampling edge. Transparent-low latches
/// open at the fall and close at the next rise (f = rise + Tc).
struct TransparencyWindow {
  double r = 0;
  double f = 0;
};

/// The window of one register under the netlist's current clock spec.
/// Throws tp::Error when the register's phase has no waveform.
TransparencyWindow register_window(const Netlist& netlist, const Cell& cell);

/// The shared SMO arrival engine. A full run reproduces the historical
/// analyze() pass expression-for-expression (same floating-point operations
/// on the same operands, so results are bitwise identical); an update run
/// patches the cached state through the dirty cone as described above.
/// Most callers want IncrementalTimer; the engine is exposed for the
/// sta.hpp wrappers and find_min_period()'s probe reuse.
class SmoEngine {
 public:
  SmoEngine(const CellLibrary& library, const TimingOptions& options,
            bool track_borrow);
  SmoEngine(const SmoEngine&) = delete;
  SmoEngine& operator=(const SmoEngine&) = delete;

  /// Full analysis; replaces every cache. `setup_only` skips the
  /// earliest-arrival pass and hold checks (min-period probes only read
  /// converged/setup_ok). `reuse_structure` keeps the cached levelization,
  /// register list, and net loads — legal only when the netlist structure
  /// is unchanged since the previous run on the same netlist (the
  /// min-period search rewrites just the clock spec between probes).
  void run_full(const Netlist& netlist, bool setup_only = false,
                bool reuse_structure = false);

  /// Incremental re-analysis after a mutation wave; `touched` is the
  /// drained journal covering every edit since the previous run. Serves
  /// the no-op case from cache, patches the dirty cone when the guards
  /// allow, and falls back to run_full() otherwise.
  void run_update(const Netlist& netlist, const TouchedSet& touched);

  [[nodiscard]] const TimingReport& report() const { return report_; }

  /// Worst setup slack per register / worst hold slack per (register, data
  /// pin), in the deterministic order the full analysis emits them
  /// (register id ascending, pins ascending). Rebuilt lazily from the
  /// per-cell caches.
  [[nodiscard]] const std::vector<std::pair<CellId, double>>& setup_rows()
      const;
  [[nodiscard]] const std::vector<std::pair<CellId, double>>& hold_rows()
      const;

  /// Borrow records over the current fixpoint (requires track_borrow).
  [[nodiscard]] std::vector<BorrowRecord> borrow_records(
      const Netlist& netlist) const;

  /// True once a full (non-setup-only) run primed the caches.
  [[nodiscard]] bool primed() const { return primed_; }

  /// Cache behavior counters for StepTimes, tests, and bench/macro_flow.
  struct Stats {
    int full_runs = 0;         // run_full() calls (incl. fallbacks)
    int incremental_runs = 0;  // dirty-cone patches
    int skipped_runs = 0;      // no-edit passes served from cache
    double full_seconds = 0;
    double incremental_seconds = 0;
    long cone_cells = 0;   // comb cells recomputed across all patches
    long cone_rounds = 0;  // fixpoint rounds across all patches
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  [[nodiscard]] std::size_t class_of(const TransparencyWindow& w) const;
  void build_structure(const Netlist& netlist);
  void build_windows(const Netlist& netlist);
  void recompute_max_row(const Netlist& netlist, CellId id);
  void recompute_min_row(const Netlist& netlist, CellId id);
  [[nodiscard]] double register_departure(const Netlist& netlist,
                                          CellId id) const;
  bool update_register(const Netlist& netlist, CellId id);
  void compute_register_checks(const Netlist& netlist, CellId id);
  [[nodiscard]] double compute_po_slack(const Netlist& netlist,
                                        CellId po) const;
  void build_report(const Netlist& netlist);
  [[nodiscard]] bool guards_allow_patch(const Netlist& netlist,
                                        const TouchedSet& touched) const;
  bool run_cone(const Netlist& netlist, const TouchedSet& touched);

  const CellLibrary& library_;
  TimingOptions options_;
  bool track_borrow_ = false;
  bool primed_ = false;
  bool structure_ready_ = false;
  bool setup_only_ = false;

  // Cached netlist shape.
  std::size_t num_cells_ = 0;
  std::size_t num_nets_ = 0;
  double period_ = 0;
  ClockSpec cached_clocks_;
  Levelization lev_;
  std::vector<CellId> registers_;
  std::vector<CellId> data_inputs_;
  std::vector<std::uint8_t> is_reg_;  // per cell
  std::vector<double> load_;          // per net: net_load_ff
  std::vector<double> delay_max_;     // per cell: max delay at current load

  // Launch classes and windows.
  std::vector<std::pair<double, double>> classes_;
  std::vector<TransparencyWindow> windows_;  // per cell
  std::size_t pi_class_ = 0;

  // Arrival state, all indexed [class][net.value()].
  std::vector<std::vector<double>> arr_max_;
  std::vector<std::vector<double>> arr_min_;
  std::vector<std::vector<NetId>> pred_;  // track_borrow only
  std::vector<double> valid_;             // per cell: register departure

  // Check caches (kPosInf sentinel = "no row").
  std::vector<double> setup_cell_;              // per cell
  std::vector<std::vector<double>> hold_pins_;  // per cell, per input pin
  std::vector<double> po_slack_;                // per cell (kOutput)
  TimingReport report_;

  // Persistent dirty-cone scratch (zeroed between updates by walking the
  // collected lists, so updates stay O(cone), not O(netlist)).
  std::vector<std::uint8_t> in_cone_net_;
  std::vector<std::uint8_t> in_cone_cell_;
  std::vector<std::uint8_t> reg_active_;
  std::vector<std::uint8_t> reg_frontier_;
  std::vector<std::uint8_t> po_dirty_;
  std::vector<int> indeg_;
  std::vector<NetId> cone_nets_;
  std::vector<CellId> cone_cells_;
  std::vector<CellId> frontier_regs_;
  std::vector<CellId> active_regs_;
  std::vector<CellId> dirty_pos_;
  std::vector<NetId> work_;

  mutable bool rows_dirty_ = true;
  mutable std::vector<std::pair<CellId, double>> setup_rows_;
  mutable std::vector<std::pair<CellId, double>> hold_rows_;

  Stats stats_;
};

/// An incremental timing session following one netlist through a sequence
/// of transform stages:
///
///   netlist.enable_journal();
///   IncrementalTimer timer(library, options);
///   report0 = timer.analyze(netlist);     // full, primes the cache
///   ... stage mutates netlist ...
///   report1 = timer.sync(netlist);        // drains the timer's own
///                                         // journal cursor, patches cone
///
/// The timer owns a JournalCursor, so it coexists with other journal
/// consumers without starving them. With the journal disabled, sync() degrades to a full pass per call — identical
/// results, none of the speedup.
class IncrementalTimer {
 public:
  explicit IncrementalTimer(const CellLibrary& library,
                            const TimingOptions& options = {},
                            bool track_borrow = false);

  /// Full analysis; re-primes the cache and fast-forwards the cursor.
  const TimingReport& analyze(const Netlist& netlist);

  /// Incremental re-analysis with an explicitly drained journal (callers
  /// that manage their own Netlist::take_touched calls).
  const TimingReport& update(const Netlist& netlist,
                             const TouchedSet& touched);

  /// Drains this session's journal cursor and patches. The usual entry
  /// point: every caller that mutated the netlist since the last
  /// analyze()/sync() gets a report identical to a fresh check_timing().
  const TimingReport& sync(const Netlist& netlist);

  [[nodiscard]] const TimingReport& report() const {
    return engine_.report();
  }
  [[nodiscard]] const std::vector<std::pair<CellId, double>>& setup_rows()
      const {
    return engine_.setup_rows();
  }
  [[nodiscard]] const std::vector<std::pair<CellId, double>>& hold_rows()
      const {
    return engine_.hold_rows();
  }
  /// Requires construction with track_borrow = true.
  [[nodiscard]] std::vector<BorrowRecord> borrow_records(
      const Netlist& netlist) const {
    return engine_.borrow_records(netlist);
  }
  [[nodiscard]] const SmoEngine::Stats& stats() const {
    return engine_.stats();
  }

 private:
  SmoEngine engine_;
  JournalCursor cursor_;
};

/// Structured min-period search result (replaces the old "hi + 1 means
/// infeasible" convention, which was indistinguishable from a legal period
/// one ps above the bound).
struct MinPeriodResult {
  bool feasible = false;      // setup passes somewhere in [lo, hi]
  std::int64_t period_ps = 0; // smallest passing period when feasible;
                              // the probed hi bound otherwise
  int probes = 0;             // probes spent by the search
  int fast_probes = 0;        // probes decided by the distance-row oracle
                              // without running the arrival fixpoint

  [[nodiscard]] bool ok() const { return feasible; }
};

/// Smallest period (binary search, ps resolution `step_ps`) at which setup
/// passes, scaling all phase windows proportionally. Probes are first
/// decided by a period-independent distance-row oracle (exact for
/// infeasible probes and for feasible probes with no time borrowing); only
/// inconclusive probes run the shared SmoEngine, which reuses the
/// levelization / register list / net loads across the whole search.
/// The oracle and the engine round identical sums differently (ulps), so
/// two searches through the two paths may settle on periods differing by
/// up to `step_ps` when a probe's worst slack sits within ~1e-6 ps of
/// zero; compare results with that tolerance, never exact equality.
MinPeriodResult find_min_period(const Netlist& netlist,
                                const CellLibrary& library,
                                std::int64_t lo_ps, std::int64_t hi_ps,
                                std::int64_t step_ps = 5,
                                const TimingOptions& options = {});

/// Canonical byte-exact serialization (hex floats) of a report / borrow
/// records, excluding TimingReport::iterations — the identity contract for
/// incremental-vs-full comparisons in tests and bench/macro_flow.
std::string timing_identity(const TimingReport& report);
std::string borrow_identity(const std::vector<BorrowRecord>& records);

}  // namespace tp
