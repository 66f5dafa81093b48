// SMO static timing: the one arrival engine and its timing session.
//
// One arrival engine (SmoEngine) backs the fresh entry points in sta.hpp
// (check_timing / borrow_profile / profile_timing), the IncrementalTimer
// session below, and find_min_period()'s probe reuse. Every analysis is a
// full pass over the netlist. The session adds one thing: a sync() that
// finds the netlist unedited (same Netlist::edits() count, same ClockSpec)
// returns the report it already holds instead of running again.
//
// Identity contract: after any sequence of edits and sync() calls the
// session's TimingReport, slack rows, and BorrowRecords are byte-identical
// to a fresh check_timing()/borrow_profile() on the current netlist.
// timing_identity() below canonicalizes a report for exact comparison;
// it leaves out TimingReport::iterations, a diagnostic pass count.
// docs/timing.md has the derivation.
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

/// The shared SMO arrival engine. Most callers want IncrementalTimer; the
/// engine is exposed for the sta.hpp wrappers and find_min_period()'s
/// probe reuse.
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

  const CellLibrary& library_;
  TimingOptions options_;
  bool track_borrow_ = false;
  bool structure_ready_ = false;
  bool setup_only_ = false;

  // Cached netlist shape.
  std::size_t num_cells_ = 0;
  std::size_t num_nets_ = 0;
  double period_ = 0;
  Levelization lev_;
  std::vector<CellId> registers_;
  std::vector<CellId> data_inputs_;
  std::vector<double> load_;       // per net: net_load_ff
  std::vector<double> delay_max_;  // per cell: max delay at current load

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

  mutable bool rows_dirty_ = true;
  mutable std::vector<std::pair<CellId, double>> setup_rows_;
  mutable std::vector<std::pair<CellId, double>> hold_rows_;
};

/// A timing session following one netlist through a sequence of edits:
///
///   IncrementalTimer timer(library, options);
///   report0 = timer.sync(netlist);  // full pass
///   ... a stage edits the netlist ...
///   report1 = timer.sync(netlist);  // full pass again
///   report2 = timer.sync(netlist);  // unedited: report1, from cache
///
/// sync() serves its cached report only when it is handed the same
/// Netlist object as last time with the same edits() count and the same
/// ClockSpec; any other call runs SmoEngine::run_full().
class IncrementalTimer {
 public:
  explicit IncrementalTimer(const CellLibrary& library,
                            const TimingOptions& options = {},
                            bool track_borrow = false);

  /// The report of `netlist` as it stands, identical to a fresh
  /// check_timing() on it.
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

  /// Session counters for tests and bench/macro_flow.
  struct Stats {
    int full_runs = 0;     // sync() calls that ran the engine
    int skipped_runs = 0;  // sync() calls served from cache
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  SmoEngine engine_;
  // What the cached report was computed from.
  const Netlist* netlist_ = nullptr;
  std::uint64_t edits_ = 0;
  ClockSpec clocks_;
  Stats stats_;
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
/// session-vs-fresh comparisons in tests and bench/macro_flow.
std::string timing_identity(const TimingReport& report);
std::string borrow_identity(const std::vector<BorrowRecord>& records);

}  // namespace tp
