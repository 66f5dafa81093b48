// Static timing analysis for multi-phase latch designs (the SMO model of
// Sec. II, in operational form).
//
// Every latch i has a transparency window [r_i, f_i] inside the common cycle
// (flip-flops are zero-width windows at their sampling edge, r = f). Data
// launched by latch j is captured by the first closing edge of latch i that
// lies strictly after j's opening edge:
//     k_ji = 0 when f_i > r_j (same cycle), 1 otherwise (next cycle).
//
// Latest-arrival fixpoint (time borrowing): the output of latch i becomes
// valid at  v_i = max(r_i, A_i) + clk2q_i, and the capture-frame arrival is
//     A_i = max_j ( v_j + Delta_ji - k_ji * Tc ).
// Because k depends only on the launch window's opening time, arrivals are
// propagated through the combinational network once per distinct opening
// time ("launch class"), which keeps the analysis linear in netlist size.
//
// Checks (Eq. 2 of the paper, rearranged):
//     setup:  A_i <= f_i - S_i
//     hold:   a_i >= f_i + (k_ji - 1) * Tc + H_i + uncertainty, where a_i is
//             the earliest next-data arrival  r_j + clk2q_min + delta_ji.
//
// Clock networks are ideal (zero insertion delay and skew); `uncertainty`
// models skew/jitter margins.
#pragma once

#include <string>
#include <vector>

#include "src/library/cell_library.hpp"
#include "src/netlist/netlist.hpp"

namespace tp {

class IncrementalTimer;  // src/timing/incremental.hpp

struct TimingOptions {
  double hold_uncertainty_ps = 25.0;
  /// External arrival of primary inputs after the cycle start; also gives
  /// PI-to-register paths realistic hold margin.
  double input_delay_ps = 60.0;
  /// Required margin at primary outputs before the cycle boundary; POs are
  /// checked like zero-width capture windows at Tc. Negative disables.
  double output_setup_ps = -1.0;
  int max_iterations = 128;
};

struct TimingReport {
  bool converged = false;   // arrival fixpoint reached (no structural
                            // impossibility such as a borrowing loop)
  bool setup_ok = false;
  bool hold_ok = false;
  double worst_setup_slack_ps = 0;
  double worst_hold_slack_ps = 0;
  std::string worst_setup_point;  // cell name of the worst capture latch
  std::string worst_hold_point;
  int iterations = 0;

  [[nodiscard]] bool ok() const { return converged && setup_ok && hold_ok; }
};

TimingReport check_timing(const Netlist& netlist, const CellLibrary& library,
                          const TimingOptions& options = {});

/// Earliest-arrival (min-delay) bounds per launch class, with witness
/// back-pointers. Arrivals are measured from the launching cycle's start:
/// a register in class c launches no earlier than open_ps + clk2q_min, a
/// primary input no earlier than input_delay_ps. The min-delay race
/// analysis (src/analysis/race.cpp) compares these bounds against
/// overlapping transparency windows.
struct MinDelayProfile {
  /// arrival_ps value meaning "no combinational path from this class".
  static constexpr double kUnreachable = 1e18;

  struct LaunchClass {
    double open_ps = 0;
    double close_ps = 0;
  };
  std::vector<LaunchClass> classes;  // sorted by (open, close), unique
  std::size_t pi_class = 0;          // index of the zero-width PI class

  // All indexed [class][net.value()].
  std::vector<std::vector<double>> arrival_ps;
  /// Fan-in net realizing the min arrival (invalid at seeds).
  std::vector<std::vector<NetId>> pred;
  /// Launching register of the min path (invalid for PI-launched paths).
  std::vector<std::vector<CellId>> launch;

  [[nodiscard]] bool reachable(std::size_t cls, NetId net) const {
    return arrival_ps[cls][net.value()] < kUnreachable;
  }
};

MinDelayProfile min_delay_profile(const Netlist& netlist,
                                  const CellLibrary& library,
                                  const TimingOptions& options = {});

/// One record per register out of the latest-arrival (time-borrowing)
/// fixpoint: the capture-frame arrival A_i, the borrow it implies beyond
/// the window open, and the launching register on the critical path — the
/// back-pointers the borrowing-chain analysis (src/analysis/borrow.cpp)
/// walks to accumulate per-chain borrow.
struct BorrowRecord {
  CellId cell;
  double open_ps = 0;     // window open r_i
  double close_ps = 0;    // window close f_i
  double arrival_ps = 0;  // capture-frame latest arrival A_i
  double borrow_ps = 0;   // max(0, min(A_i, f_i) - r_i); 0 for flip-flops
  CellId upstream;        // critical-path launcher (invalid: PI or none)
  bool has_arrival = false;
};

std::vector<BorrowRecord> borrow_profile(const Netlist& netlist,
                                         const CellLibrary& library,
                                         const TimingOptions& options = {});

// The min-period search lives in src/timing/incremental.hpp
// (find_min_period): it returns a structured MinPeriodResult instead of
// the old "hi + 1 means infeasible" sentinel and reuses one arrival
// engine across the binary-search probes.

struct HoldRepairResult {
  int buffers_inserted = 0;
  int passes = 0;
};

/// Inserts delay buffers in front of capture-register D pins until hold
/// passes (or `max_passes` is exhausted). The paper's FF baselines need this
/// padding more than the latch designs — one source of their combinational
/// power gap. Every pass syncs one IncrementalTimer session: `timer` when
/// given (its own options then govern the passes), else a local one on
/// `options`. Each pass is a full analysis; a caller that hands in its
/// own timer gets the last pass's report back from a later sync() without
/// another run when the last pass inserted nothing.
HoldRepairResult repair_hold(Netlist& netlist, const CellLibrary& library,
                             const TimingOptions& options = {},
                             int max_passes = 10,
                             IncrementalTimer* timer = nullptr);

}  // namespace tp
