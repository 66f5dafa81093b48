// Phase-aware dataflow analyses (the A1/A2/A3 rules of the lint registry).
//
// Three analyses built on the worklist framework (dataflow.hpp) and the
// timing profiles (src/timing/sta.hpp):
//
//   A1  x-propagation   — abstract {0,1,X} simulation from the post-reset
//                         state through latch transparency windows; flags
//                         every register and primary output an X can reach,
//                         with a shortest witness path (BFS over the X
//                         support graph).
//   A2  min-delay-race  — launch/capture latch pairs whose transparency
//                         windows overlap and whose min path delay cannot
//                         guarantee the capture window has closed: the
//                         race-through paths a cycle-accurate simulator can
//                         never exhibit.
//   A3  borrow-chain    — walks the STA latest-arrival fixpoint upstream to
//                         accumulate per-chain time borrowing and flags
//                         chains borrowing past a budget (default one full
//                         phase segment).
//
// Three more rules — A4 cdc-unsync, A5 cdc-reconverge, A6 rdc-crossing —
// consume the clock/reset-domain labels of src/analysis/domains.hpp and
// dispatch from the same run_analysis() entry point.
//
// The rules live in the src/check/ registry (diagnostics, waivers, JSON
// reports, per-stage blame all apply), but run_checks() cannot evaluate
// them — run_analysis() here is their entry point. run_flow() merges both
// passes when FlowOptions::check_analysis is set; docs/analysis.md has the
// lattice and witness-path details.
#pragma once

#include <string>
#include <vector>

#include "src/check/checker.hpp"
#include "src/check/rules.hpp"
#include "src/library/cell_library.hpp"
#include "src/timing/sta.hpp"

namespace tp::analysis {

struct AnalysisOptions {
  /// Shared lint knobs: disabled rules and waivers apply to A1/A2/A3 the
  /// same way run_checks() applies them to the structural rules.
  check::CheckOptions check;
  /// Timing model for A2/A3; nullptr uses CellLibrary::nominal_28nm().
  const CellLibrary* library = nullptr;
  TimingOptions timing;
  /// A3 budget on cumulative chain borrow; negative = one full phase
  /// segment (clock period / number of phases).
  double borrow_budget_ps = -1.0;
  /// Extra X sources for A1: names of primary inputs carrying X or of
  /// registers whose post-reset state is unknown. Floating nets are X
  /// sources regardless.
  std::vector<std::string> x_sources;
  /// Per-rule cap on emitted diagnostics; excess findings are summarized
  /// in one closing diagnostic rather than dropped silently.
  int max_findings = 64;
};

/// Runs the three dataflow analyses on `netlist` (never mutated) and
/// returns their findings with waivers and severity counts applied — the
/// analysis twin of check::run_checks(); merge the two reports via
/// CheckReport::merge().
check::CheckReport run_analysis(const Netlist& netlist,
                                const AnalysisOptions& options = {});

/// Library used by A2/A3: options.library or the shared nominal-28nm one.
const CellLibrary& analysis_library(const AnalysisOptions& options);

/// Emission guard enforcing AnalysisOptions::max_findings for one rule:
/// forwards the first N diagnostics to the context, then counts the rest
/// and reports the suppressed total from finish() — truncation is never
/// silent.
class FindingBudget {
 public:
  FindingBudget(check::RuleContext& ctx, check::RuleId rule, int cap)
      : ctx_(ctx), rule_(rule), cap_(cap) {}

  void emit(std::string message, std::vector<std::string> cells = {},
            std::vector<std::string> nets = {}, std::string hint = {});
  /// Emits the "N finding(s) suppressed" summary when the cap was hit.
  void finish();

 private:
  check::RuleContext& ctx_;
  check::RuleId rule_;
  int cap_ = 0;
  int emitted_ = 0;
  int suppressed_ = 0;
};

// Individual analysis entry points (xprop.cpp, race.cpp, borrow.cpp);
// run_analysis() dispatches them minus options.check.disabled. Each emits
// into `ctx` under the registry severity of its rule.
void rule_xprop(check::RuleContext& ctx, const AnalysisOptions& options);
void rule_min_delay_race(check::RuleContext& ctx,
                         const AnalysisOptions& options);
void rule_borrow_chain(check::RuleContext& ctx,
                       const AnalysisOptions& options);

}  // namespace tp::analysis
