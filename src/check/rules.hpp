// Internal rule machinery: the shared analysis context every rule runs
// against, plus the per-rule entry points implemented in rules_clock.cpp,
// rules_phase.cpp, and rules_structure.cpp.
//
// RuleContext lazily builds the analyses several rules share — backward
// clock-pin traces, the register adjacency graph, ICG enable cones — so a
// full run_checks() pass stays near-linear in netlist size.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "src/check/checker.hpp"
#include "src/netlist/traverse.hpp"

namespace tp::check {

/// Transparency / clock-high intervals inside one cycle: up to two
/// half-open [lo, hi) spans (a transparent-low latch window wraps the cycle
/// boundary and needs both).
struct WindowSet {
  int n = 0;
  std::array<std::array<std::int64_t, 2>, 2> span{};

  void add(std::int64_t lo, std::int64_t hi) {
    if (lo >= hi) return;
    if (n >= static_cast<int>(span.size())) return;  // capacity 2: drop extras
    span[n][0] = lo;
    span[n][1] = hi;
    ++n;
  }
  [[nodiscard]] bool empty() const { return n == 0; }
};

/// True when any span of `a` intersects any span of `b`.
bool windows_overlap(const WindowSet& a, const WindowSet& b);

/// The high window of `phase` (possibly complemented for inverted clock
/// paths); empty when the clock plan has no such phase.
WindowSet phase_high_window(const ClockSpec& clocks, Phase phase,
                            bool inverted);

class RuleContext {
 public:
  RuleContext(const Netlist& netlist, const CheckOptions& options);

  [[nodiscard]] const Netlist& netlist() const { return netlist_; }
  [[nodiscard]] const CheckOptions& options() const { return options_; }

  /// Appends a diagnostic under `rule` with the registry severity.
  void emit(RuleId rule, std::string message,
            std::vector<std::string> cells = {},
            std::vector<std::string> nets = {}, std::string hint = {});
  /// Same, with an explicit severity (schedule-sanity demotes the C3
  /// half-stage bound to a warning).
  void emit(RuleId rule, Severity severity, std::string message,
            std::vector<std::string> cells, std::vector<std::string> nets,
            std::string hint);

  /// trace_clock() from a clock-pin net, memoized per net.
  const ClockTrace& clock_trace(NetId net);

  /// True when the netlist has a combinational cycle (memoized). Rules that
  /// need the register graph must bail out via register_graph() == nullptr
  /// instead of tripping the graph builder.
  bool has_comb_cycle();

  /// One witness cycle (cells in path order) when has_comb_cycle().
  [[nodiscard]] const std::vector<CellId>& comb_cycle_path() const {
    return comb_cycle_path_;
  }

  /// Register adjacency graph, or nullptr when a combinational cycle makes
  /// it unbuildable (the comb-cycle rule reports the cycle itself).
  const RegisterGraph* register_graph();

  /// Combinational fan-in sources (registers and data PIs) of every ICG's
  /// enable pin, keyed by ICG cell id.
  const std::unordered_map<std::uint32_t, std::vector<CellId>>&
  enable_sources();

  /// Transparency window of register `reg` under the current clock plan:
  /// empty for edge-sampling kinds, the (possibly inverted) traced phase
  /// window for level-sensitive latches.
  WindowSet latch_window(CellId reg);

  /// Registers whose clock pins are reached forward from `net` through the
  /// clock network (clock buffers/inverters and ICG clock pins).
  std::vector<CellId> clock_sinks(NetId net);

  [[nodiscard]] std::vector<Diagnostic> take() { return std::move(diags_); }

 private:
  const Netlist& netlist_;
  const CheckOptions& options_;
  std::vector<Diagnostic> diags_;
  std::unordered_map<std::uint32_t, ClockTrace> trace_memo_;
  bool comb_cycle_known_ = false;
  bool comb_cycle_ = false;
  std::vector<CellId> comb_cycle_path_;
  bool graph_built_ = false;
  RegisterGraph graph_;
  bool enable_sources_built_ = false;
  std::unordered_map<std::uint32_t, std::vector<CellId>> enable_sources_;
};

// Rule entry points (rules_clock.cpp).
void rule_clock_reachability(RuleContext& ctx);
void rule_mixed_phase_icg(RuleContext& ctx);
void rule_constant_clock(RuleContext& ctx);
void rule_ddcg_fanout(RuleContext& ctx);
void rule_m1_borrow_window(RuleContext& ctx);
void rule_m2_enable_phase(RuleContext& ctx);

// Rule entry points (rules_phase.cpp).
void rule_transparency_race(RuleContext& ctx);
void rule_phase_order(RuleContext& ctx);
void rule_latch_self_loop(RuleContext& ctx);
void rule_schedule_sanity(RuleContext& ctx);

// Rule entry points (rules_backend.cpp).
void rule_two_phase_nonoverlap(RuleContext& ctx);
void rule_pulse_width(RuleContext& ctx);
void rule_det_clocking(RuleContext& ctx);

// Rule entry points (rules_structure.cpp).
void rule_comb_cycle(RuleContext& ctx);
void rule_floating_net(RuleContext& ctx);
void rule_multiple_drivers(RuleContext& ctx);

}  // namespace tp::check
