// Conversion backends: every design style run_flow() can produce, behind
// one interface.
//
// A backend owns the conversion segment of the flow — everything between
// the shared synthesis front-end (clock-gating inference + buffering) and
// the shared back-end (hold repair, STA, place, CTS, simulation, power).
// It declares its stable serialization token (CLIs, serve protocol, cache
// keys), the lint rules that encode its phase discipline, and a canonical
// seeded violation proving those rules actually catch its illegal forms.
//
// The registry is the single source of truth for style<->token mapping:
// style_from_name()/style_token() (serialize.hpp), the --backend/--style
// CLI flags, and the serve protocol's "backend" field all resolve through
// it, so adding a backend here makes it reachable from every surface.
#pragma once

#include <functional>
#include <string_view>
#include <vector>

#include "src/check/diagnostic.hpp"
#include "src/flow/flow.hpp"

namespace tp::flow {

/// What a backend's conversion pipeline reads and mutates: the working
/// netlist (FF form on entry, converted form on exit), the run's options
/// and result (for per-stage metrics), plus the flow's checkpoint and
/// activity hooks.
struct FlowContext {
  Netlist& netlist;
  const FlowOptions& options;
  const CellLibrary& library;
  FlowResult& result;
  /// Closes the named stage: runs the stage hook, adds the stage's time
  /// (the hook's included) to its StepTimes field, then runs the opt-in
  /// SEC/lint checkpoints on the current working netlist.
  std::function<void(std::string_view)> checkpoint;
  /// Gate-level switching activity of the current working netlist under
  /// the run's stimulus lanes (the DDCG data dependence, Sec. V).
  std::function<ActivityStats()> activity;
};

class ConversionBackend {
 public:
  virtual ~ConversionBackend() = default;

  [[nodiscard]] virtual DesignStyle id() const = 0;
  /// Stable serialization tag ("ff", "ms", "3p", "pl", "2p", "det"): the
  /// spelling in CLI flags, serve-protocol jobs, result JSON, and cache
  /// keys. Never renamed once released.
  [[nodiscard]] virtual std::string_view token() const = 0;
  /// Short human label for tables ("FF", "3-P", ...).
  [[nodiscard]] virtual std::string_view display_name() const = 0;
  [[nodiscard]] virtual std::string_view description() const = 0;

  /// Runs the backend's conversion pipeline on ctx.netlist, including any
  /// style-specific retiming/gating stages, calling ctx.checkpoint after
  /// each stage; the checkpoint accounts the stage's wall clock.
  virtual void convert(FlowContext& ctx) const = 0;

  /// The lint rules encoding this backend's phase discipline — what
  /// docs/backends.md lists and what the seeded-violation tests prove
  /// non-vacuous. run_checks() always evaluates the full registry; rules
  /// self-gate on the netlist features their discipline introduces.
  [[nodiscard]] virtual std::vector<check::RuleId> rule_set() const = 0;

  /// Plants one canonical violation of this backend's discipline into a
  /// converted netlist and returns the rule expected to flag it. Powers
  /// the negative tests: every backend must detect its own planted
  /// illegality.
  virtual check::RuleId seed_violation(Netlist& netlist) const = 0;

  /// Plants an unsynchronized clock-domain crossing (a divided-clock
  /// source register combinationally merged into an existing register's
  /// data path) and returns check::RuleId::kCdcUnsync. The generic plant
  /// works on any converted netlist; backends with unusual sequencing
  /// override it.
  virtual check::RuleId seed_cdc_violation(Netlist& netlist) const;

  /// Plants a reset-domain crossing (two declared reset roots, the source
  /// register's root released after the destination's) and returns
  /// check::RuleId::kRdcCrossing.
  virtual check::RuleId seed_rdc_violation(Netlist& netlist) const;

  /// Extension point for backend-specific library adjustments (derating a
  /// cell, pricing a custom sequencing element). Default: no change.
  virtual void adjust_library(CellLibrary& library) const;
};

/// All registered backends, in DesignStyle order.
const std::vector<const ConversionBackend*>& backend_registry();

/// The backend implementing `style` (every enum value is registered).
const ConversionBackend& backend_for(DesignStyle style);

/// Token lookup ("ff", "ms", ...); nullptr for unknown tokens.
const ConversionBackend* find_backend(std::string_view token);

/// Comma-separated list of every registered token, for error messages.
std::string backend_token_list();

}  // namespace tp::flow
