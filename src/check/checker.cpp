#include "src/check/checker.hpp"

#include <algorithm>

#include "src/check/rules.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

namespace tp::check {

// --- window helpers ---------------------------------------------------------

bool windows_overlap(const WindowSet& a, const WindowSet& b) {
  for (int i = 0; i < a.n; ++i) {
    for (int j = 0; j < b.n; ++j) {
      if (a.span[i][0] < b.span[j][1] && b.span[j][0] < a.span[i][1]) {
        return true;
      }
    }
  }
  return false;
}

WindowSet phase_high_window(const ClockSpec& clocks, Phase phase,
                            bool inverted) {
  WindowSet window;
  const PhaseWaveform* wave = clocks.find(phase);
  if (wave == nullptr || clocks.period_ps <= 0) return window;
  const std::int64_t period = clocks.period_ps;
  const std::int64_t rise = wave->rise_ps;
  const std::int64_t fall = wave->fall_ps;
  if (!inverted) {
    if (rise < fall) {
      window.add(rise, fall);
    } else {  // wrapping waveform (not produced by this project, but legal)
      window.add(rise, period);
      window.add(0, fall);
    }
  } else {
    if (rise < fall) {
      window.add(0, rise);
      window.add(fall, period);
    } else {
      window.add(fall, rise);
    }
  }
  return window;
}

// --- RuleContext ------------------------------------------------------------

RuleContext::RuleContext(const Netlist& netlist, const CheckOptions& options)
    : netlist_(netlist), options_(options) {}

void RuleContext::emit(RuleId rule, std::string message,
                       std::vector<std::string> cells,
                       std::vector<std::string> nets, std::string hint) {
  emit(rule, rule_severity(rule), std::move(message), std::move(cells),
       std::move(nets), std::move(hint));
}

void RuleContext::emit(RuleId rule, Severity severity, std::string message,
                       std::vector<std::string> cells,
                       std::vector<std::string> nets, std::string hint) {
  Diagnostic diag;
  diag.rule = rule;
  diag.severity = severity;
  diag.message = std::move(message);
  diag.cells = std::move(cells);
  diag.nets = std::move(nets);
  diag.hint = std::move(hint);
  diags_.push_back(std::move(diag));
}

const ClockTrace& RuleContext::clock_trace(NetId net) {
  const auto [it, inserted] = trace_memo_.try_emplace(net.value());
  if (inserted) it->second = trace_clock(netlist_, net);
  return it->second;
}

bool RuleContext::has_comb_cycle() {
  if (comb_cycle_known_) return comb_cycle_;
  comb_cycle_known_ = true;
  comb_cycle_ = false;
  // Iterative 3-color DFS over combinational cells only; registers, clock
  // gates with internal state, and interface cells are barriers.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(netlist_.num_cells(), kWhite);
  struct Frame {
    std::uint32_t cell;
    std::size_t fanout = 0;
  };
  for (std::uint32_t root = 0; root < netlist_.num_cells() && !comb_cycle_;
       ++root) {
    const Cell& cell = netlist_.cell(CellId{root});
    if (!cell.alive || !is_combinational(cell.kind) ||
        color[root] != kWhite) {
      continue;
    }
    std::vector<Frame> stack{{root}};
    color[root] = kGray;
    while (!stack.empty() && !comb_cycle_) {
      Frame& frame = stack.back();
      const Cell& at = netlist_.cell(CellId{frame.cell});
      const auto& fanouts = netlist_.net(at.out).fanouts;
      if (frame.fanout >= fanouts.size()) {
        color[frame.cell] = kBlack;
        stack.pop_back();
        continue;
      }
      const PinRef ref = fanouts[frame.fanout++];
      const Cell& next = netlist_.cell(ref.cell);
      if (!next.alive || !is_combinational(next.kind)) continue;
      const std::uint32_t id = ref.cell.value();
      if (color[id] == kGray) {
        comb_cycle_ = true;
        for (const Frame& f : stack) {
          if (!comb_cycle_path_.empty() || f.cell == id) {
            comb_cycle_path_.push_back(CellId{f.cell});
          }
        }
        if (comb_cycle_path_.empty()) comb_cycle_path_.push_back(CellId{id});
      } else if (color[id] == kWhite) {
        color[id] = kGray;
        stack.push_back({id});
      }
    }
  }
  return comb_cycle_;
}

const RegisterGraph* RuleContext::register_graph() {
  if (has_comb_cycle()) return nullptr;
  if (!graph_built_) {
    graph_ = build_register_graph(netlist_);
    graph_built_ = true;
  }
  return &graph_;
}

const std::unordered_map<std::uint32_t, std::vector<CellId>>&
RuleContext::enable_sources() {
  if (!enable_sources_built_) {
    if (!has_comb_cycle()) {
      enable_sources_ = icg_enable_sources(netlist_);
    }
    enable_sources_built_ = true;
  }
  return enable_sources_;
}

WindowSet RuleContext::latch_window(CellId reg) {
  const Cell& cell = netlist_.cell(reg);
  if (!is_latch(cell.kind)) return {};  // edge samplers are never transparent
  const ClockTrace& trace = clock_trace(cell.ins[1]);
  if (trace.kind != ClockTraceKind::kPhaseRoot) return {};
  const bool low_transparent = cell.kind == CellKind::kLatchL;
  return phase_high_window(netlist_.clocks(), trace.phase,
                           trace.inverted != low_transparent);
}

std::vector<CellId> RuleContext::clock_sinks(NetId net) {
  std::vector<CellId> sinks;
  std::vector<NetId> frontier{net};
  std::vector<bool> seen(netlist_.num_nets(), false);
  seen[net.value()] = true;
  while (!frontier.empty()) {
    const NetId at = frontier.back();
    frontier.pop_back();
    for (const PinRef& ref : netlist_.net(at).fanouts) {
      const Cell& cell = netlist_.cell(ref.cell);
      if (!cell.alive) continue;
      if (is_register(cell.kind) &&
          static_cast<int>(ref.pin) == clock_pin(cell.kind)) {
        sinks.push_back(ref.cell);
      } else if (is_clock_cell(cell.kind) &&
                 static_cast<int>(ref.pin) == clock_pin(cell.kind) &&
                 cell.out.valid() && !seen[cell.out.value()]) {
        seen[cell.out.value()] = true;
        frontier.push_back(cell.out);
      }
    }
  }
  return sinks;
}

// --- registry and orchestration ---------------------------------------------

namespace {

using RuleFn = void (*)(RuleContext&);

RuleFn rule_fn(RuleId rule) {
  switch (rule) {
    case RuleId::kClockReachability: return rule_clock_reachability;
    case RuleId::kMixedPhaseIcg: return rule_mixed_phase_icg;
    case RuleId::kConstantClock: return rule_constant_clock;
    case RuleId::kTransparencyRace: return rule_transparency_race;
    case RuleId::kPhaseOrder: return rule_phase_order;
    case RuleId::kLatchSelfLoop: return rule_latch_self_loop;
    case RuleId::kCombCycle: return rule_comb_cycle;
    case RuleId::kFloatingNet: return rule_floating_net;
    case RuleId::kMultipleDrivers: return rule_multiple_drivers;
    case RuleId::kDdcgFanout: return rule_ddcg_fanout;
    case RuleId::kM1BorrowWindow: return rule_m1_borrow_window;
    case RuleId::kM2EnablePhase: return rule_m2_enable_phase;
    case RuleId::kScheduleSanity: return rule_schedule_sanity;
    case RuleId::kTwoPhaseNonOverlap: return rule_two_phase_nonoverlap;
    case RuleId::kPulseWidth: return rule_pulse_width;
    case RuleId::kDetClocking: return rule_det_clocking;
    // Analysis-engine rules: no structural entry point here; they are
    // evaluated by analysis::run_analysis() (src/analysis/).
    case RuleId::kXProp:
    case RuleId::kMinDelayRace:
    case RuleId::kBorrowChain:
    case RuleId::kCdcUnsync:
    case RuleId::kCdcReconverge:
    case RuleId::kRdcCrossing:
      return nullptr;
  }
  return nullptr;
}

void write_json_names(util::JsonWriter& w, std::string_view key,
                      const std::vector<std::string>& names) {
  w.key(key).begin_array();
  for (const std::string& name : names) w.value(name);
  w.end_array();
}

}  // namespace

const std::vector<RuleSpec>& rule_registry() {
  static const std::vector<RuleSpec>& registry = *[] {
    auto* r = new std::vector<RuleSpec>;
    for (int i = 0; i < kNumRules; ++i) {
      const RuleId id = static_cast<RuleId>(i);
      r->push_back({id, rule_name(id), rule_paper_ref(id), rule_summary(id),
                    rule_severity(id)});
    }
    return r;
  }();
  return registry;
}

CheckReport run_checks(const Netlist& netlist, const CheckOptions& options) {
  RuleContext ctx(netlist, options);
  for (const RuleSpec& spec : rule_registry()) {
    if (std::find(options.disabled.begin(), options.disabled.end(),
                  spec.id) != options.disabled.end()) {
      continue;
    }
    const RuleFn fn = rule_fn(spec.id);
    if (fn != nullptr) fn(ctx);
  }
  return finalize_report(netlist, ctx.take(), options);
}

CheckReport finalize_report(const Netlist& netlist,
                            std::vector<Diagnostic> diags,
                            const CheckOptions& options) {
  CheckReport report;
  report.design = netlist.name();
  report.diags = std::move(diags);
  // Canonical report order: (rule, first offending cell, first offending
  // net, message). Rules already emit in this order internally, but a
  // report merged from several passes (structural rules plus the dataflow
  // analyses at a flow checkpoint) must land byte-identical whichever pass
  // found a finding first and on whichever thread the flow ran, so the
  // ordering is enforced here rather than trusted. stable_sort keeps
  // duplicate-key emission order.
  const auto first_or_empty = [](const std::vector<std::string>& names)
      -> const std::string& {
    static const std::string kEmpty;
    return names.empty() ? kEmpty : names.front();
  };
  std::stable_sort(report.diags.begin(), report.diags.end(),
                   [&](const Diagnostic& a, const Diagnostic& b) {
                     if (a.rule != b.rule) return a.rule < b.rule;
                     const std::string& ac = first_or_empty(a.cells);
                     const std::string& bc = first_or_empty(b.cells);
                     if (ac != bc) return ac < bc;
                     const std::string& an = first_or_empty(a.nets);
                     const std::string& bn = first_or_empty(b.nets);
                     if (an != bn) return an < bn;
                     return a.message < b.message;
                   });
  for (Diagnostic& diag : report.diags) {
    diag.waived = options.waivers.matches(diag);
    if (diag.waived) {
      ++report.waived;
      continue;
    }
    ++report.count_by_rule[static_cast<int>(diag.rule)];
    switch (diag.severity) {
      case Severity::kError: ++report.errors; break;
      case Severity::kWarning: ++report.warnings; break;
      case Severity::kInfo: ++report.infos; break;
    }
  }
  return report;
}

void CheckReport::merge(CheckReport other) {
  if (design.empty()) design = std::move(other.design);
  diags.insert(diags.end(), std::make_move_iterator(other.diags.begin()),
               std::make_move_iterator(other.diags.end()));
  errors += other.errors;
  warnings += other.warnings;
  infos += other.infos;
  waived += other.waived;
  for (int i = 0; i < kNumRules; ++i) {
    count_by_rule[i] += other.count_by_rule[i];
  }
}

std::string CheckReport::to_text() const {
  std::string out;
  for (const Diagnostic& diag : diags) {
    out += diag.to_string();
    out += "\n";
  }
  out += cat(design, ": ", errors, " error(s), ", warnings, " warning(s), ",
             infos, " info(s), ", waived, " waived — ",
             clean() ? "clean" : "VIOLATIONS", "\n");
  return out;
}

std::string CheckReport::to_json() const {
  util::JsonWriter w;
  w.begin_object();
  w.key("design").value(design);
  w.key("errors").value(errors);
  w.key("warnings").value(warnings);
  w.key("infos").value(infos);
  w.key("waived").value(waived);
  w.key("clean").value(clean());
  w.key("counts").begin_object();
  for (int i = 0; i < kNumRules; ++i) {
    if (count_by_rule[i] == 0) continue;
    w.key(rule_name(static_cast<RuleId>(i))).value(count_by_rule[i]);
  }
  w.end_object();
  w.key("diagnostics").begin_array();
  for (const Diagnostic& diag : diags) {
    w.begin_object();
    w.key("rule").value(rule_name(diag.rule));
    w.key("severity").value(severity_name(diag.severity));
    w.key("message").value(diag.message);
    write_json_names(w, "cells", diag.cells);
    write_json_names(w, "nets", diag.nets);
    w.key("hint").value(diag.hint);
    w.key("waived").value(diag.waived);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

std::string CheckReport::to_baseline() const {
  std::string out = cat("# lint baseline for ", design, "\n");
  for (const Diagnostic& diag : diags) {
    if (diag.waived) continue;
    std::string target = "*";
    if (!diag.cells.empty()) {
      target = diag.cells.front();
    } else if (!diag.nets.empty()) {
      target = diag.nets.front();
    }
    out += cat(rule_name(diag.rule), " ", target, " baselined\n");
  }
  return out;
}

}  // namespace tp::check
