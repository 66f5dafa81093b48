#include "src/analysis/domains.hpp"

#include <set>
#include <utility>

#include "src/netlist/traverse.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

namespace tp::analysis {
namespace {

// Clock paths are shallow trees (root -> ICGs -> buffers); the cap only
// guards against malformed clock-network loops.
constexpr int kMaxWalkSteps = 1024;
constexpr int kMaxDivideRatio = 1 << 20;
// A5: how many combinational levels downstream of a synchronizer the
// reconvergence search follows.
constexpr int kReconvergeDepth = 8;

struct ClockWalk {
  bool found = false;
  NetId root;
  Phase phase = Phase::kNone;
  bool inverted = false;
  int divide_ratio = 1;
};

/// Backward walk from a clock pin to a phase root. Mirrors the kind
/// dispatch of check::RuleContext::clock_trace (clock buffers pass,
/// inverters flip, ICGs follow their clock input, dividers halve the rate
/// without inverting); anything else ends the walk unresolved.
ClockWalk trace_clock(const Netlist& netlist, NetId start) {
  ClockWalk walk;
  NetId at = start;
  bool inverted = false;
  int ratio = 1;
  for (int step = 0; step < kMaxWalkSteps; ++step) {
    for (const PhaseWaveform& wave : netlist.clocks().phases) {
      if (wave.root == at) {
        walk.found = true;
        walk.root = at;
        walk.phase = wave.phase;
        walk.inverted = inverted;
        walk.divide_ratio = ratio;
        return walk;
      }
    }
    const CellId driver = netlist.net(at).driver;
    if (!driver.valid()) return walk;
    const Cell& cell = netlist.cell(driver);
    switch (cell.kind) {
      case CellKind::kClkBuf:
        at = cell.ins[0];
        break;
      case CellKind::kClkInv:
        inverted = !inverted;
        at = cell.ins[0];
        break;
      case CellKind::kIcg:
      case CellKind::kIcgM1:
      case CellKind::kIcgNoLatch:
        at = cell.ins[1];
        break;
      case CellKind::kClkDiv2:
        if (ratio < kMaxDivideRatio) ratio *= 2;
        at = cell.ins[0];
        break;
      default:
        return walk;  // constant- or data-driven clock: not A4's business
    }
  }
  return walk;
}

/// Backward walk from a register's associated reset net to a declared
/// ResetRoot, through plain/clock buffers and inverters (inverters flip
/// the effective sense).
void trace_reset(const Netlist& netlist, NetId start, DomainLabel* label) {
  NetId at = start;
  bool flipped = false;
  for (int step = 0; step < kMaxWalkSteps; ++step) {
    for (const ResetRoot& root : netlist.reset_roots()) {
      if (root.net == at) {
        label->reset_root = at;
        label->reset_active_low = root.active_low != flipped;
        label->reset_release = root.release_order;
        return;
      }
    }
    const CellId driver = netlist.net(at).driver;
    if (!driver.valid()) return;
    const Cell& cell = netlist.cell(driver);
    switch (cell.kind) {
      case CellKind::kBuf:
      case CellKind::kClkBuf:
        at = cell.ins[0];
        break;
      case CellKind::kInv:
      case CellKind::kClkInv:
        flipped = !flipped;
        at = cell.ins[0];
        break;
      default:
        return;
    }
  }
}

DomainLabel infer_label(const Netlist& netlist, CellId reg) {
  const Cell& cell = netlist.cell(reg);
  DomainLabel label;
  const ClockWalk walk = trace_clock(netlist, cell.ins[clock_pin(cell.kind)]);
  if (walk.found) {
    label.clocked = true;
    label.clock_root = walk.root;
    label.phase = walk.phase;
    label.inverted = walk.inverted;
    label.divide_ratio = walk.divide_ratio;
    label.sample_period_x2 =
        walk.divide_ratio * (cell.kind == CellKind::kDffDet ? 1 : 2);
  }
  const NetId reset = netlist.reset_of(reg);
  if (reset.valid()) trace_reset(netlist, reset, &label);
  return label;
}

std::string describe_clock(const Netlist& netlist, const DomainLabel& label) {
  if (!label.clocked) return "unclocked";
  std::string out = cat("root '", netlist.net(label.clock_root).name,
                        "' phase ", phase_name(label.phase));
  if (label.divide_ratio != 1) out += cat(" /", label.divide_ratio);
  if (label.inverted) out += " inverted";
  if (label.sample_period_x2 == label.divide_ratio) out += " dual-edge";
  return out;
}

/// True when edge s -> d is an A4-sanctioned synchronized crossing: d's
/// data pin is wired straight to s's output (no combinational logic that
/// could glitch mid-metastability) and a second register in d's domain is
/// wired straight to d — the canonical two-register synchronizer chain.
bool synchronized_crossing(const Netlist& netlist, const DomainTable& table,
                           CellId src, CellId dst) {
  const Cell& dst_cell = netlist.cell(dst);
  if (netlist.net(dst_cell.ins[0]).driver != src) return false;
  const DomainLabel* dst_label = table.label_of(dst);
  if (dst_label == nullptr) return false;
  for (const PinRef& ref : netlist.net(dst_cell.out).fanouts) {
    if (ref.pin != 0) continue;
    const Cell& next = netlist.cell(ref.cell);
    if (!next.alive || !is_register(next.kind)) continue;
    const DomainLabel* next_label = table.label_of(ref.cell);
    if (next_label != nullptr && next_label->same_clock_domain(*dst_label)) {
      return true;
    }
  }
  return false;
}

/// Combinational cells reachable from `net` within `depth` levels.
std::set<std::uint32_t> comb_cone(const Netlist& netlist, NetId net,
                                  int depth) {
  std::set<std::uint32_t> cone;
  std::vector<std::pair<NetId, int>> frontier{{net, 0}};
  while (!frontier.empty()) {
    const auto [at, level] = frontier.back();
    frontier.pop_back();
    if (level >= depth) continue;
    for (const PinRef& ref : netlist.net(at).fanouts) {
      const Cell& cell = netlist.cell(ref.cell);
      if (!cell.alive || !is_combinational(cell.kind)) continue;
      if (!cone.insert(ref.cell.value()).second) continue;
      if (cell.out.valid()) frontier.push_back({cell.out, level + 1});
    }
  }
  return cone;
}

}  // namespace

DomainTable infer_domains(const Netlist& netlist) {
  DomainTable table;
  for (const CellId reg : netlist.registers()) {
    table.index.emplace(reg.value(),
                        static_cast<int>(table.regs.size()));
    table.regs.push_back(reg);
    table.labels.push_back(infer_label(netlist, reg));
  }
  return table;
}

std::string domain_table_text(const Netlist& netlist,
                              const DomainTable& table) {
  std::string out = cat("domain table for ", netlist.name(), ": ",
                        table.regs.size(), " register(s)\n");
  for (std::size_t i = 0; i < table.regs.size(); ++i) {
    const DomainLabel& label = table.labels[i];
    out += cat("  ", netlist.cell(table.regs[i]).name, "  clock=",
               describe_clock(netlist, label));
    if (label.has_reset()) {
      out += cat("  reset='", netlist.net(label.reset_root).name,
                 "' release=", label.reset_release, " active-",
                 label.reset_active_low ? "low" : "high");
    }
    out += "\n";
  }
  return out;
}

std::string domain_summary_json(const DomainTable& table) {
  std::set<int> clock_domains;
  std::set<std::uint32_t> reset_domains;
  for (const DomainLabel& label : table.labels) {
    if (label.clocked) clock_domains.insert(label.sample_period_x2);
    if (label.has_reset()) reset_domains.insert(label.reset_root.value());
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("registers").value(static_cast<std::int64_t>(table.regs.size()));
  w.key("clock_domains")
      .value(static_cast<std::int64_t>(clock_domains.size()));
  w.key("reset_domains")
      .value(static_cast<std::int64_t>(reset_domains.size()));
  w.end_object();
  return w.take();
}

std::string domain_table_json(const Netlist& netlist,
                              const DomainTable& table) {
  std::set<int> clock_domains;
  std::set<std::uint32_t> reset_domains;
  for (const DomainLabel& label : table.labels) {
    if (label.clocked) clock_domains.insert(label.sample_period_x2);
    if (label.has_reset()) reset_domains.insert(label.reset_root.value());
  }
  util::JsonWriter w;
  w.begin_object();
  w.key("design").value(netlist.name());
  w.key("num_registers").value(static_cast<std::int64_t>(table.regs.size()));
  w.key("num_clock_domains")
      .value(static_cast<std::int64_t>(clock_domains.size()));
  w.key("num_reset_domains")
      .value(static_cast<std::int64_t>(reset_domains.size()));
  w.key("registers").begin_array();
  for (std::size_t i = 0; i < table.regs.size(); ++i) {
    const DomainLabel& label = table.labels[i];
    w.begin_object();
    w.key("cell").value(netlist.cell(table.regs[i]).name);
    w.key("clocked").value(label.clocked);
    if (label.clocked) {
      w.key("clock_root").value(netlist.net(label.clock_root).name);
      w.key("phase").value(phase_name(label.phase));
      w.key("inverted").value(label.inverted);
      w.key("divide_ratio").value(label.divide_ratio);
      w.key("sample_period_x2").value(label.sample_period_x2);
    }
    if (label.has_reset()) {
      w.key("reset_root").value(netlist.net(label.reset_root).name);
      w.key("reset_release").value(label.reset_release);
      w.key("reset_active_low").value(label.reset_active_low);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.take();
}

// --- A4: cdc-unsync ---------------------------------------------------------

void rule_cdc_unsync(check::RuleContext& ctx, const AnalysisOptions& options,
                     const DomainTable& table) {
  const Netlist& netlist = ctx.netlist();
  const RegisterGraph* graph = ctx.register_graph();
  if (graph == nullptr) return;  // comb-cycle rule owns that pathology
  FindingBudget budget(ctx, check::RuleId::kCdcUnsync,
                       options.max_findings);
  for (std::size_t u = 0; u < graph->regs.size(); ++u) {
    const CellId src = graph->regs[u];
    const DomainLabel* src_label = table.label_of(src);
    if (src_label == nullptr || !src_label->clocked) continue;
    for (const int v : graph->fanout[u]) {
      const CellId dst = graph->regs[v];
      if (dst == src) continue;
      const DomainLabel* dst_label = table.label_of(dst);
      if (dst_label == nullptr || !dst_label->clocked) continue;
      if (src_label->same_clock_domain(*dst_label)) continue;
      if (synchronized_crossing(netlist, table, src, dst)) continue;
      budget.emit(
          cat("data path from register '", netlist.cell(src).name, "' (",
              describe_clock(netlist, *src_label), ") to '",
              netlist.cell(dst).name, "' (",
              describe_clock(netlist, *dst_label),
              ") crosses clock domains without a synchronizer chain"),
          {netlist.cell(dst).name, netlist.cell(src).name}, {},
          "insert a two-register synchronizer clocked by the destination "
          "domain directly at the crossing");
    }
  }
  budget.finish();
}

void rule_cdc_unsync(check::RuleContext& ctx,
                     const AnalysisOptions& options) {
  rule_cdc_unsync(ctx, options, infer_domains(ctx.netlist()));
}

// --- A5: cdc-reconverge -----------------------------------------------------

void rule_cdc_reconverge(check::RuleContext& ctx,
                         const AnalysisOptions& options,
                         const DomainTable& table) {
  const Netlist& netlist = ctx.netlist();
  const RegisterGraph* graph = ctx.register_graph();
  if (graph == nullptr) return;
  FindingBudget budget(ctx, check::RuleId::kCdcReconverge,
                       options.max_findings);
  for (std::size_t u = 0; u < graph->regs.size(); ++u) {
    const CellId src = graph->regs[u];
    const DomainLabel* src_label = table.label_of(src);
    if (src_label == nullptr || !src_label->clocked) continue;
    // Synchronized crossings leaving this source, in fanout order.
    std::vector<CellId> syncs;
    for (const int v : graph->fanout[u]) {
      const CellId dst = graph->regs[v];
      if (dst == src) continue;
      const DomainLabel* dst_label = table.label_of(dst);
      if (dst_label == nullptr || !dst_label->clocked) continue;
      if (src_label->same_clock_domain(*dst_label)) continue;
      if (synchronized_crossing(netlist, table, src, dst)) {
        syncs.push_back(dst);
      }
    }
    if (syncs.size() < 2) continue;
    // Two synchronizers resolve independently; their outputs agreeing is
    // only guaranteed outside the cones where they remix.
    bool reported = false;
    for (std::size_t i = 0; i < syncs.size() && !reported; ++i) {
      const std::set<std::uint32_t> cone_i =
          comb_cone(netlist, netlist.cell(syncs[i]).out, kReconvergeDepth);
      for (std::size_t j = i + 1; j < syncs.size() && !reported; ++j) {
        const std::set<std::uint32_t> cone_j =
            comb_cone(netlist, netlist.cell(syncs[j]).out,
                      kReconvergeDepth);
        for (const std::uint32_t meet : cone_i) {
          if (cone_j.count(meet) == 0) continue;
          budget.emit(
              cat("register '", netlist.cell(src).name,
                  "' crosses domains through two synchronizers ('",
                  netlist.cell(syncs[i]).name, "', '",
                  netlist.cell(syncs[j]).name,
                  "') whose outputs reconverge at '",
                  netlist.cell(CellId{meet}).name, "' within ",
                  kReconvergeDepth, " levels"),
              {netlist.cell(src).name, netlist.cell(syncs[i]).name,
               netlist.cell(syncs[j]).name,
               netlist.cell(CellId{meet}).name},
              {},
              "cross the value once and fan it out in the destination "
              "domain, or gray-code the crossing bits");
          reported = true;
          break;
        }
      }
    }
  }
  budget.finish();
}

void rule_cdc_reconverge(check::RuleContext& ctx,
                         const AnalysisOptions& options) {
  rule_cdc_reconverge(ctx, options, infer_domains(ctx.netlist()));
}

// --- A6: rdc-crossing -------------------------------------------------------

void rule_rdc_crossing(check::RuleContext& ctx,
                       const AnalysisOptions& options,
                       const DomainTable& table) {
  const Netlist& netlist = ctx.netlist();
  if (netlist.reset_roots().size() < 2) return;  // one root: one domain
  const RegisterGraph* graph = ctx.register_graph();
  if (graph == nullptr) return;
  FindingBudget budget(ctx, check::RuleId::kRdcCrossing,
                       options.max_findings);
  for (std::size_t u = 0; u < graph->regs.size(); ++u) {
    const CellId src = graph->regs[u];
    const DomainLabel* src_label = table.label_of(src);
    if (src_label == nullptr || !src_label->has_reset()) continue;
    for (const int v : graph->fanout[u]) {
      const CellId dst = graph->regs[v];
      if (dst == src) continue;
      const DomainLabel* dst_label = table.label_of(dst);
      if (dst_label == nullptr || !dst_label->has_reset()) continue;
      if (src_label->reset_root == dst_label->reset_root) continue;
      // Safe only when the source's reset is released strictly before the
      // destination's: then the source is stable by the time the
      // destination starts sampling.
      if (src_label->reset_release < dst_label->reset_release) continue;
      budget.emit(
          cat("register '", netlist.cell(src).name, "' (reset root '",
              netlist.net(src_label->reset_root).name, "', release ",
              src_label->reset_release, ") feeds '",
              netlist.cell(dst).name, "' (reset root '",
              netlist.net(dst_label->reset_root).name, "', release ",
              dst_label->reset_release,
              ") — the destination can capture mid-reset data"),
          {netlist.cell(dst).name, netlist.cell(src).name}, {},
          "release the destination's reset root after the source's, or "
          "isolate the crossing with reset-hold gating");
    }
  }
  budget.finish();
}

void rule_rdc_crossing(check::RuleContext& ctx,
                       const AnalysisOptions& options) {
  rule_rdc_crossing(ctx, options, infer_domains(ctx.netlist()));
}

}  // namespace tp::analysis
