// Clock/reset-domain inference and the domain-level lint rules (A4-A6).
//
// infer_domains() walks every sequential cell's clock pin backward through
// the clock network — buffers, inverters, ICG/DDCG gates, and kClkDiv2
// dividers — to a declared phase root, and its associated reset net (see
// Netlist::set_reset) backward through buffers/inverters to a declared
// ResetRoot. The result is one DomainLabel per register:
//
//   (clock_root, divide_ratio, phase_token, reset_root, reset_sense)
//
// All phases of one ClockSpec belong to a single clock family (p1/p2/p3
// are tokens of the same domain, not domains themselves); what separates
// clock domains is the *effective sampling period*: divide_ratio halves
// the rate per divider on the path, and a dual-edge FF doubles it back.
// Three rules consume the labels:
//
//   A4  cdc-unsync     — a register-graph data edge between different
//                        clock domains with no two-register synchronizer
//                        chain in the destination domain.
//   A5  cdc-reconverge — two synchronized crossings from one source
//                        register reconverge within a bounded
//                        combinational cone (the synchronizers can settle
//                        on different cycles).
//   A6  rdc-crossing   — a data edge from a register reset by one async
//                        root into a register reset by a different root
//                        that is released no later than the source's.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/netlist/netlist.hpp"

namespace tp::analysis {

/// The inferred clock/reset provenance of one sequential cell.
struct DomainLabel {
  /// Clock side. `clocked` is false when the clock pin does not trace to
  /// a phase root (constant/data/floating clocks are owned by the
  /// structural rules, not by A4).
  bool clocked = false;
  NetId clock_root;            // phase root net
  Phase phase = Phase::kNone;  // phase token at the root
  bool inverted = false;       // odd number of kClkInv on the path
  int divide_ratio = 1;        // 2^(number of kClkDiv2 on the path)
  /// Effective sampling period in half-cycles of the root:
  /// divide_ratio * (dual-edge sampler ? 1 : 2). Two clocked registers
  /// are in the same clock domain iff this matches.
  int sample_period_x2 = 2;

  /// Reset side (invalid clock_root-style sentinel when the register has
  /// no declared reset association).
  NetId reset_root;
  bool reset_active_low = true;
  int reset_release = 0;

  [[nodiscard]] bool same_clock_domain(const DomainLabel& other) const {
    return clocked && other.clocked &&
           sample_period_x2 == other.sample_period_x2;
  }
  [[nodiscard]] bool has_reset() const { return reset_root.valid(); }
};

/// Domain labels for every live register, in cell-id order.
struct DomainTable {
  std::vector<CellId> regs;
  std::vector<DomainLabel> labels;               // parallel to regs
  std::unordered_map<std::uint32_t, int> index;  // cell id -> row

  [[nodiscard]] const DomainLabel* label_of(CellId reg) const {
    const auto it = index.find(reg.value());
    return it == index.end() ? nullptr : &labels[it->second];
  }
};

/// Derives the label of every live register. Deterministic: rows are in
/// register id order and every walk is a fixed-order backward traversal.
DomainTable infer_domains(const Netlist& netlist);

/// Human-readable and JSON renderings of the domain table (lint_cli
/// --domains, the serve lint payload).
std::string domain_table_text(const Netlist& netlist,
                              const DomainTable& table);
std::string domain_table_json(const Netlist& netlist,
                              const DomainTable& table);

/// Compact {"registers":N,"clock_domains":N,"reset_domains":N} object —
/// the domain summary embedded in serve convert/lint payloads, where the
/// full per-register table would dominate the payload bytes.
std::string domain_summary_json(const DomainTable& table);

/// A4/A5/A6 entry points, mirroring rule_xprop & co. The overloads taking
/// a DomainTable let run_analysis() share one inference pass across the
/// three rules; the two-argument forms infer a fresh table.
void rule_cdc_unsync(check::RuleContext& ctx, const AnalysisOptions& options);
void rule_cdc_unsync(check::RuleContext& ctx, const AnalysisOptions& options,
                     const DomainTable& table);
void rule_cdc_reconverge(check::RuleContext& ctx,
                         const AnalysisOptions& options);
void rule_cdc_reconverge(check::RuleContext& ctx,
                         const AnalysisOptions& options,
                         const DomainTable& table);
void rule_rdc_crossing(check::RuleContext& ctx,
                       const AnalysisOptions& options);
void rule_rdc_crossing(check::RuleContext& ctx,
                       const AnalysisOptions& options,
                       const DomainTable& table);

}  // namespace tp::analysis
