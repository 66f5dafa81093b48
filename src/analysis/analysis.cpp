#include "src/analysis/analysis.hpp"

#include <algorithm>

#include "src/analysis/domains.hpp"
#include "src/util/strcat.hpp"

namespace tp::analysis {

const CellLibrary& analysis_library(const AnalysisOptions& options) {
  static const CellLibrary nominal = CellLibrary::nominal_28nm();
  return options.library != nullptr ? *options.library : nominal;
}

void FindingBudget::emit(std::string message, std::vector<std::string> cells,
                         std::vector<std::string> nets, std::string hint) {
  if (cap_ > 0 && emitted_ >= cap_) {
    ++suppressed_;
    return;
  }
  ++emitted_;
  ctx_.emit(rule_, std::move(message), std::move(cells), std::move(nets),
            std::move(hint));
}

void FindingBudget::finish() {
  if (suppressed_ == 0) return;
  ctx_.emit(rule_,
            cat(suppressed_, " additional ", check::rule_name(rule_),
                " finding(s) suppressed by max_findings=", cap_),
            {}, {}, "raise AnalysisOptions::max_findings to see them all");
  suppressed_ = 0;
}

check::CheckReport run_analysis(const Netlist& netlist,
                                const AnalysisOptions& options) {
  check::RuleContext ctx(netlist, options.check);
  const auto enabled = [&](check::RuleId id) {
    return std::find(options.check.disabled.begin(),
                     options.check.disabled.end(),
                     id) == options.check.disabled.end();
  };
  if (enabled(check::RuleId::kXProp)) rule_xprop(ctx, options);
  if (enabled(check::RuleId::kMinDelayRace)) {
    rule_min_delay_race(ctx, options);
  }
  if (enabled(check::RuleId::kBorrowChain)) rule_borrow_chain(ctx, options);
  // The domain rules share one inference pass.
  const bool any_domain_rule = enabled(check::RuleId::kCdcUnsync) ||
                               enabled(check::RuleId::kCdcReconverge) ||
                               enabled(check::RuleId::kRdcCrossing);
  if (any_domain_rule) {
    const DomainTable table = infer_domains(netlist);
    if (enabled(check::RuleId::kCdcUnsync)) {
      rule_cdc_unsync(ctx, options, table);
    }
    if (enabled(check::RuleId::kCdcReconverge)) {
      rule_cdc_reconverge(ctx, options, table);
    }
    if (enabled(check::RuleId::kRdcCrossing)) {
      rule_rdc_crossing(ctx, options, table);
    }
  }
  return check::finalize_report(netlist, ctx.take(), options.check);
}

}  // namespace tp::analysis
