// lint_cli — standalone front end to the static phase-rule checker.
//
// Lint a built-in benchmark (optionally after converting it to one of the
// design styles) or an imported structural-Verilog netlist, and report the
// findings as text or JSON:
//
//   $ ./examples/lint_cli --circuit s5378 --backend 3p
//   $ ./examples/lint_cli --in mydesign.v --json
//   $ ./examples/lint_cli --circuit DES3 --backend 3p --stages
//   $ ./examples/lint_cli --circuit s5378 --backend 3p --analysis
//   $ ./examples/lint_cli --in mydesign.v --analysis --x-source rst
//   $ ./examples/lint_cli --circuit MD5 --backend 3p --baseline waivers.txt
//   $ ./examples/lint_cli --circuit s5378 --backend det --domains
//   $ ./examples/lint_cli --list-rules
//
// Exit status: 0 clean, 1 unwaived violations, 2 usage error. Usage
// errors on rule tokens are structured: with --json they also emit a
// serve-style {"ok":false,"error":...} object on stdout.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "src/analysis/analysis.hpp"
#include "src/analysis/domains.hpp"
#include "src/circuits/workload.hpp"
#include "src/flow/serialize.hpp"
#include "src/netlist/verilog.hpp"
#include "src/util/argparse.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

void list_rules() {
  for (const check::RuleSpec& spec : check::rule_registry()) {
    std::printf("%-18s %-8s %s [%s]\n", std::string(spec.name).c_str(),
                std::string(check::severity_name(spec.severity)).c_str(),
                std::string(spec.summary).c_str(),
                std::string(spec.paper_ref).c_str());
  }
}

/// Usage error for an unknown/misspelled rule token: always a stderr
/// line naming every valid spelling; with --json additionally a
/// serve-shaped {"ok":false,"error":...,"valid_rules":[...]} object on
/// stdout so scripted callers get the same structured error a serve
/// request would.
int unknown_rule_error(const std::string& token, bool json) {
  std::string valid;
  for (const check::RuleSpec& spec : check::rule_registry()) {
    if (!valid.empty()) valid += ", ";
    valid += spec.name;
  }
  if (json) {
    util::JsonWriter w;
    w.begin_object();
    w.key("ok").value(false);
    w.key("error").value(cat("unknown rule '", token, "'"));
    w.key("valid_rules").begin_array();
    for (const check::RuleSpec& spec : check::rule_registry()) {
      w.value(spec.name);
    }
    w.end_array();
    w.end_object();
    std::printf("%s\n", w.take().c_str());
  }
  std::fprintf(stderr, "unknown rule '%s' (valid: %s)\n", token.c_str(),
               valid.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string circuit, in_file, waiver_file, baseline_file;
  std::string backend_text;
  std::vector<std::string> disabled;
  bool json = false, quiet = false, stages = false, rules = false;
  bool analysis = false, domains = false;
  std::size_t cycles = 192;
  check::CheckOptions check_options;
  analysis::AnalysisOptions analysis_options;

  util::ArgParser parser(
      "lint_cli", "run the static phase-rule checker on a benchmark, a "
                  "converted design, or a Verilog netlist");
  parser.add_value("--circuit", &circuit,
                   "built-in benchmark (see flow_cli --list)", "NAME");
  parser.add_value("--in", &in_file,
                   "structural Verilog netlist (TP_* cells)", "FILE.v");
  parser.add_value("--backend", &backend_text,
                   "lint the raw netlist or a converted design: raw or a "
                   "backend token ff|ms|3p|pl|2p|det (default raw; "
                   "conversion runs the flow)",
                   "B");
  parser.add_flag("--stages", &stages,
                  "rule-check after every flow stage and blame the first "
                  "offending stage (non-raw styles only)");
  parser.add_flag("--analysis", &analysis,
                  "also run the dataflow analyses (A1 X-propagation, A2 "
                  "min-delay races, A3 borrowing chains, A4/A5 CDC, A6 "
                  "RDC)");
  parser.add_flag("--domains", &domains,
                  "print the inferred clock/reset-domain table of the "
                  "linted netlist (with --json: its own JSON object on the "
                  "line before the report)");
  parser.add_list("--x-source", &analysis_options.x_sources,
                  "treat this input or register as post-reset X for A1 "
                  "(repeatable)", "NAME");
  parser.add_value("--borrow-budget", &analysis_options.borrow_budget_ps,
                   "A3 cumulative borrow budget in ps (default: one phase "
                   "segment)", "PS");
  parser.add_flag("--json", &json,
                  "emit one JSON report object instead of text");
  parser.add_value("--waivers", &waiver_file,
                   "load a waiver file (see docs/lint.md)", "FILE");
  parser.add_value("--baseline", &baseline_file,
                   "write a waiver line per finding and exit 0", "FILE");
  parser.add_list("--disable", &disabled, "skip a rule (repeatable)",
                  "RULE");
  parser.add_value("--max-ddcg", &check_options.ddcg_max_fanout,
                   "DDCG group fanout cap (default 32)");
  parser.add_value("--cycles", &cycles,
                   "simulated cycles for flow styles (default 192)");
  parser.add_flag("--quiet", &quiet, "summary only, no per-finding lines");
  parser.add_flag("--list-rules", &rules,
                  "print the rule catalog and exit");
  parser.parse_or_exit(argc, argv);

  if (rules) {
    list_rules();
    return 0;
  }
  for (const std::string& name : disabled) {
    check::RuleId rule;
    if (!check::rule_from_name(name, &rule)) {
      return unknown_rule_error(name, json);
    }
    check_options.disabled.push_back(rule);
  }

  try {
    if (!waiver_file.empty()) {
      check_options.waivers = check::WaiverSet::parse_file(waiver_file);
    }

    circuits::Benchmark bench{"custom", "custom", Netlist("custom"), 0, ""};
    if (!circuit.empty()) {
      bench = circuits::make_benchmark(circuit);
    } else if (!in_file.empty()) {
      std::ifstream in(in_file);
      require(in.good(), "cannot open " + in_file);
      bench.netlist = read_verilog(in);
      bench.name = bench.netlist.name();
      bench.period_ps = bench.netlist.clocks().period_ps;
    } else {
      std::fprintf(stderr, "one of --circuit or --in is required\n%s",
                   parser.usage().c_str());
      return 2;
    }

    analysis_options.check = check_options;
    check::CheckReport report;
    RuleChecks stage_reports;
    FlowResult result;
    // The netlist the report (and --domains table) describes.
    const Netlist* linted = &bench.netlist;
    const std::string token = !backend_text.empty() ? backend_text : "raw";
    if (token == "raw") {
      report = check::run_checks(bench.netlist, check_options);
      if (analysis) {
        report.merge(analysis::run_analysis(bench.netlist, analysis_options));
      }
    } else {
      DesignStyle style;
      if (!style_from_name(token, &style)) {
        std::fprintf(stderr, "unknown --backend '%s' (valid: raw, %s)\n%s",
                     token.c_str(), backend_token_list().c_str(),
                     parser.usage().c_str());
        return 2;
      }
      FlowOptions options;
      options.lint = check_options;
      options.check_rules = stages;
      options.check_analysis = stages && analysis;
      options.borrow_budget_ps = analysis_options.borrow_budget_ps;
      const Stimulus stim = circuits::make_stimulus(
          bench, circuits::Workload::kPaperDefault, cycles, 7);
      result = run_flow(bench, style, stim, options);
      linted = &result.netlist;
      stage_reports = std::move(result.lint);
      // The final netlist still gets its own report (the flow raises the
      // lint DDCG cap to its own configuration; standalone linting keeps
      // the caller's cap).
      report = check::run_checks(result.netlist, check_options);
      if (analysis) {
        report.merge(
            analysis::run_analysis(result.netlist, analysis_options));
      }
    }

    if (!baseline_file.empty()) {
      std::ofstream out(baseline_file);
      require(out.good(), "cannot open " + baseline_file);
      out << report.to_baseline();
      if (!quiet) {
        std::printf("wrote %d waiver line(s) to %s\n",
                    report.errors + report.warnings + report.infos,
                    baseline_file.c_str());
      }
      return 0;
    }

    if (domains) {
      const analysis::DomainTable table = analysis::infer_domains(*linted);
      if (json) {
        std::printf("%s\n",
                    analysis::domain_table_json(*linted, table).c_str());
      } else {
        std::printf("%s", analysis::domain_table_text(*linted, table).c_str());
      }
    }
    if (json) {
      std::printf("%s\n", report.to_json().c_str());
    } else {
      for (const StageLint& stage : stage_reports.stages) {
        std::printf("stage %-12s %s (%d error(s), %d warning(s))\n",
                    stage.stage.c_str(),
                    stage.report.clean() ? "clean" : "VIOLATIONS",
                    stage.report.errors, stage.report.warnings);
      }
      if (const StageLint* blamed = stage_reports.first_violation()) {
        std::printf("first violation introduced by stage '%s'\n",
                    blamed->stage.c_str());
      }
      if (quiet) {
        std::printf("%s: %d error(s), %d warning(s), %d waived — %s\n",
                    report.design.c_str(), report.errors, report.warnings,
                    report.waived, report.clean() ? "clean" : "VIOLATIONS");
      } else {
        std::printf("%s", report.to_text().c_str());
      }
    }
    return report.clean() && stage_reports.all_clean() ? 0 : 1;
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
