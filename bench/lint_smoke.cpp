// Lint smoke sweep: run every built-in benchmark through the FF,
// master-slave, and 3-phase flows with per-stage rule checking enabled and
// assert the static phase-rule checker stays silent — clean flow outputs
// must produce zero findings at every checkpoint (the checker's
// false-positive regression gate, wired into CI).
//
// The 54-run matrix executes on the parallel flow-matrix engine
// (src/flow/matrix.hpp); results are identical for any thread count.
//
// --analysis adds the dataflow analyses (A1 X-propagation, A2 min-delay
// races, A3 borrowing chains, A4/A5 clock-domain crossings, A6
// reset-domain crossings) to every checkpoint: clean conversions must
// stay clean under them too. --seeded additionally runs six
// hand-built netlists that each violate exactly one analysis class and
// requires the matching rule to fire — the detection (false-negative)
// half of the gate. --out writes the whole verdict as one JSON artifact
// for CI.
//
//   $ ./bench/lint_smoke [--json] [--cycles N] [--threads N] [NAME...]
//   $ ./bench/lint_smoke --analysis --seeded --out BENCH_lint.json
//
// Exit status: 0 when every stage of every run is clean and every seeded
// violation was detected; 1 otherwise.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "src/analysis/analysis.hpp"
#include "src/flow/matrix.hpp"
#include "src/util/argparse.hpp"
#include "src/util/executor.hpp"
#include "src/util/json.hpp"

using namespace tp;
using namespace tp::flow;

namespace {

/// One seeded-violation fixture: a netlist plus the analysis options and
/// the rule its defect must trip.
struct Seeded {
  std::string name;
  Netlist nl{"seeded"};
  analysis::AnalysisOptions options;
  check::RuleId rule = check::RuleId::kXProp;
};

/// A1: a legal 3-phase latch chain whose head register is declared
/// reset-less (x_sources), so its X must reach downstream registers and
/// the primary output.
Seeded seeded_xprop() {
  Seeded s;
  s.name = "x-escape";
  Netlist& nl = s.nl;
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  const NetId p1n = nl.cell(p1).out;
  const NetId p2n = nl.cell(p2).out;
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p3, Phase::kP3);
  nl.clocks() = three_phase_spec(3000, p1n, p2n, nl.cell(p3).out);

  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "a_p1", {din, p1n}, qa, Phase::kP1);
  const CellId inv = nl.add_gate(CellKind::kInv, "inv", {qa});
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "b_p2", {nl.cell(inv).out, p2n}, qb,
              Phase::kP2);
  nl.add_output("dout", qb);

  s.options.x_sources = {"a_p1"};
  s.rule = check::RuleId::kXProp;
  return s;
}

/// A2: two latches whose hand-written waveforms overlap on [1500, 1800)
/// with a single inverter between them — the min-delay path lands long
/// before the capture window closes.
Seeded seeded_race() {
  Seeded s;
  s.name = "race-through";
  Netlist& nl = s.nl;
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  const NetId p1n = nl.cell(p1).out;
  const NetId p2n = nl.cell(p2).out;
  ClockSpec spec;
  spec.period_ps = 3000;
  spec.phases.push_back({Phase::kP1, p1n, 0, 1800});
  spec.phases.push_back({Phase::kP2, p2n, 1500, 3000});
  nl.clocks() = spec;

  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "launch_p1", {din, p1n}, qa, Phase::kP1);
  const CellId inv = nl.add_gate(CellKind::kInv, "inv", {qa});
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "capture_p2", {nl.cell(inv).out, p2n}, qb,
              Phase::kP2);
  nl.add_output("dout", qb);

  s.rule = check::RuleId::kMinDelayRace;
  return s;
}

/// A3: a tight 300 ps / 3-phase schedule (100 ps budget) with enough
/// combinational depth between consecutive latches that each stage borrows
/// and the chain's cumulative borrow passes the one-segment budget.
Seeded seeded_borrow() {
  Seeded s;
  s.name = "over-borrow";
  Netlist& nl = s.nl;
  const CellId p1 = nl.add_input("p1");
  const CellId p2 = nl.add_input("p2");
  const CellId p3 = nl.add_input("p3");
  nl.set_clock_root(p1, Phase::kP1);
  nl.set_clock_root(p2, Phase::kP2);
  nl.set_clock_root(p3, Phase::kP3);
  const NetId p1n = nl.cell(p1).out;
  const NetId p2n = nl.cell(p2).out;
  const NetId p3n = nl.cell(p3).out;
  nl.clocks() = three_phase_spec(300, p1n, p2n, p3n);

  const auto comb_stage = [&](NetId from, int idx) {
    NetId at = from;
    for (int i = 0; i < 6; ++i) {
      const CellId inv = nl.add_gate(
          CellKind::kInv, "inv_" + std::to_string(idx) + "_" +
                              std::to_string(i), {at});
      at = nl.cell(inv).out;
    }
    return at;
  };

  const NetId din = nl.cell(nl.add_input("din")).out;
  const NetId qa = nl.add_net("qa");
  nl.add_cell(CellKind::kLatchH, "a_p1", {comb_stage(din, 0), p1n}, qa,
              Phase::kP1);
  const NetId qb = nl.add_net("qb");
  nl.add_cell(CellKind::kLatchH, "b_p2", {comb_stage(qa, 1), p2n}, qb,
              Phase::kP2);
  const NetId qc = nl.add_net("qc");
  nl.add_cell(CellKind::kLatchH, "c_p3", {comb_stage(qb, 2), p3n}, qc,
              Phase::kP3);
  nl.add_output("dout", qc);

  s.rule = check::RuleId::kBorrowChain;
  return s;
}

/// A4: a register clocked off a /2 divider feeds a full-rate register
/// directly, with no second synchronizer stage in the fast domain.
Seeded seeded_cdc_unsync() {
  Seeded s;
  s.name = "cdc-unsync";
  Netlist& nl = s.nl;
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clkn = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(2000, clkn);

  const CellId div = nl.add_gate(CellKind::kClkDiv2, "div", {clkn});
  const NetId din = nl.cell(nl.add_input("din")).out;
  const CellId src = nl.add_gate(CellKind::kDff, "slow_src",
                                 {din, nl.cell(div).out}, Phase::kClk);
  const NetId qd = nl.add_net("qd");
  nl.add_cell(CellKind::kDff, "fast_dst", {nl.cell(src).out, clkn}, qd,
              Phase::kClk);
  nl.add_output("dout", qd);

  s.rule = check::RuleId::kCdcUnsync;
  return s;
}

/// A5: one divided-clock source crosses through two independent 2-FF
/// synchronizers whose first-stage outputs remix in an AND gate — each
/// crossing alone is legal, their reconvergence is not.
Seeded seeded_cdc_reconverge() {
  Seeded s;
  s.name = "cdc-reconverge";
  Netlist& nl = s.nl;
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clkn = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(2000, clkn);

  const CellId div = nl.add_gate(CellKind::kClkDiv2, "div", {clkn});
  const NetId din = nl.cell(nl.add_input("din")).out;
  const CellId src = nl.add_gate(CellKind::kDff, "slow_src",
                                 {din, nl.cell(div).out}, Phase::kClk);
  const NetId q = nl.cell(src).out;
  const CellId sa = nl.add_gate(CellKind::kDff, "sync_a", {q, clkn},
                                Phase::kClk);
  const CellId sa2 = nl.add_gate(CellKind::kDff, "sync_a2",
                                 {nl.cell(sa).out, clkn}, Phase::kClk);
  const CellId sb = nl.add_gate(CellKind::kDff, "sync_b", {q, clkn},
                                Phase::kClk);
  const CellId sb2 = nl.add_gate(CellKind::kDff, "sync_b2",
                                 {nl.cell(sb).out, clkn}, Phase::kClk);
  const CellId meet = nl.add_gate(CellKind::kAnd2, "meet",
                                  {nl.cell(sa).out, nl.cell(sb).out});
  nl.add_output("dout_a", nl.cell(sa2).out);
  nl.add_output("dout_b", nl.cell(sb2).out);
  nl.add_output("dout_meet", nl.cell(meet).out);

  s.rule = check::RuleId::kCdcReconverge;
  return s;
}

/// A6: a two-register pipeline whose launch register sits in a reset
/// domain released *after* the capture register's — the capture side can
/// sample pre-reset garbage during the release gap.
Seeded seeded_rdc_crossing() {
  Seeded s;
  s.name = "rdc-crossing";
  Netlist& nl = s.nl;
  const CellId clk = nl.add_input("clk");
  nl.set_clock_root(clk, Phase::kClk);
  const NetId clkn = nl.cell(clk).out;
  nl.clocks() = single_phase_spec(2000, clkn);

  const CellId rst_late = nl.add_input("rst_late");
  const CellId rst_early = nl.add_input("rst_early");
  nl.declare_reset_root(rst_late, /*active_low=*/true, /*release_order=*/1);
  nl.declare_reset_root(rst_early, /*active_low=*/true, /*release_order=*/0);

  const NetId din = nl.cell(nl.add_input("din")).out;
  const CellId src = nl.add_gate(CellKind::kDff, "late_src", {din, clkn},
                                 Phase::kClk);
  const CellId dst = nl.add_gate(CellKind::kDff, "early_dst",
                                 {nl.cell(src).out, clkn}, Phase::kClk);
  nl.set_reset(src, nl.cell(rst_late).out);
  nl.set_reset(dst, nl.cell(rst_early).out);
  nl.add_output("dout", nl.cell(dst).out);

  s.rule = check::RuleId::kRdcCrossing;
  return s;
}

struct SeededResult {
  std::string name;
  std::string rule;
  int findings = 0;
  bool detected = false;
  std::string first_message;
};

SeededResult run_seeded(Seeded seeded) {
  SeededResult out;
  out.name = seeded.name;
  out.rule = std::string(
      check::rule_name(seeded.rule));
  const check::CheckReport report =
      analysis::run_analysis(seeded.nl, seeded.options);
  out.findings = report.count(seeded.rule);
  out.detected = out.findings > 0;
  for (const check::Diagnostic& diag : report.diags) {
    if (diag.rule == seeded.rule) {
      out.first_message = diag.message;
      break;
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false, analysis = false, seeded = false;
  std::size_t cycles = 96, threads = 0;
  std::string out_file;
  std::vector<std::string> only;

  util::ArgParser parser(
      "lint_smoke", "run every benchmark x style flow with per-stage rule "
                    "checking and require zero findings");
  parser.add_flag("--json", &json, "emit one JSON object per run");
  parser.add_flag("--analysis", &analysis,
                  "also run the dataflow analyses at every checkpoint");
  parser.add_flag("--seeded", &seeded,
                  "run the seeded analysis violations and require each to "
                  "be detected");
  parser.add_value("--out", &out_file,
                   "write the sweep + seeded verdict as one JSON artifact",
                   "FILE");
  parser.add_value("--cycles", &cycles, "simulated cycles (default 96)");
  parser.add_value("--threads", &threads,
                   "worker threads (default TP_THREADS or hardware)");
  parser.add_positionals(&only, "NAME",
                         "benchmark names to include (default all)");
  parser.parse_or_exit(argc, argv);

  RunPlan plan;
  plan.benchmarks = only;  // empty selects every built-in benchmark
  plan.cycles = cycles;
  plan.stimulus_seed = 7;
  plan.options.check_rules = true;
  plan.options.check_analysis = analysis;

  std::vector<MatrixResult> results;
  try {
    util::Executor executor(threads);
    results = run_matrix(plan, executor);
  } catch (const Error& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  util::JsonWriter artifact;
  artifact.begin_object();
  artifact.key("analysis").value(analysis);
  artifact.key("runs").begin_array();

  int runs = 0, dirty = 0;
  double lint_seconds = 0;
  if (!json) {
    std::printf("%-8s %-5s | %7s %7s %6s | %s\n", "design", "style",
                "errors", "warns", "stages", "verdict");
  }
  for (const MatrixResult& run : results) {
    const FlowResult& result = run.result;
    int errors = 0, warnings = 0;
    for (const StageLint& stage : result.lint.stages) {
      errors += stage.report.errors;
      warnings += stage.report.warnings;
    }
    const StageLint* blamed = result.lint.first_violation();
    ++runs;
    if (blamed != nullptr) ++dirty;
    lint_seconds += result.times.lint_s;
    const std::string style = std::string(style_name(run.task.style));
    artifact.begin_object();
    artifact.key("design").value(run.task.benchmark);
    artifact.key("style").value(style);
    artifact.key("errors").value(errors);
    artifact.key("warnings").value(warnings);
    artifact.key("stages").value(result.lint.stages.size());
    artifact.key("lint_s").value(result.times.lint_s);
    artifact.key("clean").value(blamed == nullptr);
    if (blamed != nullptr) {
      artifact.key("blamed_stage").value(blamed->stage);
    }
    artifact.end_object();
    if (json) {
      std::printf("{\"design\":\"%s\",\"style\":\"%s\",\"errors\":%d,"
                  "\"warnings\":%d,\"stages\":%zu,\"clean\":%s%s%s%s}\n",
                  run.task.benchmark.c_str(), style.c_str(), errors,
                  warnings, result.lint.stages.size(),
                  blamed == nullptr ? "true" : "false",
                  blamed == nullptr ? "" : ",\"blamed_stage\":\"",
                  blamed == nullptr ? "" : blamed->stage.c_str(),
                  blamed == nullptr ? "" : "\"");
    } else {
      std::printf("%-8s %-5s | %7d %7d %6zu | %s\n",
                  run.task.benchmark.c_str(), style.c_str(), errors,
                  warnings, result.lint.stages.size(),
                  blamed == nullptr
                      ? "clean"
                      : ("VIOLATIONS at " + blamed->stage).c_str());
      if (blamed != nullptr) {
        std::printf("%s", blamed->report.to_text().c_str());
      }
    }
    std::fflush(stdout);
  }
  artifact.end_array();
  artifact.key("lint_seconds").value(lint_seconds);

  // Seeded violations: each fixture must trip exactly its analysis rule.
  int missed = 0, seeded_total = 0;
  if (seeded) {
    artifact.key("seeded").begin_array();
    for (const SeededResult& r :
         {run_seeded(seeded_xprop()), run_seeded(seeded_race()),
          run_seeded(seeded_borrow()), run_seeded(seeded_cdc_unsync()),
          run_seeded(seeded_cdc_reconverge()),
          run_seeded(seeded_rdc_crossing())}) {
      ++seeded_total;
      if (!r.detected) ++missed;
      artifact.begin_object();
      artifact.key("name").value(r.name);
      artifact.key("rule").value(r.rule);
      artifact.key("findings").value(r.findings);
      artifact.key("detected").value(r.detected);
      if (!r.first_message.empty()) {
        artifact.key("message").value(r.first_message);
      }
      artifact.end_object();
      if (!json) {
        std::printf("seeded %-14s %-16s %s (%d finding(s))\n",
                    r.name.c_str(), r.rule.c_str(),
                    r.detected ? "detected" : "MISSED", r.findings);
        if (r.detected) std::printf("  %s\n", r.first_message.c_str());
      }
    }
    artifact.end_array();
  }

  artifact.key("clean").value(dirty == 0 && missed == 0);
  artifact.end_object();

  if (!out_file.empty()) {
    std::ofstream out(out_file, std::ios::trunc);
    if (!out.good()) {
      std::fprintf(stderr, "error: cannot open %s\n", out_file.c_str());
      return 1;
    }
    out << artifact.str() << "\n";
  }
  if (!json) {
    std::printf("\n%d/%d runs clean", runs - dirty, runs);
    if (seeded) {
      std::printf(", %d/%d seeded violations detected", seeded_total - missed,
                  seeded_total);
    }
    std::printf(" (lint %.2f s)\n", lint_seconds);
  }
  return dirty == 0 && missed == 0 ? 0 : 1;
}
