#include "src/flow/serialize.hpp"

#include <cstdio>

#include "src/analysis/domains.hpp"
#include "src/util/hash.hpp"
#include "src/util/json.hpp"
#include "src/util/strcat.hpp"

namespace tp::flow {
namespace {

std::string hex16(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace

bool style_from_name(std::string_view text, DesignStyle* style) {
  // The backend registry is the single source of truth for tokens; every
  // registered backend is reachable from every serialized surface.
  const ConversionBackend* backend = find_backend(text);
  if (backend == nullptr) return false;
  *style = backend->id();
  return true;
}

std::string_view style_token(DesignStyle style) {
  return backend_for(style).token();
}

bool options_from_preset(std::string_view name, FlowOptions* options) {
  if (name == "paper") *options = FlowOptions::paper_defaults();
  else if (name == "fast") *options = FlowOptions::fast();
  else if (name == "no-gating") *options = FlowOptions::no_gating();
  else return false;
  return true;
}

bool workload_from_name(std::string_view text,
                        circuits::Workload* workload) {
  if (text == "paper") *workload = circuits::Workload::kPaperDefault;
  else if (text == "dhrystone") *workload = circuits::Workload::kDhrystone;
  else if (text == "coremark") *workload = circuits::Workload::kCoremark;
  else return false;
  return true;
}

std::string options_fingerprint(const FlowOptions& o) {
  // Every field that changes a FlowResult, in a fixed order. Excluded on
  // purpose: incremental_timing (identical reports by contract), vcd and
  // stage_hook (observation hooks), the nullptr-only executor placeholder,
  // and the lint waiver set (verdict presentation, not flow output). Bump
  // the leading version tag when the flow grows result-affecting options
  // that default to old behavior, so old fingerprints stay honest.
  return cat(
      "flowopts-v4",
      " cg=", static_cast<int>(o.synthesis_cg.style),
      ",", o.synthesis_cg.min_icg_group,
      " buf=", o.buffering.max_fanout,
      " assign=", static_cast<int>(o.assign.method),
      ",", o.assign.time_limit_s,
      " retime=", o.retime, ",", o.retime_master_slave,
      " p2cg=", o.p2_common_enable_cg,
      " m1=", o.use_m1, " m2=", o.use_m2,
      " ddcg=", o.ddcg, ",", o.ddcg_options.toggle_threshold,
      ",", o.ddcg_options.max_fanout, ",", o.ddcg_options.use_m1,
      " hold=", o.hold_repair,
      " pl=", o.pulsed_latch.pulse_width_ps, ",", o.pulsed_latch.group_size,
      " 2p=", o.two_phase.nonoverlap_ps,
      " timing=", o.timing.hold_uncertainty_ps, ",", o.timing.input_delay_ps,
      ",", o.timing.output_setup_ps, ",", o.timing.max_iterations,
      " place=", o.place.utilization, ",", o.place.fm_threshold,
      ",", o.place.leaf_size, ",", o.place.seed,
      " cts=", o.cts.max_fanout,
      " warmup=", o.warmup_cycles,
      " sec=", o.check_equivalence,
      " lint=", o.check_rules, ",", o.lint.ddcg_max_fanout,
      " analysis=", o.check_analysis, ",", o.borrow_budget_ps);
}

std::uint64_t options_hash(const FlowOptions& options) {
  return util::fnv1a(options_fingerprint(options));
}

std::string result_payload_json(const RunPlan& plan,
                                const MatrixResult& r) {
  util::JsonWriter w;
  w.begin_object();
  w.key("benchmark").value(r.task.benchmark);
  w.key("style").value(style_token(r.task.style));
  w.key("workload").value(circuits::workload_name(plan.workload));
  w.key("cycles").value(plan.cycles);
  // Hex string: a 64-bit derived seed does not survive a JSON double.
  w.key("seed").value(hex16(r.task.seed));
  w.key("lanes").value(plan.lanes);
  w.key("ok").value(r.ok());
  if (!r.ok()) {
    w.key("error").value(r.error);
    w.end_object();
    return w.take();
  }
  const FlowResult& f = r.result;
  w.key("registers").value(f.registers);
  w.key("area_um2").value(f.area_um2);
  w.key("power_mw").begin_object();
  w.key("clock").value(f.power.clock_mw);
  w.key("seq").value(f.power.seq_mw);
  w.key("comb").value(f.power.comb_mw);
  w.key("leakage").value(f.power.leakage_mw);
  w.key("total").value(f.power.total_mw());
  w.end_object();
  w.key("stream_hash").value(hex16(stream_hash(f.outputs)));
  w.key("stream_rows").value(f.outputs.size());
  w.key("inserted_p2").value(f.inserted_p2);
  w.key("duplicated_icgs").value(f.duplicated_icgs);
  w.key("pulse_generators").value(f.pulse_generators);
  w.key("dividers").value(f.dividers);
  w.key("timing_converged").value(f.timing.converged);
  if (!f.equiv.stages.empty()) {
    w.key("sec_proven").value(f.equiv.all_proven());
  }
  if (!f.lint.stages.empty()) {
    w.key("lint_clean").value(f.lint.all_clean());
    w.key("lint_stages").begin_array();
    for (const StageLint& s : f.lint.stages) {
      w.begin_object();
      w.key("stage").value(s.stage);
      w.key("errors").value(s.report.errors);
      w.key("warnings").value(s.report.warnings);
      w.key("infos").value(s.report.infos);
      w.key("waived").value(s.report.waived);
      w.end_object();
    }
    w.end_array();
    if (const StageLint* first = f.lint.first_violation()) {
      w.key("lint_first_violation").value(first->stage);
    }
    // Clock/reset-domain summary of the final netlist (full table via
    // lint_cli --domains); forwarded by serve::lint_payload().
    w.key("domains").raw(
        analysis::domain_summary_json(analysis::infer_domains(f.netlist)));
  }
  w.end_object();
  return w.take();
}

}  // namespace tp::flow
