// End-to-end design flows (Sec. IV-B): the public entry point of the
// library.
//
// run_flow() takes an FF-based benchmark netlist and produces one of the
// three design styles the paper compares, carrying it through synthesis
// clock-gating inference, conversion, modified retiming, p2 clock gating
// (common-enable with M1/M2 plus multi-bit DDCG), hold repair, placement,
// clock-tree synthesis, gate-level simulation, and power analysis — with
// per-step wall-clock accounting matching the paper's run-time discussion.
//
// The returned output stream allows direct cross-style validation
// ("streaming inputs ... and comparing output streams", Sec. V).
#pragma once

#include <cstddef>
#include <functional>
#include <iosfwd>
#include <span>
#include <string>

#include "src/check/checker.hpp"
#include "src/circuits/benchmark.hpp"
#include "src/cts/cts.hpp"
#include "src/equiv/sec.hpp"
#include "src/phase/assignment.hpp"
#include "src/power/power.hpp"
#include "src/retime/retime.hpp"
#include "src/sim/stimulus.hpp"
#include "src/timing/sta.hpp"
#include "src/transform/buffering.hpp"
#include "src/transform/clock_gating.hpp"
#include "src/transform/convert.hpp"
#include "src/transform/ddcg.hpp"
#include "src/transform/det_ff.hpp"
#include "src/transform/p2_gating.hpp"
#include "src/transform/pulsed_latch.hpp"
#include "src/transform/two_phase.hpp"

namespace tp::flow {

/// One conversion backend per value; src/flow/backend.hpp holds the
/// interface and registry. DesignStyle remains the stable wire-format id
/// (cache keys, serialized jobs), so values are appended, never reordered.
enum class DesignStyle {
  kFlipFlop,
  kMasterSlave,
  kThreePhase,
  kPulsedLatch,
  kTwoPhase,
  kDetFf,
};

inline constexpr int kNumDesignStyles = static_cast<int>(DesignStyle::kDetFf) + 1;

std::string_view style_name(DesignStyle style);

struct FlowOptions {
  CgInferenceOptions synthesis_cg;  // clock-gating style during "synthesis"
  BufferingOptions buffering;       // high-fanout net buffering
  AssignOptions assign;             // 3-phase phase assignment
  bool retime = true;               // modified retiming of inserted latches
  bool retime_master_slave = true;  // slave retiming for the M-S baseline
  bool p2_common_enable_cg = true;
  bool use_m1 = true;  // M1 cells in p2 common-enable gating only
  bool use_m2 = true;
  bool ddcg = true;
  DdcgOptions ddcg_options;
  bool hold_repair = true;
  /// Inert: run_flow does not read it. Hold repair and the signoff STA
  /// share one IncrementalTimer session, whose every analysis is a full
  /// pass. Kept only for callers that still set it; it will be deleted.
  bool incremental_timing = true;
  PulsedLatchOptions pulsed_latch;
  TwoPhaseOptions two_phase;
  TimingOptions timing;
  PlaceOptions place;
  CtsOptions cts;
  std::size_t warmup_cycles = 16;

  /// When set, the final validation simulation dumps a VCD to this stream.
  /// Waveforms are a per-lane concept, so only the first stimulus lane is
  /// recorded. Not owned.
  std::ostream* vcd = nullptr;

  /// Run a sequential equivalence check (src/equiv/) against the input FF
  /// netlist after every transform stage, recording which stage (if any)
  /// first diverges. Opt-in: proofs cost far more than the transforms.
  bool check_equivalence = false;
  equiv::SecOptions sec;
  /// Run the static phase-rule checker (src/check/) after every transform
  /// stage, recording per-stage reports so a violation is blamed on the
  /// first stage that introduced it. Far cheaper than check_equivalence —
  /// the rules are structural, no SAT involved.
  bool check_rules = false;
  check::CheckOptions lint;
  /// Also run the dataflow analyses (src/analysis/: A1 X-propagation, A2
  /// min-delay races, A3 borrowing chains) at every checkpoint, merged into
  /// the same per-stage lint reports so first_violation() blames the stage
  /// that introduced an analysis finding too. Honors `lint` for waivers and
  /// disabled rules. Costlier than the structural rules (each checkpoint
  /// re-runs an abstract simulation and two STA passes) but still far
  /// cheaper than check_equivalence.
  bool check_analysis = false;
  /// A3 cumulative borrow budget in ps; negative means the default of one
  /// full phase segment (period / num_phases).
  double borrow_budget_ps = -1.0;
  /// Test hook invoked at every checkpoint *before* the checks run; lets
  /// tests inject a fault at a named stage and assert that the checkpoint
  /// report blames exactly that stage. Its time counts toward that stage.
  std::function<void(Netlist&, std::string_view)> stage_hook;

  /// The per-stage SEC and lint checkpoints always run inline, on the live
  /// netlist of the flow's own thread. This member holds no pool: its type
  /// admits only nullptr, and it exists so callers that read or clear it
  /// (`options.executor = nullptr`) still compile.
  std::nullptr_t executor = nullptr;

  /// The configuration every paper table uses; identical to a
  /// default-constructed FlowOptions, spelled as a named constructor so
  /// call sites say which regime they mean.
  static FlowOptions paper_defaults();
  /// Cheap smoke-test regime: skips retiming, DDCG (which costs an extra
  /// gate-level simulation), and hold repair, and halves the warmup.
  /// Still produces valid, comparable output streams.
  static FlowOptions fast();
  /// Ablation regime with every post-conversion clock-gating technique
  /// disabled (no common-enable P2 gating, M1, M2, or DDCG); isolates the
  /// conversion itself, as in the paper's gating ablations.
  static FlowOptions no_gating();
};

/// One per-stage equivalence checkpoint (FlowOptions::check_equivalence).
struct StageCheck {
  std::string stage;        // "synthesis", "convert", "retime", ...
  equiv::SecResult result;  // verdict against the input FF netlist
  double seconds = 0;
};

struct EquivChecks {
  std::vector<StageCheck> stages;

  [[nodiscard]] bool all_proven() const {
    for (const StageCheck& s : stages) {
      if (s.result.status != equiv::SecStatus::kProven) return false;
    }
    return true;
  }
  /// First checkpoint that failed to prove equivalence (nullptr when every
  /// stage proved, or when checking was disabled).
  [[nodiscard]] const StageCheck* first_failure() const {
    for (const StageCheck& s : stages) {
      if (s.result.status != equiv::SecStatus::kProven) return &s;
    }
    return nullptr;
  }
};

/// One per-stage lint checkpoint (FlowOptions::check_rules).
struct StageLint {
  std::string stage;          // "synthesis", "convert", "retime", ...
  check::CheckReport report;  // rule findings on the stage's output netlist
  double seconds = 0;
};

struct RuleChecks {
  std::vector<StageLint> stages;

  [[nodiscard]] bool all_clean() const {
    for (const StageLint& s : stages) {
      if (!s.report.clean()) return false;
    }
    return true;
  }
  /// First checkpoint with an unwaived violation — the stage to blame
  /// (nullptr when every stage is clean, or when checking was disabled).
  [[nodiscard]] const StageLint* first_violation() const {
    for (const StageLint& s : stages) {
      if (!s.report.clean()) return &s;
    }
    return nullptr;
  }
};

/// Per-step wall-clock seconds (the paper reports ILP <= 27 s and < 1% of
/// total, CTS ~3x and routing +35% for 3-phase designs). run_flow() fills
/// every field but ilp_s from one stage clock: each stage's time, the
/// stage hook's included, runs from the previous stage boundary to the
/// checkpoint that closes it; SEC and lint time after a checkpoint go to
/// equiv_s and lint_s.
struct StepTimes {
  double synthesis_s = 0;
  double ilp_s = 0;  // of which ILP: the 3-P phase assignment, in convert_s
  double convert_s = 0;
  double retime_s = 0;
  double clock_gating_s = 0;  // p2 common-enable, M2 and DDCG stages
  double hold_s = 0;          // hold-buffer repair
  double timing_s = 0;        // STA signoff only
  double place_s = 0;
  double cts_s = 0;
  double sim_s = 0;
  double power_s = 0;  // area and power metrics
  double equiv_s = 0;  // per-stage SEC checkpoints (opt-in)
  double lint_s = 0;   // per-stage rule checks (opt-in)

  /// Sum of the stages; ilp_s is already inside convert_s.
  [[nodiscard]] double total_s() const {
    return synthesis_s + convert_s + retime_s + clock_gating_s + hold_s +
           timing_s + place_s + cts_s + sim_s + power_s + equiv_s + lint_s;
  }
};

struct FlowResult {
  DesignStyle style = DesignStyle::kFlipFlop;
  Netlist netlist{"empty"};

  // Table I metrics.
  int registers = 0;
  double area_um2 = 0;

  // Table II metrics.
  PowerBreakdown power;

  TimingReport timing;
  OutputStream outputs;  // stream captured under the supplied stimulus
  StepTimes times;

  // 3-phase details.
  PhaseAssignment assignment;
  int inserted_p2 = 0;
  int duplicated_icgs = 0;
  RetimeResult retime;
  P2GatingResult p2_gating;
  M2Result m2;
  DdcgResult ddcg;
  HoldRepairResult hold;
  CgInferenceResult synthesis_cg;
  BufferingResult buffering;
  int pulse_generators = 0;  // pulsed-latch style
  int dividers = 0;          // DET-FF style: kClkDiv2 cells inserted

  /// Per-stage SEC checkpoints (empty unless check_equivalence was set).
  EquivChecks equiv;

  /// Per-stage rule-check reports (empty unless check_rules was set).
  RuleChecks lint;
};

/// Runs the complete flow for one style of the benchmark under `stimulus`.
FlowResult run_flow(const circuits::Benchmark& benchmark, DesignStyle style,
                    const Stimulus& stimulus, const FlowOptions& options = {});

/// Multi-lane variant: runs the flow once and simulates every stimulus
/// lane bit-parallel in one WideSimulator pass. `lanes` must hold
/// 1..kMaxSimLanes equally-shaped stimuli; FlowResult::outputs is the
/// lane-major concatenation of the per-lane streams and the power activity
/// is the sum over lanes.
FlowResult run_flow(const circuits::Benchmark& benchmark, DesignStyle style,
                    std::span<const Stimulus> lanes,
                    const FlowOptions& options = {});

/// Diagnostic result of a stream comparison: where two flows first diverged,
/// or `cycle == -1` when the streams match. Streams of different lengths
/// diverge at the end of the shorter one, with no output to name. Converts
/// to bool ("equal") so `assert(flow::equivalent(a, b))` keeps working.
struct StreamDiff {
  std::ptrdiff_t cycle = -1;
  std::size_t output = 0;
  std::string output_name;
  bool expected = false;  // value in `a`
  bool got = false;       // value in `b`
  std::size_t expected_cycles = 0;  // rows in `a`
  std::size_t got_cycles = 0;       // rows in `b`

  [[nodiscard]] bool equal() const { return cycle < 0; }
  [[nodiscard]] bool length_mismatch() const {
    return expected_cycles != got_cycles;
  }
  explicit operator bool() const { return equal(); }
  [[nodiscard]] std::string to_string() const;
};

/// Compares the output streams of two flow results, reporting the first
/// divergence (cycle index, output name, expected/got) instead of a bare
/// bool.
StreamDiff equivalent(const FlowResult& a, const FlowResult& b);

}  // namespace tp::flow
