// Parallel flow-matrix engine.
//
// The paper's evaluation (Tables I–III) and this repo's regression gates
// all sweep the same grid: benchmarks x design styles, each cell an
// independent run_flow() invocation. RunPlan describes such a grid once —
// benchmark names, styles, shared FlowOptions, workload, cycle count and a
// base stimulus seed — and run_matrix() executes every cell on an
// Executor (src/util/executor.hpp).
//
// A wave is flat: each cell's run_flow() runs whole on the thread that
// picked it up, opt-in checkpoints included. Each benchmark's design is
// built once per process, by the first cell that needs it, and read from
// the process-wide store (circuits::stored_benchmark) by every later cell
// and wave; its Stimulus is built once per wave, by the first of its cells
// to start. Both are shared read-only by all of its styles; run_flow()
// converts a copy. So MatrixResult::seconds is the time one thread spent on
// one cell, and the cells' times add up to at most threads x wall.
//
// Determinism contract: results are bit-identical regardless of thread
// count or scheduling order. Each task derives its stimulus seed with
// task_seed() (a pure function of the base seed and benchmark name), the
// shared design is a pure function of the benchmark and that seed, and
// run_flow() itself only uses locally-seeded RNGs — so a 16-thread run, a
// 1-thread run, and the serial run_matrix(plan) overload produce identical
// FlowResults (metrics, netlists, output streams). Only the wall-clock
// StepTimes vary.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "src/circuits/workload.hpp"
#include "src/flow/flow.hpp"

namespace tp::util {
class Executor;
}  // namespace tp::util

namespace tp::flow {

/// One cell of the grid, in plan order (benchmark-major, style-minor):
/// index == benchmark_index * styles.size() + style_index.
struct MatrixTask {
  std::size_t index = 0;
  std::string benchmark;
  DesignStyle style = DesignStyle::kFlipFlop;
  std::uint64_t seed = 0;  // per-task stimulus seed (see task_seed)
};

/// Deterministic per-task stimulus seed: splitmix64 finalizer over the
/// base seed mixed with an FNV-1a hash of the benchmark name. Stable
/// across processes and platforms (no std::hash). Deliberately
/// style-independent: every style of one benchmark sees the same
/// stimulus, so output streams stay cross-comparable — the paper's
/// validation protocol streams identical inputs to the FF-based and
/// latch-based designs (Sec. V).
std::uint64_t task_seed(std::uint64_t base, std::string_view benchmark);

/// Deterministic per-lane stimulus seed for multi-lane tasks
/// (RunPlan::lanes >= 2). Lane 0 is the task seed itself, so a one-lane
/// plan is bit-identical to the pre-lane engine; further lanes get
/// splitmix64-mixed derivatives.
std::uint64_t lane_seed(std::uint64_t task_seed, std::size_t lane);

/// A benchmarks x styles grid sharing one FlowOptions / workload / cycle
/// count. Empty `benchmarks` means every built-in benchmark; `styles`
/// defaults to the paper's three compared designs.
struct RunPlan {
  std::vector<std::string> benchmarks;
  std::vector<DesignStyle> styles = {DesignStyle::kFlipFlop,
                                     DesignStyle::kMasterSlave,
                                     DesignStyle::kThreePhase};
  FlowOptions options;
  circuits::Workload workload = circuits::Workload::kPaperDefault;
  std::size_t cycles = 96;
  std::uint64_t stimulus_seed = 7;  // base seed; tasks derive their own
  /// Stimulus lanes per task, in [1, kMaxSimLanes]. With lanes >= 2 each
  /// task generates `lanes` independent stimuli (lane_seed) of
  /// ceil(cycles / lanes) cycles each and simulates them in one
  /// bit-parallel WideSimulator pass — the cheap way to reach a cycle
  /// budget. Results stay deterministic across thread counts, but a 4-lane
  /// plan samples different stimuli than a 1-lane plan of the same seed,
  /// so lane count is part of the reproducibility key.
  std::size_t lanes = 1;

  /// Optional cooperative-cancellation flag (not owned). When it reads
  /// true, tasks that have not started yet fail fast with a "canceled"
  /// MatrixResult::error instead of running — already-running tasks finish
  /// normally, so a wave drains instead of aborting. The serve daemon and
  /// the CLIs wire their SIGINT/SIGTERM flag here.
  const std::atomic<bool>* cancel = nullptr;

  /// Expands the grid into per-task descriptors in plan order.
  [[nodiscard]] std::vector<MatrixTask> tasks() const;
};

struct MatrixResult {
  MatrixTask task;
  FlowResult result;
  /// Wall-clock of this task alone, on one thread; for the task that built
  /// its benchmark's stimuli or stored design, that build included.
  double seconds = 0;
  /// Empty on success; otherwise the task's failure diagnostic, prefixed
  /// with the benchmark/style context. A failed task carries a
  /// default-constructed FlowResult — one poisoned cell degrades that cell
  /// only, never the wave (the daemon's per-request error contract).
  std::string error;

  [[nodiscard]] bool ok() const { return error.empty(); }
};

/// Runs one cell on the stored design and stimuli it builds itself (the
/// serve daemon's path, and the code path every wave cell shares).
/// Exceptions thrown while building or converting are captured into
/// MatrixResult::error with task context; only plan-level misuse (an
/// out-of-range lane count) still throws.
MatrixResult run_task(const RunPlan& plan, const MatrixTask& task);

/// Executes every task of `plan` on `executor`, one flow per task, and
/// returns results in plan order. A failing task is reported through its
/// MatrixResult::error — the rest of the wave completes unaffected; a
/// benchmark that fails to build fails every one of its styles.
std::vector<MatrixResult> run_matrix(const RunPlan& plan,
                                     util::Executor& executor);

/// Serial reference: same results (bit-identical), no threads involved.
std::vector<MatrixResult> run_matrix(const RunPlan& plan);

/// Executes several plans on one shared executor, every task of every
/// plan submitted in a single wave — the configuration-sweep drivers
/// (fig2/fig3/fig4, ablation_cg, ablation_retime) build one plan per
/// FlowOptions/workload configuration and keep the pool saturated across
/// configurations instead of barriering between run_matrix calls.
/// Returns one result vector per plan, each in that plan's order; the
/// run_matrix determinism contract applies to every plan independently.
std::vector<std::vector<MatrixResult>> run_matrices(
    std::span<const RunPlan> plans, util::Executor& executor);

/// FNV-1a hash of an output stream (cycle and bit order significant);
/// the cheap fingerprint the CI divergence gate compares across thread
/// counts.
std::uint64_t stream_hash(const OutputStream& stream);

}  // namespace tp::flow
