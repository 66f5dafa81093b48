// Tests for the parallel flow engine: the Executor
// (src/util/executor.hpp) and the RunPlan / run_matrix API
// (src/flow/matrix.hpp), including the determinism contract — parallel
// results must be bit-identical to serial run_flow() loops.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/circuits/workload.hpp"
#include "src/flow/matrix.hpp"
#include "src/util/executor.hpp"
#include "src/util/log.hpp"

namespace tp {
namespace {

using flow::DesignStyle;
using flow::FlowOptions;
using flow::FlowResult;
using flow::MatrixResult;
using flow::MatrixTask;
using flow::RunPlan;
using util::Executor;

// ---------------------------------------------------------------------------
// Executor unit tests.

TEST(Executor, RunsSubmittedTasks) {
  Executor executor(4);
  std::atomic<int> count{0};
  std::vector<std::future<int>> futures;
  futures.reserve(64);
  for (int i = 0; i < 64; ++i) {
    futures.push_back(executor.submit([i, &count]() {
      count.fetch_add(1);
      return i * i;
    }));
  }
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(executor.wait(std::move(futures[i])), i * i);
  }
  EXPECT_EQ(count.load(), 64);
}

TEST(Executor, PropagatesExceptions) {
  Executor executor(2);
  auto future = executor.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  EXPECT_THROW(executor.wait(std::move(future)), std::runtime_error);
}

TEST(Executor, ExceptionDoesNotPoisonPool) {
  Executor executor(2);
  auto bad = executor.submit([]() -> int { throw Error("boom"); });
  EXPECT_THROW(executor.wait(std::move(bad)), Error);
  auto good = executor.submit([]() { return 7; });
  EXPECT_EQ(executor.wait(std::move(good)), 7);
}

TEST(Executor, NestedSubmissionDoesNotDeadlock) {
  // Every outer task submits inner tasks and joins them from inside the
  // pool; with help-first wait() this completes even when all workers are
  // occupied by outer tasks.
  Executor executor(2);
  std::vector<std::future<int>> outers;
  outers.reserve(8);
  for (int i = 0; i < 8; ++i) {
    outers.push_back(executor.submit([&executor, i]() {
      std::vector<std::future<int>> inners;
      inners.reserve(4);
      for (int j = 0; j < 4; ++j) {
        inners.push_back(executor.submit([i, j]() { return i * 10 + j; }));
      }
      int sum = 0;
      for (auto& inner : inners) sum += executor.wait(std::move(inner));
      return sum;
    }));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(executor.wait(std::move(outers[i])), i * 40 + 6);
  }
}

TEST(Executor, SingleThreadDegenerateCase) {
  Executor executor(1);
  EXPECT_EQ(executor.thread_count(), 1u);
  std::vector<std::future<int>> futures;
  futures.reserve(32);
  for (int i = 0; i < 32; ++i) {
    futures.push_back(executor.submit([i]() { return i + 1; }));
  }
  int sum = 0;
  for (auto& future : futures) sum += executor.wait(std::move(future));
  EXPECT_EQ(sum, 32 * 33 / 2);
}

TEST(Executor, DestructorDrainsPendingTasks) {
  std::atomic<int> count{0};
  {
    Executor executor(2);
    for (int i = 0; i < 16; ++i) {
      executor.submit([&count]() { count.fetch_add(1); });
    }
  }  // destructor joins; every submitted task must have run
  EXPECT_EQ(count.load(), 16);
}

TEST(Executor, DefaultThreadCountHonoursEnvOverride) {
  ::setenv("TP_THREADS", "3", 1);
  EXPECT_EQ(Executor::default_thread_count(), 3u);
  ::setenv("TP_THREADS", "0", 1);  // invalid: falls back to hardware
  EXPECT_GE(Executor::default_thread_count(), 1u);
  ::unsetenv("TP_THREADS");
  EXPECT_GE(Executor::default_thread_count(), 1u);
}

TEST(Executor, RunOneFromNonWorkerThread) {
  Executor executor(1);
  // Saturate the single worker with a slow task, then help from here.
  std::atomic<bool> ran{0};
  auto slow = executor.submit([]() {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    return 1;
  });
  auto quick = executor.submit([&ran]() {
    ran.store(true);
    return 2;
  });
  while (!ran.load()) {
    if (!executor.run_one()) std::this_thread::yield();
  }
  EXPECT_EQ(executor.wait(std::move(slow)), 1);
  EXPECT_EQ(executor.wait(std::move(quick)), 2);
}

// The schedule of a wave submitted from outside the pool: a helping caller
// takes the oldest queued task, the workers the newest. Which flows run
// side by side in a wave depends on this order.
TEST(Executor, CallerTakesOldestWorkersTakeNewest) {
  Executor executor(1);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  auto blocker = executor.submit([&started, &release] {
    started.store(true);
    while (!release.load()) std::this_thread::yield();
  });
  while (!started.load()) std::this_thread::yield();

  std::mutex order_mutex;
  std::string order;
  const auto record = [&order_mutex, &order](char name) {
    return [&order_mutex, &order, name] {
      std::lock_guard<std::mutex> lock(order_mutex);
      order += name;
    };
  };
  auto a = executor.submit(record('A'));
  auto b = executor.submit(record('B'));
  auto c = executor.submit(record('C'));

  ASSERT_TRUE(executor.run_one());
  {
    std::lock_guard<std::mutex> lock(order_mutex);
    EXPECT_EQ(order, "A");
  }
  // Plain get(), not wait(): a helping join would race the worker for B.
  release.store(true);
  blocker.get();
  b.get();
  c.get();
  a.get();
  EXPECT_EQ(order, "ACB");
}

// ---------------------------------------------------------------------------
// RunPlan / task seeding.

TEST(RunPlan, ExpandsBenchmarkMajorOrder) {
  RunPlan plan;
  plan.benchmarks = {"s1196", "s1238"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kThreePhase};
  const std::vector<MatrixTask> tasks = plan.tasks();
  ASSERT_EQ(tasks.size(), 4u);
  EXPECT_EQ(tasks[0].benchmark, "s1196");
  EXPECT_EQ(tasks[0].style, DesignStyle::kFlipFlop);
  EXPECT_EQ(tasks[1].benchmark, "s1196");
  EXPECT_EQ(tasks[1].style, DesignStyle::kThreePhase);
  EXPECT_EQ(tasks[3].benchmark, "s1238");
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    EXPECT_EQ(tasks[i].index, i);
  }
}

TEST(RunPlan, EmptyBenchmarksMeansAllBuiltIns) {
  RunPlan plan;
  const std::vector<MatrixTask> tasks = plan.tasks();
  EXPECT_EQ(tasks.size(), circuits::benchmark_names().size() * 3);
}

TEST(TaskSeed, DeterministicAndBenchmarkDependent) {
  const std::uint64_t a = flow::task_seed(7, "s1196");
  EXPECT_EQ(a, flow::task_seed(7, "s1196"));
  EXPECT_NE(a, flow::task_seed(7, "s1238"));
  EXPECT_NE(a, flow::task_seed(8, "s1196"));
  // Style-independent on purpose: all styles of one benchmark share the
  // stimulus so their output streams stay cross-comparable.
  RunPlan plan;
  plan.benchmarks = {"s1196"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kMasterSlave,
                 DesignStyle::kThreePhase, DesignStyle::kPulsedLatch};
  for (const MatrixTask& task : plan.tasks()) {
    EXPECT_EQ(task.seed, a);
  }
}

TEST(StreamHash, SensitiveToBitsAndShape) {
  const OutputStream empty;
  const OutputStream one_row{{1, 0, 1}};
  const OutputStream flipped{{1, 1, 1}};
  const OutputStream reshaped{{1, 0}, {1}};
  EXPECT_NE(flow::stream_hash(empty), flow::stream_hash(one_row));
  EXPECT_NE(flow::stream_hash(one_row), flow::stream_hash(flipped));
  EXPECT_NE(flow::stream_hash(one_row), flow::stream_hash(reshaped));
  EXPECT_EQ(flow::stream_hash(one_row), flow::stream_hash({{1, 0, 1}}));
}

// ---------------------------------------------------------------------------
// Parallel vs serial bit-identity.

void expect_identical(const FlowResult& a, const FlowResult& b,
                      const MatrixTask& task) {
  const std::string label =
      task.benchmark + "/" + std::string(flow::style_name(task.style));
  EXPECT_EQ(a.registers, b.registers) << label;
  EXPECT_EQ(a.area_um2, b.area_um2) << label;
  EXPECT_EQ(a.power.clock_mw, b.power.clock_mw) << label;
  EXPECT_EQ(a.power.seq_mw, b.power.seq_mw) << label;
  EXPECT_EQ(a.power.comb_mw, b.power.comb_mw) << label;
  EXPECT_TRUE(streams_equal(a.outputs, b.outputs)) << label;
  EXPECT_EQ(flow::stream_hash(a.outputs), flow::stream_hash(b.outputs))
      << label;
}

TEST(RunMatrix, ParallelBitIdenticalToSerialRunFlowLoop) {
  RunPlan plan;
  plan.benchmarks = {"s1196", "s1423", "s1488"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kMasterSlave,
                 DesignStyle::kThreePhase, DesignStyle::kPulsedLatch};
  plan.cycles = 48;

  // Hand-rolled serial reference: plain run_flow() calls, no executor
  // anywhere, seeded exactly as the contract documents.
  std::vector<FlowResult> reference;
  for (const std::string& name : plan.benchmarks) {
    const circuits::Benchmark bench = circuits::make_benchmark(name);
    const Stimulus stim = circuits::make_stimulus(
        bench, plan.workload, plan.cycles,
        flow::task_seed(plan.stimulus_seed, name));
    for (const DesignStyle style : plan.styles) {
      reference.push_back(run_flow(bench, style, stim, plan.options));
    }
  }

  util::Executor executor(4);
  const std::vector<MatrixResult> parallel = run_matrix(plan, executor);
  ASSERT_EQ(parallel.size(), reference.size());
  for (std::size_t i = 0; i < parallel.size(); ++i) {
    expect_identical(reference[i], parallel[i].result, parallel[i].task);
  }

  // And the serial engine overload agrees with both.
  const std::vector<MatrixResult> serial = run_matrix(plan);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_identical(serial[i].result, parallel[i].result,
                     parallel[i].task);
  }
}

TEST(RunMatrix, WideLanesBitIdenticalAcrossEnginesAndSchedules) {
  // A multi-lane plan must produce the same results from the serial and
  // the parallel engine, and each lane of its output stream must match the
  // scalar reference Simulator replaying that lane's stimulus on the flow's
  // output netlist — the wide engine's bit-identity contract surfaced at
  // the matrix level. Also runs under TSan in CI, covering the wide engine
  // on the executor.
  RunPlan plan;
  plan.benchmarks = {"s1196", "s1488"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kThreePhase};
  plan.cycles = 48;
  plan.lanes = 4;
  // Warmup applies per lane; ceil(48 / 4) = 12 cycles per lane must leave
  // post-warmup cycles to compare.
  plan.options.warmup_cycles = 4;

  const std::vector<MatrixResult> wide_serial = run_matrix(plan);

  util::Executor executor(4);
  const std::vector<MatrixResult> wide_parallel = run_matrix(plan, executor);

  ASSERT_EQ(wide_serial.size(), wide_parallel.size());
  for (std::size_t i = 0; i < wide_serial.size(); ++i) {
    const MatrixResult& r = wide_serial[i];
    expect_identical(r.result, wide_parallel[i].result, r.task);
    // 4 lanes x (12 - 4) post-warmup cycles.
    EXPECT_EQ(r.result.outputs.size(), 32u) << r.task.benchmark;

    const circuits::Benchmark bench =
        circuits::make_benchmark(r.task.benchmark);
    const Netlist& netlist = r.result.netlist;
    Simulator scalar(netlist);
    OutputStream reference;
    for (std::size_t l = 0; l < plan.lanes; ++l) {
      const Stimulus lane = circuits::make_stimulus(
          bench, plan.workload, 12, flow::lane_seed(r.task.seed, l));
      for (auto& row : run_stream(scalar, lane, plan.options.warmup_cycles)) {
        reference.push_back(std::move(row));
      }
    }
    EXPECT_TRUE(streams_equal(reference, r.result.outputs))
        << r.task.benchmark << "/" << flow::style_name(r.task.style);
  }
}

TEST(RunMatrix, OneLanePlanMatchesPreLaneEngine) {
  // lanes == 1 must reproduce the original engine bit-for-bit: lane 0's
  // seed is the task seed and the full cycle budget lands in that lane.
  RunPlan plan;
  plan.benchmarks = {"s1196"};
  plan.styles = {DesignStyle::kThreePhase};
  plan.cycles = 48;
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, plan.workload, plan.cycles,
      flow::task_seed(plan.stimulus_seed, "s1196"));
  const FlowResult reference =
      run_flow(bench, DesignStyle::kThreePhase, stim, plan.options);
  const std::vector<MatrixResult> serial = run_matrix(plan);
  ASSERT_EQ(serial.size(), 1u);
  expect_identical(reference, serial[0].result, serial[0].task);
}

TEST(RunMatrices, InterleavedPlansMatchIndividualRuns) {
  // run_matrices submits every plan's tasks in one wave; each plan's
  // results must still equal a standalone run_matrix of that plan.
  RunPlan base;
  base.benchmarks = {"s1196"};
  base.styles = {DesignStyle::kThreePhase};
  base.cycles = 48;
  base.lanes = 4;
  base.options.warmup_cycles = 4;
  std::vector<RunPlan> plans(2, base);
  plans[1].options.retime = false;

  util::Executor executor(4);
  const std::vector<std::vector<MatrixResult>> interleaved =
      run_matrices(plans, executor);
  ASSERT_EQ(interleaved.size(), 2u);
  for (std::size_t p = 0; p < plans.size(); ++p) {
    const std::vector<MatrixResult> alone = run_matrix(plans[p]);
    ASSERT_EQ(interleaved[p].size(), alone.size());
    for (std::size_t i = 0; i < alone.size(); ++i) {
      expect_identical(alone[i].result, interleaved[p][i].result,
                       alone[i].task);
    }
  }
}

TEST(LaneSeed, LaneZeroIsTaskSeed) {
  EXPECT_EQ(flow::lane_seed(1234, 0), 1234u);
  EXPECT_NE(flow::lane_seed(1234, 1), 1234u);
  EXPECT_NE(flow::lane_seed(1234, 1), flow::lane_seed(1234, 2));
  EXPECT_EQ(flow::lane_seed(1234, 3), flow::lane_seed(1234, 3));
}

TEST(RunMatrix, RepeatedParallelRunsAreIdentical) {
  RunPlan plan;
  plan.benchmarks = {"s1238"};
  plan.cycles = 48;
  util::Executor executor(4);
  const std::vector<MatrixResult> first = run_matrix(plan, executor);
  const std::vector<MatrixResult> second = run_matrix(plan, executor);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_identical(first[i].result, second[i].result, first[i].task);
  }
}

TEST(RunMatrix, UnknownBenchmarkIsCapturedPerTask) {
  // A failing task must not poison the wave: its error lands in
  // MatrixResult::error while every other cell completes normally. The
  // styles of one benchmark share its design slot, so every one of them
  // reports the build error, each under its own task context.
  RunPlan plan;
  plan.benchmarks = {"no-such-circuit", "s1238"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kMasterSlave,
                 DesignStyle::kThreePhase};
  plan.cycles = 48;
  util::Executor executor(2);
  const std::vector<MatrixResult> results = run_matrix(plan, executor);
  ASSERT_EQ(results.size(), 6u);
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE(results[i].error);
    EXPECT_FALSE(results[i].ok());
    EXPECT_NE(results[i].error.find("no-such-circuit"), std::string::npos);
    EXPECT_NE(results[i].error.find("task " + std::to_string(i) + " "),
              std::string::npos);
    EXPECT_EQ(results[i].error.substr(results[i].error.find("): ")),
              results[0].error.substr(results[0].error.find("): ")));
  }
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_TRUE(results[i].ok()) << results[i].error;
    EXPECT_GT(results[i].result.registers, 0);
  }
}

TEST(RunMatrix, CancelFlagFailsQueuedTasksFast) {
  std::atomic<bool> stop{true};  // pre-set: every task sees it before start
  RunPlan plan;
  plan.benchmarks = {"s1238"};
  plan.styles = {DesignStyle::kThreePhase};
  plan.cancel = &stop;
  util::Executor executor(2);
  const std::vector<MatrixResult> results = run_matrix(plan, executor);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].error.find("canceled"), std::string::npos);
}

TEST(RunMatrix, StageTimesAddUpInAFlatWave) {
  // Every flow of a wave runs whole on one thread, so the tasks'
  // stopwatches cannot count each other's work: they sum to at most
  // (workers + the helping caller) x wall, and each task's stage times fit
  // inside its own seconds. A join nested inside a stage would let one
  // task's stopwatch run while its thread executes other tasks.
  RunPlan plan;
  plan.benchmarks = {"s1196", "s1423", "s5378", "s9234"};
  plan.styles = {DesignStyle::kFlipFlop, DesignStyle::kMasterSlave,
                 DesignStyle::kThreePhase};
  plan.cycles = 32;
  constexpr std::size_t kWorkers = 4;
  util::Executor executor(kWorkers);
  Stopwatch wall;
  const std::vector<MatrixResult> results = run_matrix(plan, executor);
  const double wall_s = wall.seconds();
  double sum_s = 0;
  for (const MatrixResult& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    EXPECT_LE(r.result.times.total_s(), r.seconds)
        << r.task.benchmark << "/" << flow::style_name(r.task.style);
    sum_s += r.seconds;
  }
  EXPECT_LE(sum_s, 1.05 * static_cast<double>(kWorkers + 1) * wall_s);
}

// ---------------------------------------------------------------------------
// Checkpoints inside run_flow().

// Deterministic-report regression (runs under TSan in CI): the per-stage
// lint+analysis reports of a flow must be byte-identical JSON whether the
// flow runs inline or as a cell of a wave on 1 or 8 workers —
// finalize_report's canonical diagnostic ordering is what makes every
// merged report converge.
TEST(RunMatrix, LintWaveJsonByteIdenticalAcrossThreadCounts) {
  RunPlan plan;
  plan.benchmarks = {"s1196", "s1423"};
  plan.styles = {DesignStyle::kMasterSlave, DesignStyle::kThreePhase};
  plan.cycles = 32;
  plan.options.check_rules = true;
  plan.options.check_analysis = true;

  const auto lint_bytes = [](const FlowResult& r) {
    std::string bytes;
    for (const flow::StageLint& stage : r.lint.stages) {
      bytes += stage.stage;
      bytes += '\n';
      bytes += stage.report.to_json();
      bytes += '\n';
    }
    return bytes;
  };

  std::vector<std::string> inline_bytes;
  for (const std::string& name : plan.benchmarks) {
    const circuits::Benchmark bench = circuits::make_benchmark(name);
    const Stimulus stim = circuits::make_stimulus(
        bench, plan.workload, plan.cycles,
        flow::task_seed(plan.stimulus_seed, name));
    for (const DesignStyle style : plan.styles) {
      inline_bytes.push_back(
          lint_bytes(run_flow(bench, style, stim, plan.options)));
      EXPECT_FALSE(inline_bytes.back().empty());
    }
  }

  for (const std::size_t threads : {1, 8}) {
    util::Executor executor(threads);
    const std::vector<MatrixResult> wave = run_matrix(plan, executor);
    ASSERT_EQ(wave.size(), inline_bytes.size());
    for (std::size_t i = 0; i < wave.size(); ++i) {
      ASSERT_TRUE(wave[i].ok()) << wave[i].error;
      EXPECT_EQ(lint_bytes(wave[i].result), inline_bytes[i])
          << threads << " thread(s), " << wave[i].task.benchmark << "/"
          << flow::style_name(wave[i].task.style);
    }
  }
}

// A stage hook that throws mid-flow must unwind cleanly: run_flow()
// rethrows the hook's error from the checkpoint that called it, after the
// checkpoints of every earlier stage have run.
TEST(RunFlow, StageHookErrorUnwindsInlineCheckpoints) {
  for (const std::string_view fail_at : {"convert", "retime"}) {
    SCOPED_TRACE("hook fails at " + std::string(fail_at));
    const circuits::Benchmark bench = circuits::make_benchmark("s1196");
    const Stimulus stim = circuits::make_stimulus(
        bench, circuits::Workload::kPaperDefault, 32, 7);
    std::vector<std::string> stages;
    FlowOptions options;
    options.check_equivalence = true;
    options.check_rules = true;
    options.stage_hook = [&](Netlist&, std::string_view stage) {
      stages.emplace_back(stage);
      if (stage == fail_at) throw Error("hook failed");
    };
    try {
      (void)run_flow(bench, DesignStyle::kThreePhase, stim, options);
      ADD_FAILURE() << "run_flow() returned despite the hook's error";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("hook failed"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(stages.back(), fail_at);
  }
}

// StepTimes::hold_s regression: hold-repair time must be accounted in its
// own bucket (and in total_s), not folded into the STA signoff time.
TEST(StepTimes, HoldRepairAccountedSeparately) {
  flow::StepTimes times;
  times.timing_s = 1.0;
  const double before = times.total_s();
  times.hold_s = 2.0;
  EXPECT_DOUBLE_EQ(times.total_s(), before + 2.0);

  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 32, 7);
  FlowOptions options;
  const FlowResult with_repair =
      run_flow(bench, DesignStyle::kFlipFlop, stim, options);
  EXPECT_GE(with_repair.times.hold_s, 0.0);
  options.hold_repair = false;
  const FlowResult without_repair =
      run_flow(bench, DesignStyle::kFlipFlop, stim, options);
  EXPECT_EQ(without_repair.times.hold_s, 0.0);
}

// Checkpoints split the flow's wall clock into stages: each one closes
// its stage's StepTimes field, the stage hook's time included. A hook that
// sleeps at every stage therefore shows up in every field it closed, and
// the stages never add up to more than the wall clock.
TEST(StepTimes, CheckpointsSplitTheFlowIntoStages) {
  constexpr double kSleepS = 0.02;
  const circuits::Benchmark bench = circuits::make_benchmark("s1196");
  const Stimulus stim = circuits::make_stimulus(
      bench, circuits::Workload::kPaperDefault, 32, 7);
  std::vector<std::string> stages;
  FlowOptions options;
  options.stage_hook = [&](Netlist&, std::string_view stage) {
    stages.emplace_back(stage);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  const Stopwatch wall;
  const FlowResult r =
      run_flow(bench, DesignStyle::kThreePhase, stim, options);
  const double wall_s = wall.seconds();

  const flow::StepTimes& t = r.times;
  const std::map<std::string, std::string> field_of = {
      {"synthesis", "synthesis_s"}, {"convert", "convert_s"},
      {"retime", "retime_s"},       {"p2-gating", "clock_gating_s"},
      {"m2", "clock_gating_s"},     {"ddcg", "clock_gating_s"},
      {"hold-repair", "hold_s"}};
  const std::map<std::string, double> seconds = {
      {"synthesis_s", t.synthesis_s}, {"convert_s", t.convert_s},
      {"retime_s", t.retime_s},       {"clock_gating_s", t.clock_gating_s},
      {"hold_s", t.hold_s}};
  std::map<std::string, int> closed;  // field -> checkpoints closing it
  for (const std::string& stage : stages) {
    ASSERT_TRUE(field_of.contains(stage)) << "unexpected stage " << stage;
    ++closed[field_of.at(stage)];
  }
  EXPECT_EQ(stages.size(), field_of.size());
  for (const auto& [field, count] : closed) {
    EXPECT_GE(seconds.at(field), kSleepS * count) << field;
  }
  EXPECT_GE(t.total_s(), kSleepS * static_cast<double>(stages.size()));
  EXPECT_LE(t.total_s(), wall_s);
}

TEST(FlowOptions, NamedConstructorPresets) {
  const FlowOptions paper = FlowOptions::paper_defaults();
  EXPECT_TRUE(paper.retime);
  EXPECT_TRUE(paper.ddcg);
  EXPECT_TRUE(paper.hold_repair);

  const FlowOptions fast = FlowOptions::fast();
  EXPECT_FALSE(fast.retime);
  EXPECT_FALSE(fast.ddcg);
  EXPECT_FALSE(fast.hold_repair);

  const FlowOptions bare = FlowOptions::no_gating();
  EXPECT_FALSE(bare.p2_common_enable_cg);
  EXPECT_FALSE(bare.use_m1);
  EXPECT_FALSE(bare.use_m2);
  EXPECT_FALSE(bare.ddcg);
  EXPECT_TRUE(bare.retime);  // conversion itself stays at paper settings
}

}  // namespace
}  // namespace tp
