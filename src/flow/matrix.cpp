#include "src/flow/matrix.hpp"

#include <future>
#include <mutex>
#include <optional>
#include <utility>

#include "src/util/executor.hpp"
#include "src/util/hash.hpp"
#include "src/util/log.hpp"
#include "src/util/strcat.hpp"

namespace tp::flow {

using util::fnv1a;
using util::splitmix64;

std::uint64_t task_seed(std::uint64_t base, std::string_view benchmark) {
  return splitmix64(base ^ splitmix64(fnv1a(benchmark)));
}

std::uint64_t lane_seed(std::uint64_t task_seed, std::size_t lane) {
  if (lane == 0) return task_seed;  // one-lane plans match the old engine
  return splitmix64(task_seed ^ splitmix64(lane));
}

std::vector<MatrixTask> RunPlan::tasks() const {
  const std::vector<std::string>& names =
      benchmarks.empty() ? circuits::benchmark_names() : benchmarks;
  std::vector<MatrixTask> tasks;
  tasks.reserve(names.size() * styles.size());
  for (const std::string& name : names) {
    for (const DesignStyle style : styles) {
      MatrixTask task;
      task.index = tasks.size();
      task.benchmark = name;
      task.style = style;
      task.seed = task_seed(stimulus_seed, name);
      tasks.push_back(std::move(task));
    }
  }
  return tasks;
}

namespace {

// What one task simulates: its benchmark, read from the process-wide store,
// and one stimulus per lane.
struct Design {
  const circuits::Benchmark* bench = nullptr;
  std::vector<Stimulus> stimuli;
};

Design build_design(const RunPlan& plan, const MatrixTask& task) {
  Design design{&circuits::stored_benchmark(task.benchmark).benchmark, {}};
  // The cycle budget is split across lanes (rounded up), each lane with its
  // own derived seed; lane 0 of a 1-lane plan is exactly the old
  // single-stimulus task.
  const std::size_t per_lane = (plan.cycles + plan.lanes - 1) / plan.lanes;
  design.stimuli.reserve(plan.lanes);
  for (std::size_t l = 0; l < plan.lanes; ++l) {
    design.stimuli.push_back(circuits::make_stimulus(
        *design.bench, plan.workload, per_lane, lane_seed(task.seed, l)));
  }
  return design;
}

// One benchmark's stimuli within a wave: built by the first of its tasks to
// start and shared read-only by the rest, like the stored netlist (run_flow()
// copies the netlist it converts). A build error is kept and rethrown to
// every task of the benchmark, so each one reports it as if it had built the
// design itself.
class DesignSlot {
 public:
  const Design& get(const RunPlan& plan, const MatrixTask& task) {
    std::call_once(built_, [&] {
      try {
        design_.emplace(build_design(plan, task));
      } catch (...) {
        error_ = std::current_exception();
      }
    });
    if (error_) std::rethrow_exception(error_);
    return *design_;
  }

 private:
  std::once_flag built_;
  std::optional<Design> design_;
  std::exception_ptr error_;
};

// Runs `task` on the design in `slot`. Every failure after the lanes
// precondition, the design's build included, is captured into
// MatrixResult::error with task context.
MatrixResult run_in_slot(const RunPlan& plan, const MatrixTask& task,
                         DesignSlot& slot) {
  require(plan.lanes >= 1 && plan.lanes <= kMaxSimLanes,
          "run_task: RunPlan::lanes must be in [1, 64]");
  Stopwatch watch;
  MatrixResult out;
  out.task = task;
  try {
    if (plan.cancel != nullptr &&
        plan.cancel->load(std::memory_order_relaxed)) {
      throw Error("canceled before start");
    }
    const Design& design = slot.get(plan, task);
    out.result = run_flow(*design.bench, task.style, design.stimuli,
                          plan.options);
  } catch (const std::exception& e) {
    out.error = cat("task ", task.index, " (", task.benchmark, "/",
                    style_name(task.style), "): ", e.what());
  }
  out.seconds = watch.seconds();
  return out;
}

// A plan prepared for a wave: its tasks and one design slot per benchmark.
struct Wave {
  explicit Wave(const RunPlan& source)
      : plan(source),
        tasks(plan.tasks()),
        slots(plan.styles.empty() ? 0 : tasks.size() / plan.styles.size()) {}

  MatrixResult run(std::size_t i) {
    return run_in_slot(plan, tasks[i], slots[i / plan.styles.size()]);
  }

  RunPlan plan;
  std::vector<MatrixTask> tasks;
  std::vector<DesignSlot> slots;
};

// Submits every task of every wave, then joins them in order. Flow failures
// are captured per task; only plan-level misuse (the lanes precondition)
// surfaces as an exception. Every future is joined even then — queued
// tasks reference `waves` — and the first failure in plan order is
// rethrown once all tasks have settled.
std::vector<std::vector<MatrixResult>> run_waves(std::vector<Wave>& waves,
                                                 util::Executor& executor) {
  std::vector<std::vector<std::future<MatrixResult>>> futures(waves.size());
  for (std::size_t w = 0; w < waves.size(); ++w) {
    Wave& wave = waves[w];
    for (std::size_t i = 0; i < wave.tasks.size(); ++i) {
      futures[w].push_back(
          executor.submit([&wave, i] { return wave.run(i); }));
    }
  }
  std::vector<std::vector<MatrixResult>> results(waves.size());
  std::exception_ptr first_error;
  for (std::size_t w = 0; w < futures.size(); ++w) {
    results[w].reserve(futures[w].size());
    for (std::future<MatrixResult>& future : futures[w]) {
      try {
        // wait() helps: the calling thread runs queued tasks too.
        results[w].push_back(executor.wait(std::move(future)));
      } catch (...) {
        if (!first_error) first_error = std::current_exception();
      }
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace

MatrixResult run_task(const RunPlan& plan, const MatrixTask& task) {
  DesignSlot own;  // a lone task shares its stimuli with nobody
  return run_in_slot(plan, task, own);
}

std::vector<MatrixResult> run_matrix(const RunPlan& plan,
                                     util::Executor& executor) {
  std::vector<Wave> waves;
  waves.emplace_back(plan);
  return std::move(run_waves(waves, executor).front());
}

std::vector<MatrixResult> run_matrix(const RunPlan& plan) {
  Wave wave(plan);
  std::vector<MatrixResult> results;
  results.reserve(wave.tasks.size());
  for (std::size_t i = 0; i < wave.tasks.size(); ++i) {
    results.push_back(wave.run(i));
  }
  return results;
}

std::vector<std::vector<MatrixResult>> run_matrices(
    std::span<const RunPlan> plans, util::Executor& executor) {
  std::vector<Wave> waves;
  waves.reserve(plans.size());  // queued tasks hold references into it
  for (const RunPlan& plan : plans) waves.emplace_back(plan);
  return run_waves(waves, executor);
}

std::uint64_t stream_hash(const OutputStream& stream) {
  return util::stream_hash(stream);
}

}  // namespace tp::flow
