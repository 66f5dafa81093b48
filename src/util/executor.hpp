// Thread pool for the parallel flow engine.
//
// Parallelism runs across flows, never inside a stage: a matrix wave
// (src/flow/matrix.hpp) or a serve wave submits one task per
// benchmark x style cell and each task runs its whole run_flow() on the
// thread that picked it up. Every task is a pure function of its inputs.
// The Executor runs them on a fixed set of worker threads that share one
// task queue: submissions append to its back, workers take the newest
// task (back) and a helping caller the oldest (front), so the workers take
// a wave's cells from its end while the caller works from its front.
//
// Joins help: Executor::wait() runs pending tasks on the calling thread
// while the future is not ready, so the thread that submitted a wave
// works through it alongside the workers (an Executor with one worker
// still overlaps with its caller), and a task that joins a subtask cannot
// starve the pool.
//
// Exceptions thrown by a task are captured in its future (via
// std::packaged_task) and rethrown at the join point.
//
// Worker count: `Executor(n)`; `Executor()` uses default_thread_count(),
// which honours the TP_THREADS environment variable and otherwise falls
// back to std::thread::hardware_concurrency().
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace tp::util {

class Executor {
 public:
  /// Starts `threads` workers; 0 means default_thread_count().
  explicit Executor(std::size_t threads = 0);

  /// Joins all workers. Pending tasks are drained first so futures
  /// obtained from submit() never dangle.
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  /// TP_THREADS environment override (clamped to [1, 256]), otherwise
  /// std::thread::hardware_concurrency(), never 0.
  static std::size_t default_thread_count();

  [[nodiscard]] std::size_t thread_count() const { return workers_.size(); }

  /// Schedules `fn` and returns a future for its result. Thread-safe;
  /// callable from worker threads (nested submission).
  template <class F>
  auto submit(F&& fn) -> std::future<std::invoke_result_t<std::decay_t<F>>> {
    using R = std::invoke_result_t<std::decay_t<F>>;
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(fn));
    std::future<R> future = task->get_future();
    enqueue([task]() { (*task)(); });
    return future;
  }

  /// Runs the oldest pending task on the calling thread, if any.
  /// Returns false when the queue was empty.
  bool run_one();

  /// Joins `future`, running pending tasks on the calling thread while it
  /// is not ready (help-first join: safe to call from inside a task).
  /// Rethrows the task's exception, if any.
  template <class T>
  T wait(std::future<T> future) {
    while (future.wait_for(std::chrono::seconds(0)) !=
           std::future_status::ready) {
      if (!run_one()) {
        // Nothing to help with: block on the future itself (bounded, so
        // a task enqueued meanwhile gets picked up on the next lap).
        future.wait_for(std::chrono::milliseconds(1));
      }
    }
    return future.get();
  }

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  // One queue under one mutex. Simple and TSan-clean: the flow tasks are
  // milliseconds to seconds, so queue contention is noise.
  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> tasks_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace tp::util
