// Parallel sweep runner: a work-queue executor for grids of independent
// simulations.
//
// Every figure and table in the reproduction is a sweep over fully
// independent, deterministic runs — (config, machine size, workload) tuples
// that share nothing.  The simulated machine is lock-step and its clock is
// simulated time, so nothing about a run depends on when or where the host
// executes it.  That makes the whole bench suite embarrassingly parallel at
// the *sweep* level, which is where the wall-clock win is: one engine runs
// on one host thread, and a sweep of hundreds of runs scales trivially with
// host cores.
//
// Design:
//   - run(n, task) executes task(0..n-1), each exactly once, pulling indices
//     from a shared atomic counter (dynamic scheduling — grid tasks vary by
//     orders of magnitude in cost, so static chunking would straggle).
//     Indices are handed out in ascending order, so a caller that knows its
//     task costs maps index i to its i-th costliest task: the longest tasks
//     then start first, and the sweep's tail is a short task rather than
//     one long task running alone (analysis::run_grid does this).
//   - Results go into pre-sized slots indexed by task id (see sweep_map), so
//     output order — and therefore every CSV derived from it — is
//     bit-identical to the serial run regardless of thread count or
//     completion order.
//   - Each task owns its private simd::Machine/engine state; the runner
//     never shares simulation state across tasks.
//   - Threads are spawned per sweep.  Tasks are whole simulations
//     (milliseconds to seconds), so thread start-up cost is noise, and a
//     sweep holds no idle threads alive between uses.
// Robustness (docs/robustness.md): run_tasks() wraps run() with a typed
// per-task outcome — a task that throws simdts::TimeoutError (the engine
// watchdog) yields a kTimeout report instead of aborting the sweep, a
// simdts::TransientError is retried with exponential backoff up to the
// RetryPolicy's attempt limit, and anything else is reported kFailed with
// its message.  Resumable sweeps layer SweepJournal on top (the analysis
// and bench layers own the payload codecs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace simdts::runtime {

/// Host threads a sweep uses by default: $SIMDTS_SWEEP_THREADS if it is a
/// decimal integer in [1, UINT_MAX] (digits only: no sign, space or
/// suffix), otherwise the hardware concurrency (>= 1).
[[nodiscard]] unsigned sweep_threads();

class SweepRunner {
 public:
  /// `threads == 0` picks sweep_threads(); `threads == 1` runs inline.
  explicit SweepRunner(unsigned threads = 0);

  [[nodiscard]] unsigned threads() const noexcept { return threads_; }

  /// Runs task(i) for every i in [0, n), each exactly once, across up to
  /// threads() host threads; blocks until all tasks finish.  Tasks must not
  /// share mutable state (distinct result slots are fine).  If any task
  /// throws, the sweep stops handing out new indices and the first captured
  /// exception is rethrown after all in-flight tasks finish.
  template <typename F>
  void run(std::size_t n, F&& task) {
    using Fn = std::remove_reference_t<F>;
    run_impl(n, const_cast<std::remove_const_t<Fn>*>(std::addressof(task)),
             [](void* ctx, std::size_t i) { (*static_cast<Fn*>(ctx))(i); });
  }

 private:
  using Trampoline = void (*)(void*, std::size_t);
  void run_impl(std::size_t n, void* ctx, Trampoline fn);

  unsigned threads_;
};

/// Outcome class of one sweep task under run_tasks().
enum class TaskStatus : std::uint8_t {
  kOk,        ///< completed (possibly after transient retries)
  kTimeout,   ///< threw simdts::TimeoutError (watchdog); never retried
  kTransient, ///< threw simdts::TransientError on every allowed attempt
  kFailed,    ///< threw anything else; not retried
};

[[nodiscard]] const char* to_string(TaskStatus s);

/// Per-task report filled in by run_tasks(), slot-indexed like the results.
struct TaskReport {
  TaskStatus status = TaskStatus::kOk;
  std::uint32_t attempts = 1;  ///< executions of the task body
  std::string message;         ///< the final exception's what(), if any

  friend bool operator==(const TaskReport&, const TaskReport&) = default;
};

/// Retry policy for transient failures.  Timeouts and hard failures are
/// never retried — a deterministic simulation that blew its budget once
/// will blow it every time.
struct RetryPolicy {
  std::uint32_t max_attempts = 3;   ///< total executions (first + retries)
  /// Base backoff: the sleep before retry k (1-based) is
  /// backoff_ms << (k - 1) — the first retry waits the base delay, every
  /// further retry doubles it.  See backoff_delay_ms() for the exact
  /// (clamped, optionally jittered) schedule.
  std::uint32_t backoff_ms = 10;
  /// Nonzero arms deterministic jitter: each delay gains a SplitMix64-derived
  /// offset in [0, base) mixed from (jitter_seed, salt, retry), so
  /// simultaneous retries of different tasks decorrelate without any host
  /// RNG state.  Zero (the default) keeps the schedule exactly exponential.
  std::uint64_t jitter_seed = 0;
};

/// The backoff schedule as a pure function: the delay in milliseconds slept
/// before retry `retry` (1-based — retry 1 precedes the second execution;
/// retry 0 is meaningless and returns 0).  The base delay is
/// backoff_ms << (retry - 1) with the shift clamped at 32, so a pathological
/// attempt limit saturates instead of shifting past the width (undefined
/// behaviour).  With policy.jitter_seed != 0 a deterministic jitter in
/// [0, base) is added, derived from SplitMix64 over (jitter_seed, salt,
/// retry); `salt` identifies the retrying task (run_tasks passes the task
/// index) so concurrent retries spread out.  Exposed — and kept pure — so
/// tests and the service layer can pin the exact schedule without sleeping.
[[nodiscard]] std::uint64_t backoff_delay_ms(const RetryPolicy& policy,
                                             std::uint32_t retry,
                                             std::uint64_t salt = 0);

/// Like SweepRunner::run, but failures are contained per task: returns one
/// TaskReport per index instead of rethrowing the first exception.  A task
/// throwing TransientError is re-attempted (with exponential backoff) up to
/// policy.max_attempts times; TimeoutError and other exceptions settle the
/// task immediately.  The sweep always visits every index.
[[nodiscard]] std::vector<TaskReport> run_tasks(
    SweepRunner& runner, std::size_t n,
    const std::function<void(std::size_t)>& task, RetryPolicy policy = {});

/// Maps fn over [0, n) in parallel and returns the results in index order:
/// out[i] == fn(i), bit-identical to the serial loop for any thread count.
template <typename T, typename F>
[[nodiscard]] std::vector<T> sweep_map(std::size_t n, F&& fn,
                                       unsigned threads = 0) {
  std::vector<T> out(n);
  SweepRunner runner(threads);
  runner.run(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace simdts::runtime
