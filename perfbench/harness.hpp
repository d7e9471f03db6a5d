// Shared plumbing of the benchmark program: clocks, the timed repetition
// loop, the in-memory span recorder, and the timing decorator that the
// traced runs pass to the engine as its Problem.
//
// Everything here measures from *outside* the library: spans wrap calls into
// public functions, and the decorator forwards a domain's TreeProblem
// interface unchanged, so a traced run searches the same tree and produces
// the same simulated results as an untraced one.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <thread>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "search/problem.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process user + system CPU seconds so far (all threads).
inline double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// The process's maximum resident set size so far, in MB.
inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// FNV-1a over a byte string: the digest pinned for long simulated outputs
/// (response logs, grid points).
inline std::uint64_t fnv1a(std::string_view bytes,
                           std::uint64_t h = 0xcbf29ce484222325ULL) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the metrics of the mode it ran in, the
/// operation/check tally, and human-readable context lines.
struct Report {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;  ///< operations (solves, grid cells, requests)
  std::uint64_t failed = 0;     ///< operations whose output check failed
  std::vector<std::string> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records one checked operation; prints the reason of a failure.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
};

/// Samples of the timed loop: one (body wall, body CPU) pair per
/// repetition, and the set-up samples.
struct Samples {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> cpu_s;
};

inline constexpr std::size_t kMinReps = 3;
inline constexpr std::size_t kMinSetupSamples = 31;
inline constexpr std::size_t kMaxSetupSamples = 2001;
inline constexpr double kMinSetupSeconds = 0.05;
inline constexpr double kSetupBatchSeconds = 1e-3;
inline constexpr std::size_t kMaxSetupBatch = 4096;

/// One untimed warm-up repetition of `setup()` then `body(state)`, which
/// fills caches and brings the allocator to its steady state; then set-up
/// timed alone, back to back (at least kMinSetupSamples times and 50 ms, so
/// a microsecond set-up still yields a stable median); then `setup()` +
/// timed `body(state)` repeated for `seconds` of wall time, at least
/// kMinReps times.  `on_result` receives each body's result outside the
/// timed region: the correctness checks run there.
template <typename Setup, typename Body, typename OnResult>
Samples timed_loop(double seconds, Setup&& setup, Body&& body,
                   OnResult&& on_result) {
  Samples s;
  {
    auto state = setup();
    on_result(body(*state));
  }
  // A set-up shorter than kSetupBatchSeconds is timed in batches: one sample
  // is the mean construction time of `batch` set-ups, each state destroyed
  // outside the clock, so a sub-microsecond set-up is not read at the
  // clock's own resolution.
  std::size_t batch = 1;
  {
    const auto t0 = Clock::now();
    auto state = setup();
    const double one = seconds_between(t0, Clock::now());
    if (one < kSetupBatchSeconds) {
      batch = std::min<std::size_t>(
          kMaxSetupBatch,
          static_cast<std::size_t>(kSetupBatchSeconds / std::max(one, 1e-9)) + 1);
    }
  }
  const auto setup_start = Clock::now();
  while (s.setup_s.size() < kMinSetupSamples ||
         (s.setup_s.size() < kMaxSetupSamples &&
          seconds_between(setup_start, Clock::now()) < kMinSetupSeconds)) {
    double sum = 0.0;
    for (std::size_t i = 0; i < batch; ++i) {
      const auto t0 = Clock::now();
      auto state = setup();
      sum += seconds_between(t0, Clock::now());
    }
    s.setup_s.push_back(sum / static_cast<double>(batch));
  }
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  while (s.wall_s.size() < kMinReps || Clock::now() < deadline) {
    auto state = setup();
    const double c0 = process_cpu_s();
    const auto t0 = Clock::now();
    auto result = body(*state);
    const auto t1 = Clock::now();
    const double c1 = process_cpu_s();
    s.wall_s.push_back(seconds_between(t0, t1));
    s.cpu_s.push_back(c1 - c0);
    on_result(std::move(result));
  }
  return s;
}

// --- Tracing -----------------------------------------------------------------

/// One recorded span: a named interval on the steady clock (seconds since
/// the recorder's epoch) and the index of the span that caused it (-1 for a
/// root).  `folded_s` is time of a child layer folded into this span without
/// per-call spans (the domain's expand calls: tens of millions per solve).
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
  std::string folded_name;
  double folded_s = 0.0;
  std::uint64_t thread = 0;  ///< recording thread, numbered from 0
};

/// Spans kept in memory and written once, when the run ends.  Thread-safe:
/// the traced grid records task spans from two sweep threads.
class SpanRecorder {
 public:
  SpanRecorder() : epoch_(Clock::now()) {}

  [[nodiscard]] double now() const {
    return seconds_between(epoch_, Clock::now());
  }

  /// Opens a span now; returns its id.
  int open(std::string name, int parent = -1) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{std::move(name), t, t, parent, {}, 0.0,
                          thread_number_locked()});
    return static_cast<int>(spans_.size() - 1);
  }

  void close(int id) {
    const double t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
  }

  void fold(int id, std::string name, double seconds) {
    const std::lock_guard<std::mutex> lock(mu_);
    Span& s = spans_[static_cast<std::size_t>(id)];
    s.folded_name = std::move(name);
    s.folded_s += seconds;
  }

  [[nodiscard]] std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Writes one tab-separated line per span:
  /// id, parent, thread, name, start_s, end_s, folded_name, folded_s.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "id\tparent\tthread\tname\tstart_s\tend_s\tfolded\tfolded_s\n");
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu\t%d\t%llu\t%s\t%.9f\t%.9f\t%s\t%.9f\n", i, s.parent,
                   static_cast<unsigned long long>(s.thread), s.name.c_str(),
                   s.start, s.end,
                   s.folded_name.empty() ? "-" : s.folded_name.c_str(),
                   s.folded_s);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::uint64_t thread_number_locked() {
    const auto id = std::this_thread::get_id();
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      if (threads_[i] == id) return i;
    }
    threads_.push_back(id);
    return threads_.size() - 1;
  }

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// Self time per layer: a span's duration minus its child spans and folded
/// time, summed over the spans of each layer (the name before the first
/// '.').  Folded time is credited to the folded layer.  Spans whose name
/// starts with "bench" are the benchmark's own code and are skipped.
inline std::vector<std::pair<std::string, double>> layer_self_times(
    const std::vector<Span>& spans, double begin, double end) {
  std::vector<double> child(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  std::vector<std::pair<std::string, double>> out;
  auto credit = [&out](const std::string& layer, double t) {
    for (auto& [name, total] : out) {
      if (name == layer) {
        total += t;
        return;
      }
    }
    out.emplace_back(layer, t);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.start < begin || s.end > end) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    if (!s.folded_name.empty()) {
      credit(s.folded_name.substr(0, s.folded_name.find('.')), s.folded_s);
    }
    if (layer == "bench") continue;
    credit(layer, s.end - s.start - child[i] - s.folded_s);
  }
  return out;
}

/// Mean duration of an empty timed interval (two back-to-back clock reads):
/// the part of every timed interval that is the clock itself.  Measured
/// once per process.
inline double clock_read_overhead_s() {
  static const double overhead = [] {
    constexpr int kPairs = 200000;
    Clock::duration total{};
    for (int i = 0; i < kPairs; ++i) {
      const auto t0 = Clock::now();
      total += Clock::now() - t0;
    }
    return std::chrono::duration<double>(total).count() / kPairs;
  }();
  return overhead;
}

/// Counters of the timing decorator.  One instance per engine, so the
/// traced grid's two sweep threads never share one.
struct DomainCounters {
  std::uint64_t expand_calls = 0;
  std::uint64_t children = 0;
  std::uint64_t timed_calls = 0;
  Clock::duration timed_time{};

  /// Expand time of all calls, extrapolated from the timed sample after
  /// taking out the clock's own share of each timed interval.
  [[nodiscard]] double expand_s() const {
    if (timed_calls == 0) return 0.0;
    const double timed = std::chrono::duration<double>(timed_time).count() -
                         static_cast<double>(timed_calls) *
                             clock_read_overhead_s();
    return std::max(0.0, timed) * static_cast<double>(expand_calls) /
           static_cast<double>(timed_calls);
  }
};

/// A TreeProblem that forwards every call to `inner` and times expand():
/// the domain layer's span, folded into counters because a solve makes
/// tens of millions of calls.  One call in kSamplePeriod is timed (a clock
/// read costs about as much as a 15-puzzle expansion) and the total is
/// extrapolated.
template <simdts::search::TreeProblem P>
class TimedProblem {
 public:
  using Node = typename P::Node;
  static constexpr std::uint64_t kSamplePeriod = 16;

  TimedProblem(const P& inner, DomainCounters& counters)
      : inner_(&inner), counters_(&counters) {
    (void)clock_read_overhead_s();  // calibrate before anything is timed
  }

  [[nodiscard]] Node root() const { return inner_->root(); }

  void expand(const Node& n, simdts::search::Bound bound,
              std::vector<Node>& out,
              simdts::search::NextBound& next) const {
    const std::size_t before = out.size();
    if (counters_->expand_calls++ % kSamplePeriod == 0) {
      const auto t0 = Clock::now();
      inner_->expand(n, bound, out, next);
      counters_->timed_time += Clock::now() - t0;
      ++counters_->timed_calls;
    } else {
      inner_->expand(n, bound, out, next);
    }
    counters_->children += out.size() - before;
  }

  [[nodiscard]] bool is_goal(const Node& n) const { return inner_->is_goal(n); }

  [[nodiscard]] simdts::search::Bound f_value(const Node& n) const {
    return inner_->f_value(n);
  }

 private:
  const P* inner_;
  DomainCounters* counters_;
};

}  // namespace perfbench
