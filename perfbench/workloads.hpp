// The benchmark's workloads and what they share: options, end-to-end
// reporting, and the span file of a traced run.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "harness.hpp"
#include "layers.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir = ".";  ///< scratch directory for cache journals
  std::string spans_out;      ///< where a traced run writes its spans

  /// The default seed checks against pinned values only; any other seed is
  /// also checked against a serial search run outside the timed region.
  [[nodiscard]] bool is_default_seed() const { return seed == 0; }
  /// A traced run spends half its time on untraced repetitions, the
  /// baseline its tracing overhead is measured against.
  [[nodiscard]] double untraced_seconds() const {
    return trace ? seconds / 2 : seconds;
  }
  [[nodiscard]] double traced_seconds() const { return seconds / 2; }
};

/// Host threads of the two multi-threaded workloads.  No workload attaches
/// a simd::ThreadPool to a Machine (see NOTES.md).
inline constexpr unsigned kSweepThreads = 2;
inline constexpr unsigned kServiceThreads = 2;

inline void add_end_to_end(Report& r, const Samples& s, double nodes,
                           double ops, unsigned host_threads) {
  const double wall = median(s.wall_s);
  r.add("wall_s", wall, "s");
  r.add("nodes_per_s", nodes / wall, "1/s");
  r.add("requests_per_s", ops / wall, "1/s");
  r.add("cpu_s", median(s.cpu_s), "s");
  r.add("setup_s", median(s.setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.info.push_back("host_threads=" + std::to_string(host_threads) +
                   " nproc=" + std::to_string(std::thread::hardware_concurrency()) +
                   " reps=" + std::to_string(s.wall_s.size()) +
                   " setup_samples=" + std::to_string(s.setup_s.size()));
  const auto [lo, hi] = std::minmax_element(s.wall_s.begin(), s.wall_s.end());
  r.info.push_back("wall_s over reps: min=" + std::to_string(*lo) +
                   " max=" + std::to_string(*hi));
}

/// Repeats a traced repetition for `seconds` (at least once) and returns the
/// layers of the one with the median traced wall.
template <typename TracedRep>
Layers run_traced(double seconds, TracedRep&& rep) {
  std::vector<Layers> reps;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  do {
    reps.push_back(rep());
  } while (Clock::now() < deadline);
  std::sort(reps.begin(), reps.end(), [](const Layers& a, const Layers& b) {
    return a.traced_wall_s < b.traced_wall_s;
  });
  return reps[reps.size() / 2];
}

inline void finish_trace(const Options& opt, const SpanRecorder& rec,
                         Report& r) {
  if (opt.spans_out.empty()) return;
  r.check(rec.write(opt.spans_out), "cannot write spans to " + opt.spans_out);
  r.info.push_back("spans written to " + opt.spans_out);
}

void run_puzzle(const Options& opt, Report& report);
void run_fig4(const Options& opt, Report& report);
void run_service(const Options& opt, Report& report);

/// Recomputes the pinned simulated outputs of every pool entry (the values
/// pools.hpp holds), for re-pinning after a deliberate change.
void print_pins();
void print_service_pins(const Options& opt);

}  // namespace perfbench
