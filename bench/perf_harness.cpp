// Wall-clock perf harness: times representative sweeps, the engine inner
// loop, and the packed-substrate kernels, and emits BENCH_engine.json so
// every future PR has a perf trajectory to compare against.
//
// What it measures (all deterministic simulations — only the wall clock
// varies between hosts):
//   - sweep scaling: the Figure 4a GP-S^0.90 isoefficiency grid run through
//     the parallel sweep runner at 1, 2, 4 and 8 host threads (clamped to
//     the grid size); speedup is wall(1 thread) / wall(t threads).
//   - engine throughput: one large single-machine run, reported as expanded
//     nodes per second of host time (the per-cycle hot path: pop/expand,
//     incremental census, matching, transfers).
//   - fault hooks: the engine with an *empty* FaultPlan armed, timed
//     interleaved with unarmed runs so clock drift hits both sides equally.
//   - kernels: byte-plane vs packed bit-plane census / enumerate / GP match
//     / neighbor pairing, and per-node vs batched child staging — the
//     microscopic ingredients of the engine number above.
//   - service: a fixed mixed request trace replayed through the solve
//     service at 1/2/8 host threads — wall qps per thread count, plus the
//     deterministic service metrics (p99 simulated-cycle latency, shed
//     rate); the response logs must be byte-identical across thread counts.
//
// Timing protocol: every section runs SIMDTS_BENCH_REPS times and reports
// the *median* wall time.  Medians are robust to the one-sided noise of a
// shared host (a background hiccup can only slow a rep down, never speed it
// up, so best-of underestimates and mean overestimates); the rep count is
// recorded in the JSON next to every number it produced.
//
// The simulated results (counts, clocks, CSVs) are asserted identical across
// thread counts before anything is written — a speedup obtained by changing
// the answer is a bug, not a result.
//
// Environment knobs:
//   SIMDTS_QUICK        reduced scale (the tier-1-friendly configuration)
//   SIMDTS_BENCH_JSON   output path (default BENCH_engine.json)
//   SIMDTS_BENCH_REPS   timing repetitions, median is reported (default 5)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "fault/fault.hpp"
#include "iso_common.hpp"
#include "lb/engine.hpp"
#include "lb/matching.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/sweep.hpp"
#include "sanitizer/sanitizer.hpp"
#include "search/compact_stack.hpp"
#include "search/work_stack.hpp"
#include "service/service.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/scan.hpp"
#include "simd/summary.hpp"
#include "synthetic/tree.hpp"

namespace {

using namespace simdts;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Median of the samples (the timing protocol of this harness; see header
/// comment).  Even counts average the two middle samples.
double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

struct SweepSample {
  unsigned threads = 0;
  double wall_s = 0.0;
  std::uint64_t nodes = 0;
};

std::uint64_t grid_nodes(const analysis::GridResult& grid) {
  std::uint64_t nodes = 0;
  for (const auto& pt : grid.points) nodes += pt.w;
  return nodes;
}

bool same_grid(const analysis::GridResult& a, const analysis::GridResult& b) {
  return a.points == b.points;
}

std::string format_json_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

// --- Kernel micro-timings ---------------------------------------------------

/// One timed kernel comparison: scalar (byte-plane) vs packed (bit-plane)
/// median nanoseconds per call on the same occupancy pattern.
struct KernelSample {
  const char* name;
  double scalar_ns = 0.0;
  double packed_ns = 0.0;
  /// JSON key names for the two sides (the default pair fits the byte-plane
  /// vs bit-plane kernels; child_staging is a different kind of comparison).
  const char* scalar_key = "scalar_ns";
  const char* packed_key = "bitplane_ns";
  /// When false, no "speedup" is emitted: both sides are dominated by the
  /// same work (child_staging spends its time inside tree.expand either
  /// way, so the ratio is measurement noise presented as a result — parity
  /// is the expected outcome, and the raw times are reported as such).
  bool report_speedup = true;
  [[nodiscard]] double speedup() const {
    return packed_ns > 0.0 ? scalar_ns / packed_ns : 0.0;
  }
};

/// Median ns/call of `iters` calls of `fn`, over `reps` repetitions.  The
/// accumulated checksum keeps the compiler from discarding the kernel work.
template <typename F>
double time_kernel_ns(unsigned reps, std::size_t iters, std::uint64_t& sink,
                      F&& fn) {
  std::vector<double> walls;
  walls.reserve(reps);
  for (unsigned r = 0; r < reps; ++r) {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < iters; ++i) sink += fn();
    walls.push_back(seconds_since(start));
  }
  return median(std::move(walls)) / static_cast<double>(iters) * 1e9;
}

/// Deterministic occupancy pattern: lane i is set when the mix of (seed, i)
/// lands under `percent` — same discipline as the synthetic tree, no host
/// RNG state involved.
std::vector<std::uint8_t> pattern_bytes(std::size_t n, std::uint64_t seed,
                                        unsigned percent) {
  std::vector<std::uint8_t> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = synthetic::Tree::hash2(seed, i) % 100 < percent ? 1 : 0;
  }
  return v;
}

simd::BitPlane pack(const std::vector<std::uint8_t>& bytes) {
  simd::BitPlane plane(bytes.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    plane.set(i, bytes[i] != 0);
  }
  return plane;
}

/// Times the packed-substrate kernels against their byte-plane references on
/// a P-lane plane with engine-like occupancy (mostly busy, few idle).
std::vector<KernelSample> run_kernel_benchmarks(unsigned reps,
                                                std::size_t lanes,
                                                std::uint64_t& sink) {
  const auto busy = pattern_bytes(lanes, 0x605D, 85);
  std::vector<std::uint8_t> idle(lanes);
  for (std::size_t i = 0; i < lanes; ++i) idle[i] = busy[i] != 0 ? 0 : 1;
  const simd::BitPlane busy_plane = pack(busy);
  const simd::BitPlane idle_plane = pack(idle);
  const std::size_t iters = analysis::quick_mode() ? 4000 : 20000;

  std::vector<KernelSample> out;

  KernelSample census{"census"};
  census.scalar_ns = time_kernel_ns(reps, iters, sink, [&] {
    return static_cast<std::uint64_t>(simd::count_set(busy));
  });
  census.packed_ns = time_kernel_ns(reps, iters, sink, [&] {
    return static_cast<std::uint64_t>(busy_plane.count());
  });
  out.push_back(census);

  // Ranks are PE indices, so std::uint32_t spans the whole supported machine
  // envelope (P < 2^32; the mega-P sweeps run 2^20).  Narrower-than-32-bit
  // assumptions on the P axis are what tests/test_mega_p.cpp exists to catch.
  std::vector<std::uint32_t> ranks(lanes);
  KernelSample enumerate{"enumerate"};
  enumerate.scalar_ns = time_kernel_ns(reps, iters, sink, [&] {
    return static_cast<std::uint64_t>(simd::enumerate(busy, ranks));
  });
  enumerate.packed_ns = time_kernel_ns(reps, iters, sink, [&] {
    return static_cast<std::uint64_t>(simd::enumerate(busy_plane, ranks));
  });
  out.push_back(enumerate);

  // A matching phase pairs every idle lane; the pointer rotation makes each
  // call walk a different segment, like successive lb phases.
  const std::size_t match_iters = iters / 4;
  std::vector<simd::Pair> pairs;
  lb::Matcher scalar_matcher(lb::MatchScheme::kGP);
  KernelSample match{"gp_match"};
  match.scalar_ns = time_kernel_ns(reps, match_iters, sink, [&] {
    scalar_matcher.match_into(busy, idle, static_cast<std::size_t>(-1),
                              pairs);
    return static_cast<std::uint64_t>(pairs.size());
  });
  lb::Matcher packed_matcher(lb::MatchScheme::kGP);
  match.packed_ns = time_kernel_ns(reps, match_iters, sink, [&] {
    packed_matcher.match_into(busy_plane, idle_plane,
                              static_cast<std::size_t>(-1), pairs);
    return static_cast<std::uint64_t>(pairs.size());
  });
  out.push_back(match);

  KernelSample neighbor{"neighbor_pairs"};
  neighbor.scalar_ns = time_kernel_ns(reps, match_iters, sink, [&] {
    lb::neighbor_pairs_into(busy, idle, pairs);
    return static_cast<std::uint64_t>(pairs.size());
  });
  neighbor.packed_ns = time_kernel_ns(reps, match_iters, sink, [&] {
    lb::neighbor_pairs_into(busy_plane, idle_plane, pairs);
    return static_cast<std::uint64_t>(pairs.size());
  });
  out.push_back(neighbor);

  // Child staging: per-node clear+push (the old hot loop) vs flat staging
  // buffer + batched WorkStack::append (the shipped one).  Both expand the
  // same deterministic node stream, and both are dominated by that
  // expansion: the staging variants differ only in how a handful of child
  // nodes reach the stack, which is memory-bound copy work either way.
  // Parity (~1.0x) is the honest expectation — the batched path is shipped
  // for the append's single bounds check and its fit with batch expansion,
  // not for a microbenchmark win — so this sample reports raw times and no
  // speedup (see KernelSample::report_speedup).
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  const std::size_t expand_iters = iters;
  search::NextBound nb;
  const auto seed_stack = [&](search::WorkStack<synthetic::Tree::Node>& st) {
    st.clear();
    st.push(tree.root());
  };
  search::WorkStack<synthetic::Tree::Node> stack;
  std::vector<synthetic::Tree::Node> staging;
  KernelSample staging_sample{"child_staging"};
  staging_sample.scalar_key = "per_node_ns";
  staging_sample.packed_key = "batched_ns";
  staging_sample.report_speedup = false;
  seed_stack(stack);
  staging_sample.scalar_ns = time_kernel_ns(reps, expand_iters, sink, [&] {
    if (stack.empty()) seed_stack(stack);
    const synthetic::Tree::Node n = stack.pop();
    staging.clear();
    tree.expand(n, search::kUnbounded, staging, nb);
    for (const auto& c : staging) stack.push(c);
    return static_cast<std::uint64_t>(staging.size());
  });
  seed_stack(stack);
  staging.clear();
  staging_sample.packed_ns = time_kernel_ns(reps, expand_iters, sink, [&] {
    if (stack.empty()) seed_stack(stack);
    const synthetic::Tree::Node n = stack.pop();
    const std::size_t staged = staging.size();
    tree.expand(n, search::kUnbounded, staging, nb);
    const std::size_t added = staging.size() - staged;
    if (added != 0) stack.append(staging.data() + staged, added);
    if (staging.size() > 4096) staging.clear();
    return static_cast<std::uint64_t>(added);
  });
  out.push_back(staging_sample);

  return out;
}

}  // namespace

int main() {
  analysis::print_banner(
      "Perf harness — wall-clock baseline for the sweep runner and engine",
      "repo infrastructure (no paper counterpart)",
      "sweep wall time drops with host threads while every simulated count "
      "and clock stays bit-identical; engine nodes/sec tracks hot-path work");

  const auto sizes = bench::iso_machine_sizes();
  const auto ladder = bench::iso_ladder();
  const lb::SchemeConfig cfg = lb::gp_static(0.90);
  const simd::CostModel cost = simd::cm2_cost_model();
  const std::size_t grid_cells = sizes.size() * ladder.size();
  const auto reps = static_cast<unsigned>(
      std::max<std::uint64_t>(1, analysis::env_u64("SIMDTS_BENCH_REPS", 5)));

  std::cout << "fig4a GP-S^0.90 grid: " << grid_cells << " cells, "
            << "host hardware threads: " << runtime::sweep_threads()
            << ", timing: median of " << reps << " reps\n\n";

  // --- Sweep scaling over the fig4 GP grid. -------------------------------
  std::vector<SweepSample> samples;
  analysis::GridResult reference;
  bool identical = true;
  for (const unsigned t : {1u, 2u, 4u, 8u}) {
    std::vector<double> walls;
    analysis::GridResult grid;
    for (unsigned rep = 0; rep < reps; ++rep) {
      const auto start = Clock::now();
      grid = analysis::run_grid(cfg, ladder, sizes, cost, t);
      walls.push_back(seconds_since(start));
    }
    if (t == 1) {
      reference = grid;
    } else if (!same_grid(reference, grid)) {
      identical = false;
    }
    const double wall = median(std::move(walls));
    samples.push_back(SweepSample{t, wall, grid_nodes(grid)});
    std::cout << "  sweep t=" << t << ": "
              << analysis::format_double(wall, 3) << " s, speedup vs 1t "
              << analysis::format_double(samples.front().wall_s / wall, 2)
              << "x\n";
  }
  if (!identical) {
    std::cout << "\nFATAL: simulated results differ across thread counts — "
                 "refusing to report a speedup obtained by changing the "
                 "answer.\n";
    return 1;
  }
  std::cout << "  all thread counts produced bit-identical grids\n\n";

  // --- Engine throughput: one large single-machine run. -------------------
  const auto& big = ladder.back();
  std::vector<double> engine_walls;
  std::uint64_t engine_nodes = 0;
  for (unsigned rep = 0; rep < reps; ++rep) {
    const synthetic::Tree tree(big.params);
    simd::Machine machine(sizes.back(), cost);
    lb::Engine<synthetic::Tree> engine(tree, machine, cfg);
    const auto start = Clock::now();
    const lb::IterationStats stats = engine.run_iteration(search::kUnbounded);
    engine_walls.push_back(seconds_since(start));
    engine_nodes = stats.nodes_expanded;
  }
  const double engine_wall = median(std::move(engine_walls));
  const double engine_nps =
      engine_wall > 0.0 ? static_cast<double>(engine_nodes) / engine_wall
                        : 0.0;
  std::cout << "engine single run: P = " << sizes.back() << ", W = "
            << engine_nodes << ", "
            << analysis::format_double(engine_wall, 3) << " s, "
            << analysis::format_double(engine_nps, 0) << " nodes/s\n";

  // --- Fault hooks: unarmed vs armed-with-empty-plan, interleaved. --------
  // The fault machinery must be free when unused: an engine with an *empty*
  // FaultPlan armed takes the fault-checking branches every cycle but never
  // fires an event, so its simulated results must be bit-identical to the
  // unarmed engine (hard failure if not) and its wall time within noise.
  // Each rep times an unarmed run immediately followed by an armed run, so
  // slow drift of the host clock rate lands on both sides of the comparison;
  // the overhead is the ratio of the two medians (reported, not gated — wall
  // clocks on shared CI are too wobbly to gate).
  const fault::FaultPlan empty_plan;
  std::vector<double> unarmed_walls;
  std::vector<double> armed_walls;
  bool fault_identical = true;
  {
    const synthetic::Tree tree(big.params);
    lb::IterationStats unarmed_ref;
    for (unsigned rep = 0; rep < reps; ++rep) {
      simd::Machine machine(sizes.back(), cost);
      lb::Engine<synthetic::Tree> engine(tree, machine, cfg);
      auto start = Clock::now();
      const lb::IterationStats unarmed =
          engine.run_iteration(search::kUnbounded);
      unarmed_walls.push_back(seconds_since(start));
      if (rep == 0) {
        unarmed_ref = unarmed;
      } else if (!(unarmed == unarmed_ref)) {
        fault_identical = false;
      }

      simd::Machine armed_machine(sizes.back(), cost);
      lb::Engine<synthetic::Tree> armed(tree, armed_machine, cfg);
      armed.arm_faults(&empty_plan);
      start = Clock::now();
      const lb::IterationStats stats =
          armed.run_iteration(search::kUnbounded);
      armed_walls.push_back(seconds_since(start));
      if (!(stats == unarmed_ref)) fault_identical = false;
    }
  }
  if (!fault_identical) {
    std::cout << "\nFATAL: arming an empty fault plan changed the simulated "
                 "results — the fault hooks are not transparent.\n";
    return 1;
  }
  const double unarmed_wall = median(std::move(unarmed_walls));
  const double armed_wall = median(std::move(armed_walls));
  const double fault_overhead_pct =
      unarmed_wall > 0.0 ? 100.0 * (armed_wall - unarmed_wall) / unarmed_wall
                         : 0.0;
  std::cout << "fault hooks (empty plan armed): "
            << analysis::format_double(armed_wall, 3) << " s vs "
            << analysis::format_double(unarmed_wall, 3)
            << " s unarmed (interleaved), overhead "
            << analysis::format_double(fault_overhead_pct, 1)
            << "%, results bit-identical\n\n";

  // --- SimdSan: zero-cost-when-off gate + armed-vs-disarmed overhead. -----
  // The sanitizer's cost contract has two halves, both gated here.  OFF
  // (the default build): there is nothing to measure, and there must be
  // nothing to measure — the harness hard-fails if the instrumentation is
  // compiled into the binary it is timing (lint.sanitizer_zero_cost proves
  // the symbols are gone from libsimdts.a; this gate proves the *measured
  // binary* was not silently built against a sanitized library, so every
  // number above was produced by sanitizer-free code).  ON (opt-in via
  // SIMDTS_EXPECT_SANITIZER=1, as the CI sanitize job runs it): the checks
  // must be transparent — disarmed and armed runs are timed interleaved
  // exactly like the fault hooks, the simulated results must be
  // bit-identical (hard failure), and the armed overhead is reported.
  const char* expect_env = std::getenv("SIMDTS_EXPECT_SANITIZER");
  const bool expect_sanitizer =
      expect_env != nullptr && expect_env[0] != '\0' && expect_env[0] != '0';
  if (san::kCompiledIn != expect_sanitizer) {
    std::cout << "\nFATAL: sanitizer compiled_in="
              << (san::kCompiledIn ? "true" : "false") << " but this run "
              << (expect_sanitizer
                      ? "expected a SIMDTS_SANITIZE=ON build "
                        "(SIMDTS_EXPECT_SANITIZER is set)."
                      : "expected the default build — the sanitizer leaked "
                        "in and its overhead would contaminate every number "
                        "in this report.")
              << "\n";
    return 1;
  }
  double san_disarmed_wall = 0.0;
  double san_armed_wall = 0.0;
  double san_overhead_pct = 0.0;
#ifdef SIMDTS_SANITIZE
  {
    std::vector<double> disarmed_walls;
    std::vector<double> armed_walls2;
    bool san_identical = true;
    const synthetic::Tree tree(big.params);
    lb::IterationStats disarmed_ref;
    for (unsigned rep = 0; rep < reps; ++rep) {
      san::set_armed(false);
      simd::Machine machine(sizes.back(), cost);
      lb::Engine<synthetic::Tree> engine(tree, machine, cfg);
      auto start = Clock::now();
      const lb::IterationStats disarmed =
          engine.run_iteration(search::kUnbounded);
      disarmed_walls.push_back(seconds_since(start));
      if (rep == 0) {
        disarmed_ref = disarmed;
      } else if (!(disarmed == disarmed_ref)) {
        san_identical = false;
      }

      san::set_armed(true);
      simd::Machine armed_machine(sizes.back(), cost);
      lb::Engine<synthetic::Tree> armed_engine(tree, armed_machine, cfg);
      start = Clock::now();
      const lb::IterationStats armed =
          armed_engine.run_iteration(search::kUnbounded);
      armed_walls2.push_back(seconds_since(start));
      if (!(armed == disarmed_ref)) san_identical = false;
    }
    san::set_armed(true);
    if (!san_identical) {
      std::cout << "\nFATAL: arming the sanitizer changed the simulated "
                   "results — the shadow checks are not transparent.\n";
      return 1;
    }
    san_disarmed_wall = median(std::move(disarmed_walls));
    san_armed_wall = median(std::move(armed_walls2));
    san_overhead_pct =
        san_disarmed_wall > 0.0
            ? 100.0 * (san_armed_wall - san_disarmed_wall) / san_disarmed_wall
            : 0.0;
    std::cout << "sanitizer (SIMDTS_SANITIZE=ON build): armed "
              << analysis::format_double(san_armed_wall, 3) << " s vs "
              << analysis::format_double(san_disarmed_wall, 3)
              << " s disarmed (interleaved), overhead "
              << analysis::format_double(san_overhead_pct, 1)
              << "%, results bit-identical\n\n";
  }
#else
  std::cout << "sanitizer: not compiled in (default build) — zero cost by "
               "construction, held by lint.sanitizer_zero_cost\n\n";
#endif

  std::uint64_t sink = 0;

  // --- Substrate kernels: byte plane vs packed bit plane. -----------------
  const std::size_t kernel_lanes = 1 << 14;
  const std::vector<KernelSample> kernels =
      run_kernel_benchmarks(reps, kernel_lanes, sink);
  std::cout << "kernels (P = " << kernel_lanes
            << " lanes, median ns/call, scalar vs packed):\n";
  for (const KernelSample& k : kernels) {
    std::cout << "  " << k.name << ": "
              << analysis::format_double(k.scalar_ns, 0) << " -> "
              << analysis::format_double(k.packed_ns, 0) << " ns ";
    if (k.report_speedup) {
      std::cout << "(" << analysis::format_double(k.speedup(), 1) << "x)\n";
    } else {
      std::cout << "(expand-dominated; parity expected)\n";
    }
  }
  if (sink == 0xFFFFFFFFFFFFFFFFull) std::cout << "";  // keep `sink` live

  // --- Solve service: qps across host threads + deterministic metrics. ----
  // The same trace through the same service config must produce the same
  // byte-for-byte response log at every thread count (FATAL if not) — only
  // the wall clock may move.  The p99 simulated-cycle latency and shed rate
  // come from the responses themselves and are host-independent.
  const std::size_t svc_n = analysis::quick_mode() ? 160 : 500;
  const auto svc_trace = service::random_trace(20260808, svc_n, 4);
  service::ServiceConfig svc_cfg;
  svc_cfg.admission.engines = 2;
  svc_cfg.admission.queue_capacity = 6;
  svc_cfg.admission.cycles_per_tick = 256;
  svc_cfg.admission.degrade_depth = 4;

  struct ServiceSample {
    unsigned threads = 0;
    double wall_s = 0.0;
  };
  std::vector<ServiceSample> svc_samples;
  std::string svc_reference_log;
  bool svc_identical = true;
  double svc_p99_cycles = 0.0;
  double svc_shed_rate = 0.0;
  for (const unsigned t : {1u, 2u, 8u}) {
    std::vector<double> walls;
    std::string log;
    std::vector<service::Response> responses;
    for (unsigned rep = 0; rep < reps; ++rep) {
      service::ServiceConfig run_cfg = svc_cfg;
      run_cfg.threads = t;
      service::SolveService svc(run_cfg);
      const auto start = Clock::now();
      responses = svc.run_trace(svc_trace);
      walls.push_back(seconds_since(start));
    }
    log = service::SolveService::response_log(responses);
    if (t == 1) {
      svc_reference_log = log;
      // Simulated-cycle latency of every executed response: queue wait (in
      // admission ticks, converted at the configured cycle rate) plus the
      // engine cycles actually spent.  Shed/rejected requests have no
      // latency — they are the shed-rate numerator instead.
      std::vector<double> latencies;
      std::size_t shed = 0;
      for (const auto& r : responses) {
        if (r.status == service::ResponseStatus::kShed ||
            r.status == service::ResponseStatus::kRejected) {
          ++shed;
          continue;
        }
        latencies.push_back(static_cast<double>(
            r.queue_delay_ticks * svc_cfg.admission.cycles_per_tick +
            r.expand_cycles));
      }
      std::sort(latencies.begin(), latencies.end());
      svc_p99_cycles =
          latencies.empty()
              ? 0.0
              : latencies[std::min(latencies.size() - 1,
                                   latencies.size() * 99 / 100)];
      svc_shed_rate =
          static_cast<double>(shed) / static_cast<double>(svc_trace.size());
    } else if (log != svc_reference_log) {
      svc_identical = false;
    }
    const double wall = median(std::move(walls));
    svc_samples.push_back(ServiceSample{t, wall});
    std::cout << (t == 1 ? "service trace (" + std::to_string(svc_n) +
                               " mixed requests):\n"
                         : "")
              << "  service t=" << t << ": "
              << analysis::format_double(wall, 3) << " s, "
              << analysis::format_double(
                     wall > 0.0 ? static_cast<double>(svc_n) / wall : 0.0, 0)
              << " req/s\n";
  }
  if (!svc_identical) {
    std::cout << "\nFATAL: service response logs differ across host thread "
                 "counts — refusing to report qps obtained by changing the "
                 "responses.\n";
    return 1;
  }
  std::cout << "  p99 simulated latency "
            << analysis::format_double(svc_p99_cycles, 0)
            << " cycles, shed rate "
            << analysis::format_double(100.0 * svc_shed_rate, 1)
            << "%, logs byte-identical across thread counts\n\n";

  // --- Mega-P: bytes per lane + sparse lb-phase scaling. ------------------
  // Two measurements back the P = 2^20 story (docs/performance.md, "memory
  // model & mega-P").
  //
  // bytes_per_lane: one lane driven through the engine's own op discipline
  // (pop, expand, append) down an unbounded 15-puzzle descent and back up,
  // sampling heap bytes after every operation.  The time-averaged resident
  // bytes — the figure P multiplies at mega-P — is what the WorkStack and
  // the CompactStack disagree about: 16 bytes per entry versus a 2-byte
  // delta record plus one path byte per level.  The whole-machine engine
  // aggregate (time-averaged over every expand cycle, all P lanes) is
  // reported alongside at each machine size; its ratio is smaller because
  // shallow transient stacks are dominated by fixed segment overhead rather
  // than entries.
  //
  // lb_phase: a rendezvous phase on a sparse plane (1024 busy + 1024 idle
  // lanes scattered over P) timed flat — every plane word loaded, O(P/64) —
  // versus hierarchical, which hops between occupied words via the summary
  // plane, O(occupied + P/4096).  Pair sequences are asserted identical
  // before timing (FATAL if not): the speedup must come from skipping
  // provably-zero words, never from changing the matching.
  const std::size_t descent_steps =
      analysis::quick_mode() ? 4000 : 16000;
  double mega_full_avg = 0.0;
  double mega_compact_avg = 0.0;
  std::size_t mega_full_peak = 0;
  std::size_t mega_compact_peak = 0;
  {
    const auto& wl = puzzle::test_workloads()[1];
    const puzzle::FifteenPuzzle problem(wl.board());
    search::WorkStack<puzzle::FifteenPuzzle::Node> full_stack;
    search::CompactStack<puzzle::FifteenPuzzle> compact_stack;
    compact_stack.bind(problem);
    full_stack.push(problem.root());
    compact_stack.push(problem.root());
    std::vector<puzzle::FifteenPuzzle::Node> kids;
    search::NextBound nb;
    std::uint64_t int_full = 0;
    std::uint64_t int_compact = 0;
    std::uint64_t mega_samples = 0;
    const auto sample = [&] {
      const std::size_t f = full_stack.memory_bytes();
      const std::size_t c = compact_stack.memory_bytes();
      int_full += f;
      int_compact += c;
      mega_full_peak = std::max(mega_full_peak, f);
      mega_compact_peak = std::max(mega_compact_peak, c);
      ++mega_samples;
    };
    for (std::size_t step = 0; step < descent_steps; ++step) {
      const puzzle::FifteenPuzzle::Node a = full_stack.pop();
      if (!(a == compact_stack.pop())) {
        std::cout << "\nFATAL: CompactStack diverged from WorkStack during "
                     "the bytes_per_lane descent.\n";
        return 1;
      }
      kids.clear();
      problem.expand(a, search::kUnbounded, kids, nb);
      std::vector<puzzle::FifteenPuzzle::Node> copy = kids;
      full_stack.append(copy.data(), copy.size());
      compact_stack.append(kids.data(), kids.size());
      sample();
    }
    while (!full_stack.empty()) {
      if (!(full_stack.pop() == compact_stack.pop())) {
        std::cout << "\nFATAL: CompactStack diverged from WorkStack during "
                     "the bytes_per_lane drain.\n";
        return 1;
      }
      compact_stack.release_if_drained();
      sample();
    }
    mega_full_avg = static_cast<double>(int_full) /
                    static_cast<double>(mega_samples);
    mega_compact_avg = static_cast<double>(int_compact) /
                       static_cast<double>(mega_samples);
  }
  const double mega_avg_ratio =
      mega_compact_avg > 0.0 ? mega_full_avg / mega_compact_avg : 0.0;
  const double mega_peak_ratio =
      mega_compact_peak > 0
          ? static_cast<double>(mega_full_peak) /
                static_cast<double>(mega_compact_peak)
          : 0.0;
  std::cout << "mega-P bytes/lane (15-puzzle, " << descent_steps
            << "-step descent + drain, time-averaged heap):\n"
            << "  WorkStack " << analysis::format_double(mega_full_avg, 0)
            << " B -> CompactStack "
            << analysis::format_double(mega_compact_avg, 0) << " B ("
            << analysis::format_double(mega_avg_ratio, 2) << "x; peak "
            << analysis::format_double(mega_peak_ratio, 2) << "x)\n";
  if (mega_avg_ratio < 4.0) {
    std::cout << "\nFATAL: bytes_per_lane ratio fell below the 4x the "
                 "compact representation is shipped for.\n";
    return 1;
  }

  struct MegaSample {
    std::uint32_t p = 0;
    double engine_full_avg = 0.0;    ///< aggregate B/lane, full-Node stacks
    double engine_compact_avg = 0.0; ///< aggregate B/lane, compact stacks
    double flat_ns = 0.0;            ///< flat rendezvous, ns/phase
    double hier_ns = 0.0;            ///< summary-hopping rendezvous, ns/phase
  };
  std::vector<MegaSample> mega_samples_by_p;
  {
    const auto& wl = puzzle::test_workloads()[3];
    const puzzle::FifteenPuzzle problem(wl.board());
    lb::SchemeConfig mega_cfg = cfg;
    mega_cfg.track_stack_memory = true;
    for (const std::uint32_t p : {1u << 14, 1u << 17, 1u << 20}) {
      MegaSample ms;
      ms.p = p;
      {
        simd::Machine machine(p, cost);
        lb::Engine<puzzle::FifteenPuzzle> full(problem, machine, mega_cfg);
        (void)full.run();
        ms.engine_full_avg = full.stack_memory_avg_per_lane();
      }
      {
        simd::Machine machine(p, cost);
        lb::CompactEngine<puzzle::FifteenPuzzle> compact(problem, machine,
                                                         mega_cfg);
        (void)compact.run();
        ms.engine_compact_avg = compact.stack_memory_avg_per_lane();
      }

      // Sparse rendezvous: 1024 busy + 1024 idle lanes scattered over P.
      simd::BitPlane busy_plane(p);
      simd::BitPlane idle_plane(p);
      for (std::uint32_t i = 0; i < 1024; ++i) {
        busy_plane.set(synthetic::Tree::hash2(0xB05B, i) % p, true);
        idle_plane.set(synthetic::Tree::hash2(0x1D1E, i) % p, true);
      }
      for (std::size_t w = 0; w < idle_plane.words().size(); ++w) {
        // Busy wins collisions so the two sets stay disjoint, as in the
        // engine (a lane is busy or idle, never both).
        idle_plane.words()[w] &= ~busy_plane.words()[w];
      }
      simd::SummaryPlane busy_summary;
      simd::SummaryPlane idle_summary;
      busy_summary.assign_for_lanes(p);
      idle_summary.assign_for_lanes(p);
      busy_summary.rebuild(busy_plane);
      idle_summary.rebuild(idle_plane);
      std::vector<simd::Pair> flat_pairs;
      std::vector<simd::Pair> hier_pairs;
      simd::rendezvous_into(busy_plane, idle_plane, simd::kNoPe,
                            static_cast<std::size_t>(-1), flat_pairs);
      simd::rendezvous_into(busy_plane, busy_summary, idle_plane,
                            idle_summary, simd::kNoPe,
                            static_cast<std::size_t>(-1), hier_pairs);
      if (flat_pairs != hier_pairs || flat_pairs.empty()) {
        std::cout << "\nFATAL: hierarchical rendezvous diverged from the "
                     "flat kernel at P = " << p << ".\n";
        return 1;
      }
      // Same total word budget per size so each timing runs long enough to
      // measure, while phases stay identical in what they compute.
      const std::size_t phase_iters = std::max<std::size_t>(
          32, (analysis::quick_mode() ? (1u << 22) : (1u << 25)) / p);
      std::vector<simd::Pair> pairs_buf;
      ms.flat_ns = time_kernel_ns(reps, phase_iters, sink, [&] {
        simd::rendezvous_into(busy_plane, idle_plane, simd::kNoPe,
                              static_cast<std::size_t>(-1), pairs_buf);
        return static_cast<std::uint64_t>(pairs_buf.size());
      });
      ms.hier_ns = time_kernel_ns(reps, phase_iters, sink, [&] {
        simd::rendezvous_into(busy_plane, busy_summary, idle_plane,
                              idle_summary, simd::kNoPe,
                              static_cast<std::size_t>(-1), pairs_buf);
        return static_cast<std::uint64_t>(pairs_buf.size());
      });
      mega_samples_by_p.push_back(ms);
      std::cout << "  P = " << p << ": engine "
                << analysis::format_double(ms.engine_full_avg, 3) << " -> "
                << analysis::format_double(ms.engine_compact_avg, 3)
                << " B/lane ("
                << analysis::format_double(
                       ms.engine_compact_avg > 0.0
                           ? ms.engine_full_avg / ms.engine_compact_avg
                           : 0.0,
                       2)
                << "x); sparse lb phase "
                << analysis::format_double(ms.flat_ns, 0) << " -> "
                << analysis::format_double(ms.hier_ns, 0) << " ns ("
                << analysis::format_double(
                       ms.hier_ns > 0.0 ? ms.flat_ns / ms.hier_ns : 0.0, 1)
                << "x)\n";
    }
  }

  // --- JSON artifact. -----------------------------------------------------
  std::ostringstream json;
  json << "{\n"
       << "  \"benchmark\": \"fig4a_gp_s90_grid\",\n"
       << "  \"quick_mode\": " << (analysis::quick_mode() ? "true" : "false")
       << ",\n"
       << "  \"reps\": " << reps << ",\n"
       << "  \"timing\": \"median\",\n"
       << "  \"host_hardware_threads\": " << runtime::sweep_threads() << ",\n"
       << "  \"grid_cells\": " << grid_cells << ",\n"
       << "  \"sweeps\": [\n";
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const SweepSample& s = samples[i];
    json << "    {\"threads\": " << s.threads << ", \"wall_s\": "
         << format_json_double(s.wall_s) << ", \"nodes\": " << s.nodes
         << ", \"nodes_per_s\": "
         << format_json_double(s.wall_s > 0.0
                                   ? static_cast<double>(s.nodes) / s.wall_s
                                   : 0.0)
         << ", \"speedup_vs_1t\": "
         << format_json_double(s.wall_s > 0.0
                                   ? samples.front().wall_s / s.wall_s
                                   : 0.0)
         << "}" << (i + 1 < samples.size() ? "," : "") << "\n";
  }
  json << "  ],\n"
       << "  \"results_identical_across_threads\": true,\n"
       << "  \"engine\": {\"p\": " << sizes.back() << ", \"nodes\": "
       << engine_nodes << ", \"wall_s\": " << format_json_double(engine_wall)
       << ", \"nodes_per_s\": " << format_json_double(engine_nps) << "},\n"
       << "  \"fault_hooks\": {\"unarmed_wall_s\": "
       << format_json_double(unarmed_wall) << ", \"armed_empty_wall_s\": "
       << format_json_double(armed_wall) << ", \"overhead_pct\": "
       << format_json_double(fault_overhead_pct)
       << ", \"results_identical\": true},\n"
       << "  \"sanitizer\": {\"compiled_in\": "
       << (san::kCompiledIn ? "true" : "false");
  if (san::kCompiledIn) {
    json << ", \"disarmed_wall_s\": " << format_json_double(san_disarmed_wall)
         << ", \"armed_wall_s\": " << format_json_double(san_armed_wall)
         << ", \"overhead_pct\": " << format_json_double(san_overhead_pct)
         << ", \"results_identical\": true";
  }
  json << "},\n"
       << "  \"service\": {\"requests\": " << svc_n << ", \"runs\": [\n";
  for (std::size_t i = 0; i < svc_samples.size(); ++i) {
    const ServiceSample& s = svc_samples[i];
    json << "    {\"threads\": " << s.threads << ", \"wall_s\": "
         << format_json_double(s.wall_s) << ", \"qps\": "
         << format_json_double(s.wall_s > 0.0
                                   ? static_cast<double>(svc_n) / s.wall_s
                                   : 0.0)
         << "}" << (i + 1 < svc_samples.size() ? "," : "") << "\n";
  }
  json << "  ], \"p99_sim_cycles\": " << format_json_double(svc_p99_cycles)
       << ", \"shed_rate\": " << format_json_double(svc_shed_rate)
       << ", \"responses_identical_across_threads\": true},\n"
       << "  \"kernels\": {\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelSample& k = kernels[i];
    json << "    \"" << k.name << "\": {\"lanes\": " << kernel_lanes
         << ", \"" << k.scalar_key
         << "\": " << format_json_double(k.scalar_ns) << ", \""
         << k.packed_key << "\": " << format_json_double(k.packed_ns);
    if (k.report_speedup) {
      json << ", \"speedup\": " << format_json_double(k.speedup());
    } else {
      json << ", \"expand_dominated\": true";
    }
    json << "}" << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  json << "  },\n"
       << "  \"mega_p\": {\n"
       << "    \"bytes_per_lane\": {\"workload\": \"t-4k\", "
       << "\"descent_steps\": " << descent_steps
       << ", \"full_avg\": " << format_json_double(mega_full_avg)
       << ", \"compact_avg\": " << format_json_double(mega_compact_avg)
       << ", \"ratio\": " << format_json_double(mega_avg_ratio)
       << ", \"full_peak\": " << mega_full_peak
       << ", \"compact_peak\": " << mega_compact_peak
       << ", \"peak_ratio\": " << format_json_double(mega_peak_ratio)
       << "},\n"
       << "    \"sizes\": [\n";
  for (std::size_t i = 0; i < mega_samples_by_p.size(); ++i) {
    const MegaSample& m = mega_samples_by_p[i];
    json << "      {\"p\": " << m.p << ", \"engine_full_avg_per_lane\": "
         << format_json_double(m.engine_full_avg)
         << ", \"engine_compact_avg_per_lane\": "
         << format_json_double(m.engine_compact_avg)
         << ", \"engine_ratio\": "
         << format_json_double(m.engine_compact_avg > 0.0
                                   ? m.engine_full_avg / m.engine_compact_avg
                                   : 0.0)
         << ", \"lb_phase_flat_ns\": " << format_json_double(m.flat_ns)
         << ", \"lb_phase_hier_ns\": " << format_json_double(m.hier_ns)
         << ", \"lb_phase_speedup\": "
         << format_json_double(m.hier_ns > 0.0 ? m.flat_ns / m.hier_ns : 0.0)
         << "}" << (i + 1 < mega_samples_by_p.size() ? "," : "") << "\n";
  }
  json << "    ],\n"
       << "    \"pairs_identical_flat_vs_hier\": true\n"
       << "  }\n"
       << "}\n";

  std::string path = "BENCH_engine.json";
  if (const char* p = std::getenv("SIMDTS_BENCH_JSON"); p != nullptr) {
    path = p;
  }
  if (analysis::write_file(path, json.str())) {
    std::cout << "[json] " << path << '\n';
  } else {
    std::cout << "[json] failed to write " << path << '\n';
    return 1;
  }
  return 0;
}
