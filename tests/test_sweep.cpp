#include "runtime/sweep.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "runtime/journal.hpp"
#include "synthetic/calibrate.hpp"

namespace simdts::runtime {
namespace {

TEST(SweepRunner, RunsEveryTaskExactlyOnce) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::size_t n = 100;
    std::vector<std::atomic<int>> hits(n);
    SweepRunner runner(threads);
    runner.run(n, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "task " << i << " at " << threads
                                   << " threads";
    }
  }
}

TEST(SweepRunner, ZeroTasksIsANoOp) {
  SweepRunner runner(4);
  runner.run(0, [](std::size_t) { FAIL() << "no task should run"; });
}

TEST(SweepRunner, MoreThreadsThanTasks) {
  std::vector<std::atomic<int>> hits(3);
  SweepRunner runner(16);
  runner.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(SweepRunner, PropagatesTaskExceptions) {
  SweepRunner runner(4);
  EXPECT_THROW(runner.run(32,
                          [](std::size_t i) {
                            if (i == 7) throw std::runtime_error("boom");
                          }),
               std::runtime_error);
}

TEST(SweepRunner, ZeroThreadsPicksDefault) {
  SweepRunner runner(0);
  EXPECT_GE(runner.threads(), 1u);
}

/// Sets SIMDTS_SWEEP_THREADS for one scope and restores the old value.
class ScopedSweepThreadsEnv {
 public:
  explicit ScopedSweepThreadsEnv(const char* value) {
    if (const char* old = std::getenv(kName); old != nullptr) {
      saved_ = old;
      had_ = true;
    }
    ::setenv(kName, value, 1);
  }
  ~ScopedSweepThreadsEnv() {
    if (had_) {
      ::setenv(kName, saved_.c_str(), 1);
    } else {
      ::unsetenv(kName);
    }
  }
  ScopedSweepThreadsEnv(const ScopedSweepThreadsEnv&) = delete;
  ScopedSweepThreadsEnv& operator=(const ScopedSweepThreadsEnv&) = delete;

 private:
  static constexpr const char* kName = "SIMDTS_SWEEP_THREADS";
  std::string saved_;
  bool had_ = false;
};

TEST(SweepThreads, ParsesTheEnvironmentStrictly) {
  const unsigned hw = std::max(std::thread::hardware_concurrency(), 1u);
  struct Case {
    const char* value;
    unsigned expected;  ///< 0 = falls back to the hardware concurrency
  };
  const Case cases[] = {
      {"1", 1},
      {"4", 4},
      {"007", 7},
      {"4294967295", 4294967295u},
      {"", 0},
      {"0", 0},
      {"-1", 0},
      {"+4", 0},
      {" 4", 0},
      {"4 ", 0},
      {"4abc", 0},
      {"abc", 0},
      {"0x10", 0},
      {"4294967296", 0},
      {"4294967297", 0},
      {"99999999999999999999", 0},
  };
  for (const Case& c : cases) {
    const ScopedSweepThreadsEnv env(c.value);
    EXPECT_EQ(sweep_threads(), c.expected == 0 ? hw : c.expected)
        << "SIMDTS_SWEEP_THREADS=\"" << c.value << "\"";
  }
}

TEST(SweepMap, ResultsLandInIndexOrder) {
  for (const unsigned threads : {1u, 2u, 8u}) {
    const auto out = sweep_map<std::size_t>(
        64, [](std::size_t i) { return i * i; }, threads);
    ASSERT_EQ(out.size(), 64u);
    for (std::size_t i = 0; i < out.size(); ++i) {
      EXPECT_EQ(out[i], i * i);
    }
  }
}

// --- The determinism contract: host threads never change simulated results.

std::vector<synthetic::SyntheticWorkload> tiny_ladder() {
  std::vector<synthetic::SyntheticWorkload> out;
  const synthetic::Params shapes[] = {
      {9013, 4, 0.395, 14},
      {9011, 4, 0.400, 18},
  };
  for (const auto& p : shapes) {
    out.push_back(
        synthetic::SyntheticWorkload{"ladder", p, synthetic::measure(p)});
  }
  return out;
}

TEST(SweepDeterminism, RunGridIdenticalAcrossHostThreads) {
  const auto ladder = tiny_ladder();
  const std::uint32_t sizes[] = {16, 64};
  for (const auto& cfg : {lb::gp_static(0.90), lb::gp_dk()}) {
    const analysis::GridResult serial =
        analysis::run_grid(cfg, ladder, sizes, simd::cm2_cost_model(), 1);
    for (const unsigned threads : {2u, 3u, 8u}) {
      const analysis::GridResult parallel = analysis::run_grid(
          cfg, ladder, sizes, simd::cm2_cost_model(), threads);
      ASSERT_EQ(parallel.points.size(), serial.points.size());
      for (std::size_t i = 0; i < serial.points.size(); ++i) {
        // operator== covers every field, the simulated MachineClock included:
        // a host-thread-dependent count or clock is a determinism bug.
        EXPECT_EQ(parallel.points[i], serial.points[i])
            << "grid point " << i << " at " << threads << " host threads";
      }
    }
  }
}

TEST(GridDispatchOrder, LongestFirstPermutationOfTheSlots) {
  const synthetic::Params shape{1, 4, 0.3, 10};
  // Unsorted W with a tie, unsorted sizes: the order must not rely on the
  // ladder being ascending.
  const synthetic::SyntheticWorkload ladder[] = {
      {"a", shape, 500},
      {"b", shape, 9000},
      {"c", shape, 500},
      {"d", shape, 70},
  };
  const std::uint32_t sizes[] = {64, 512, 16};
  const auto order = analysis::grid_dispatch_order(ladder, sizes);
  const std::size_t per_size = std::size(ladder);
  ASSERT_EQ(order.size(), std::size(sizes) * per_size);

  std::vector<std::size_t> sorted = order;
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t k = 0; k < sorted.size(); ++k) {
    EXPECT_EQ(sorted[k], k) << "not a permutation of the slots";
  }
  for (std::size_t i = 1; i < order.size(); ++i) {
    const auto key = [&](std::size_t k) {
      return std::pair{ladder[k % per_size].w, sizes[k / per_size]};
    };
    EXPECT_GE(key(order[i - 1]), key(order[i])) << "position " << i;
  }
  // The largest cell (W = 9000 at P = 512, slot 1 * 4 + 1) goes first; the
  // tie at W = 500 is broken by P, then by slot.
  EXPECT_EQ(order.front(), 5u);
  EXPECT_EQ(order[3], 4u);  // W = 500, P = 512, slot 4 before slot 6
  EXPECT_EQ(order[4], 6u);
  EXPECT_EQ(order.back(), 11u);  // W = 70 at P = 16
}

// A sweep killed after its first dispatched cells leaves exactly those in
// the journal; the resumed grid replays them and runs only the rest.
TEST(SweepDeterminism, ResumeAfterTheFirstDispatchedCells) {
  const auto ladder = tiny_ladder();
  const std::uint32_t sizes[] = {16, 64};
  const lb::SchemeConfig cfg = lb::gp_static(0.90);
  const simd::CostModel cost = simd::cm2_cost_model();
  const analysis::GridResult serial =
      analysis::run_grid(cfg, ladder, sizes, cost, 1);
  const auto order = analysis::grid_dispatch_order(ladder, sizes);
  const std::string path =
      ::testing::TempDir() + "simdts_dispatch_resume.journal";
  for (const std::size_t first : {std::size_t{1}, std::size_t{2}}) {
    for (const unsigned threads : {1u, 3u}) {
      std::remove(path.c_str());
      {
        Journal journal(path);
        for (std::size_t i = 0; i < first; ++i) {
          journal.append(std::to_string(order[i]) + ' ' +
                         analysis::encode_grid_point(serial.points[order[i]]));
        }
      }
      analysis::GridOptions options;
      options.threads = threads;
      options.journal_path = path;
      options.resume = true;
      const analysis::GridResult resumed =
          analysis::run_grid(cfg, ladder, sizes, cost, options);
      ASSERT_EQ(resumed.points.size(), serial.points.size());
      for (std::size_t k = 0; k < serial.points.size(); ++k) {
        EXPECT_EQ(resumed.points[k], serial.points[k])
            << "slot " << k << " after resuming " << first << " cells at "
            << threads << " threads";
      }
      // One line per slot: the replayed cells were not run again.
      std::ifstream in(path);
      std::size_t lines = 0;
      for (std::string line; std::getline(in, line);) ++lines;
      EXPECT_EQ(lines, serial.points.size());
    }
  }
  Journal(path).remove();
}

// Golden values: pin the integer observables of one quick grid so *any*
// change to simulated behavior — engine rewrite, census bookkeeping, matching
// order — trips a test, not just a cross-thread mismatch.  Values measured
// from the serial engine; see docs/performance.md.
TEST(SweepDeterminism, GoldenQuickGrid) {
  const auto ladder = tiny_ladder();
  const std::uint32_t sizes[] = {16, 64};
  const analysis::GridResult grid = analysis::run_grid(
      lb::gp_static(0.90), ladder, sizes, simd::cm2_cost_model(), 1);
  ASSERT_EQ(grid.points.size(), 4u);

  struct Golden {
    std::uint32_t p;
    std::uint64_t w, expand_cycles, lb_phases, lb_rounds;
  };
  const Golden golden[] = {
      {16, 941, 67, 45, 45},
      {16, 13107, 836, 113, 113},
      {64, 941, 27, 25, 25},
      {64, 13107, 220, 120, 120},
  };
  for (std::size_t i = 0; i < grid.points.size(); ++i) {
    const auto& pt = grid.points[i];
    EXPECT_EQ(pt.p, golden[i].p) << "point " << i;
    EXPECT_EQ(pt.w, golden[i].w) << "point " << i;
    EXPECT_EQ(pt.expand_cycles, golden[i].expand_cycles) << "point " << i;
    EXPECT_EQ(pt.lb_phases, golden[i].lb_phases) << "point " << i;
    EXPECT_EQ(pt.lb_rounds, golden[i].lb_rounds) << "point " << i;
  }
}

}  // namespace
}  // namespace simdts::runtime
