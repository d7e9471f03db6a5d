// Mega-P regressions: the machine-size axis at and beyond 2^16 lanes.
//
// Two classes of bug this file exists to catch:
//  - 32-bit (or narrower) index assumptions on the P axis — exercised at a
//    non-power-of-64 P > 2^16, where word counts, tail masks, and rank
//    arithmetic all take their ugly branches; and
//  - result drift at P = 2^20: the mega-P configuration must stay a pure
//    function of (problem, P, config, fault plan) — bit-identical on both
//    stack representations, with and without faults armed, and across sweep
//    thread counts (mega-P engines running side by side).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "runtime/sweep.hpp"
#include "search/serial.hpp"
#include "synthetic/tree.hpp"

namespace simdts::lb {
namespace {

using synthetic::Tree;

/// A ~600k-node tree: big enough for a few dozen expand cycles and real
/// load-balancing traffic at P = 2^20, while the vast majority of lanes
/// stay idle — exactly the sparse regime the summary planes exist for.
Tree small_tree() { return Tree(synthetic::Params{42, 4, 0.6, 16}); }

template <typename EngineT>
IterationStats run_once(const Tree& tree, std::uint32_t p,
                        const fault::FaultPlan* plan) {
  simd::Machine machine(p, simd::cm2_cost_model());
  EngineT engine(tree, machine, gp_static(0.9));
  if (plan != nullptr) engine.arm_faults(plan);
  return engine.run_iteration(search::kUnbounded);
}

/// Task 0 runs the WorkStack engine, task 1 the CompactStack engine, both
/// through the sweep runner at `threads` threads.
std::vector<IterationStats> both_stacks(const Tree& tree, std::uint32_t p,
                                        unsigned threads) {
  return runtime::sweep_map<IterationStats>(
      2,
      [&](std::size_t i) {
        return i == 0 ? run_once<Engine<Tree>>(tree, p, nullptr)
                      : run_once<CompactEngine<Tree>>(tree, p, nullptr);
      },
      threads);
}

TEST(MegaP, NonPowerOf64AbovePow16IsThreadCountInvariant) {
  const Tree tree = small_tree();
  const std::uint32_t p = 70001;  // > 2^16, not a multiple of 64
  const IterationStats base = run_once<Engine<Tree>>(tree, p, nullptr);
  // The full tree fits one iteration; expansion count must match serial DFS.
  const search::SerialIterationResult serial =
      search::serial_dfs(tree, tree.root(), search::kUnbounded);
  EXPECT_EQ(base.nodes_expanded, serial.nodes_expanded);
  // CompactStack changes the representation, never the results, and
  // neither does running the two side by side.
  for (const unsigned threads : {1u, 2u}) {
    for (const IterationStats& other : both_stacks(tree, p, threads)) {
      EXPECT_EQ(base, other) << "threads=" << threads;
    }
  }
}

TEST(MegaP, TwoToTheTwentyLanesBitIdenticalAcrossThreads) {
  const Tree tree = small_tree();
  const std::uint32_t p = 1u << 20;
  const std::vector<IterationStats> serial = both_stacks(tree, p, 1);
  EXPECT_GT(serial[0].nodes_expanded, 0u);
  EXPECT_EQ(serial[0], serial[1]);
  const std::vector<IterationStats> side_by_side = both_stacks(tree, p, 2);
  EXPECT_EQ(serial, side_by_side);
}

TEST(MegaP, TwoToTheTwentyLanesWithFaultPlanArmed) {
  const Tree tree = small_tree();
  const std::uint32_t p = 1u << 20;
  // Kill lanes spread across the whole index range — including the top
  // word region, where a narrowed index would alias a low lane.
  const fault::FaultPlan plan({
      {3, fault::FaultKind::kKillPe, 0, 0},
      {4, fault::FaultKind::kKillPe, (1u << 20) - 1, 0},
      {5, fault::FaultKind::kKillPe, 70001, 0},
      {7, fault::FaultKind::kRevivePe, 70001, 0},
  });
  const IterationStats base = run_once<CompactEngine<Tree>>(tree, p, &plan);
  EXPECT_EQ(base.pes_killed, 3u);
  EXPECT_EQ(base.pes_revived, 1u);
  EXPECT_EQ(base, (run_once<Engine<Tree>>(tree, p, &plan)));
}

TEST(MegaP, TrimMemoryReleasesDrainedLanesAfterRun) {
  const Tree tree = small_tree();
  const std::uint32_t p = 1u << 17;
  simd::Machine machine(p, simd::cm2_cost_model());
  CompactEngine<Tree> engine(tree, machine, gp_static(0.9));
  (void)engine.run_iteration(search::kUnbounded);
  // Every stack drained by the completed iteration has returned its heap to
  // the allocator: the cycle's pooled release (release_if_drained) of the
  // memory-bounded design, with no trimming pass after the run.
  EXPECT_EQ(engine.stack_memory_bytes(), 0u);
}

}  // namespace
}  // namespace simdts::lb
