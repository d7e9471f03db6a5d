// The batched 15-puzzle step against the vector-step reference.
//
// The contract under test (vec/expand.hpp): an engine that expands through
// the 15-puzzle kernel produces *identical* RunStats (nodes expanded, goals,
// every lb metric, the simulated clock) and an identical goal-node sequence
// as the vector step — across bounds, run modes, host thread counts, both
// stack representations, and with a FaultPlan armed (dead lanes must never
// enter a batch).
//
// The reference is NoBatchPuzzle: a forwarding wrapper around FifteenPuzzle
// (tests/step_wrappers.hpp) whose type has no kernel and no expand_row(), so
// the engine always gives it the vector step while it searches exactly the
// same tree.  Tests that need the kernel skip only when the host CPU lacks
// AVX2.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "puzzle/workloads.hpp"
#include "search/compact_stack.hpp"
#include "search/problem.hpp"
#include "simd/machine.hpp"
#include "simd/thread_pool.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {
namespace {

using puzzle::FifteenPuzzle;

/// FifteenPuzzle behind a type with neither a kernel nor expand_row(): the
/// vector-step reference.
using NoBatchPuzzle = oracle::VectorStep<FifteenPuzzle>;

static_assert(search::TreeProblem<NoBatchPuzzle>);
static_assert(vec::kHasKernel<FifteenPuzzle>);
static_assert(!vec::kHasKernel<NoBatchPuzzle>);
static_assert(!vec::kHasKernel<synthetic::Tree>);

#define SKIP_WITHOUT_AVX2()                                            \
  if (!vec::cpu_has_avx2()) {                                          \
    GTEST_SKIP() << "host CPU lacks AVX2/BMI2: the kernel never runs"; \
  }

/// Breadth-first pool of nodes within `bound`, to batch up.
std::vector<FifteenPuzzle::Node> node_pool(const FifteenPuzzle& p,
                                           std::size_t want,
                                           search::Bound bound) {
  std::vector<FifteenPuzzle::Node> pool;
  std::vector<FifteenPuzzle::Node> frontier{p.root()};
  search::NextBound nb;
  while (pool.size() < want && !frontier.empty()) {
    std::vector<FifteenPuzzle::Node> next;
    for (const auto& n : frontier) {
      pool.push_back(n);
      if (!p.is_goal(n)) p.expand(n, bound, next, nb);
    }
    frontier = std::move(next);
  }
  if (pool.size() > want) pool.resize(want);
  return pool;
}

/// One expand_fifteen() call on nodes[0..count), its rows pre-filled with a
/// poison node so a test cannot pass on zeroed slots.
struct KernelRun {
  std::vector<std::array<FifteenPuzzle::Node, 4>> kids;
  std::vector<std::uint32_t> counts;
  search::NextBound next;
};

KernelRun run_kernel(const FifteenPuzzle::Node* nodes, std::uint32_t count,
                     search::Bound bound) {
  const FifteenPuzzle::Node poison{~std::uint64_t{0}, 0xEE, 0xEE, 0xEE, 0xEE};
  KernelRun r;
  r.kids.assign(count, {poison, poison, poison, poison});
  r.counts.assign(count, 99);
  vec::expand_fifteen(nodes, count, bound, r.kids.data(), r.counts.data(),
                      r.next);
  return r;
}

/// The fixed-slot contract: row j's first counts[j] slots are exactly the
/// children expand() emits for node j, in order, and NextBound agrees with
/// `count` expand() calls (set or unset alike).  Returns expand()'s
/// NextBound.
search::NextBound expect_rows_match_expand(const FifteenPuzzle& p,
                                           const FifteenPuzzle::Node* nodes,
                                           std::uint32_t count,
                                           search::Bound bound,
                                           const KernelRun& r) {
  search::NextBound ref_nb;
  for (std::uint32_t j = 0; j < count; ++j) {
    std::vector<FifteenPuzzle::Node> ref;
    p.expand(nodes[j], bound, ref, ref_nb);
    EXPECT_EQ(r.counts[j], ref.size())
        << "bound " << bound << " count " << count << " node " << j;
    for (std::size_t k = 0; k < ref.size() && k < 4; ++k) {
      EXPECT_EQ(r.kids[j][k], ref[k]) << "bound " << bound << " count "
                                      << count << " node " << j << " slot "
                                      << k;
    }
  }
  EXPECT_EQ(r.next.has_value(), ref_nb.has_value())
      << "bound " << bound << " count " << count;
  EXPECT_EQ(r.next.value(), ref_nb.value())
      << "bound " << bound << " count " << count;
  return ref_nb;
}

TEST(FifteenKernel, MatchesPerNodeExpandAcrossBounds) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  for (std::size_t w = 0; w < 2; ++w) {
    const FifteenPuzzle p(workloads[w].board());
    const search::Bound f0 = p.f_value(p.root());
    const auto pool = node_pool(p, 64, f0 + 8);
    ASSERT_EQ(pool.size(), 64u);
    // A tight bound forces pruning (NextBound must match); looser bounds
    // take more children.
    for (const search::Bound bound : {f0, static_cast<search::Bound>(f0 + 2),
                                      static_cast<search::Bound>(f0 + 8)}) {
      // Every batch size a flag word can produce: lone nodes, each
      // pad-lane remainder and a full 64-lane word.
      for (std::uint32_t count = 1; count <= 64; ++count) {
        const KernelRun r = run_kernel(pool.data(), count, bound);
        expect_rows_match_expand(p, pool.data(), count, bound, r);
      }
    }
  }
}

TEST(FifteenKernel, RootsWithAnInteriorBlankTakeAllFourMoves) {
  SKIP_WITHOUT_AVX2();
  // Roots (last = kNoMove) with the blank on each interior cell: all four
  // moves are legal and none is the inverse of a previous one.
  std::vector<FifteenPuzzle> problems;
  std::vector<FifteenPuzzle::Node> roots;
  for (const int cell : {5, 6, 9, 10}) {
    std::array<std::uint8_t, puzzle::kCells> tiles{};
    for (int pos = 0; pos < puzzle::kCells; ++pos) {
      tiles[static_cast<std::size_t>(pos)] = static_cast<std::uint8_t>(pos);
    }
    std::swap(tiles[0], tiles[static_cast<std::size_t>(cell)]);
    problems.emplace_back(puzzle::Board::from_tiles(tiles));
    roots.push_back(problems.back().root());
    ASSERT_EQ(roots.back().last, puzzle::kNoMove);
    ASSERT_EQ(roots.back().blank, cell);
  }
  const search::Bound open = 100;  // prunes nothing at g = 1
  const auto count = static_cast<std::uint32_t>(roots.size());
  const KernelRun r = run_kernel(roots.data(), count, open);
  for (std::uint32_t j = 0; j < count; ++j) {
    EXPECT_EQ(r.counts[j], 4u) << "root " << j;
    for (std::uint32_t mv = 0; mv < 4; ++mv) {
      EXPECT_EQ(r.kids[j][mv].last, mv) << "root " << j;
    }
  }
  // Each root is its own problem's root, but expand() only reads the node.
  expect_rows_match_expand(problems[0], roots.data(), count, open, r);
  EXPECT_FALSE(r.next.has_value());
}

TEST(FifteenKernel, BoundsThatPruneEverythingOrNothing) {
  SKIP_WITHOUT_AVX2();
  const FifteenPuzzle p(puzzle::test_workloads()[1].board());
  const search::Bound f0 = p.f_value(p.root());
  const auto pool = node_pool(p, 64, f0 + 8);
  ASSERT_EQ(pool.size(), 64u);
  for (const std::uint32_t count : {1u, 5u, 64u}) {
    // Bound 0: every child has f >= 1, so every candidate is pruned and
    // NextBound carries the smallest of them.
    const KernelRun none = run_kernel(pool.data(), count, 0);
    const search::NextBound ref =
        expect_rows_match_expand(p, pool.data(), count, 0, none);
    for (std::uint32_t j = 0; j < count; ++j) EXPECT_EQ(none.counts[j], 0u);
    EXPECT_TRUE(ref.has_value());
    // A bound above every child's f: nothing is pruned, NextBound stays
    // unset.
    const search::Bound open = 255;
    const KernelRun all = run_kernel(pool.data(), count, open);
    expect_rows_match_expand(p, pool.data(), count, open, all);
    EXPECT_FALSE(all.next.has_value()) << "count " << count;
    for (std::uint32_t j = 0; j < count; ++j) {
      EXPECT_GE(all.counts[j], 1u);
    }
  }
}

TEST(FifteenKernel, SelectionRulePinsEachBranch) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const FifteenPuzzle manhattan(board);
  const FifteenPuzzle conflict(board, puzzle::Heuristic::kLinearConflict);
  const NoBatchPuzzle no_kernel(board);
  simd::Machine m64(64, simd::cm2_cost_model());
  simd::Machine m63(63, simd::cm2_cost_model());

  // Every other condition holds; each of these fails exactly one.  A
  // FifteenPuzzle that misses the batched step takes the row step; the
  // wrapper without a kernel or expand_row takes the vector step.
  EXPECT_EQ(Engine<FifteenPuzzle>(conflict, m64, gp_dk()).step(),
            ExpandStep::kRow);
  EXPECT_EQ(Engine<FifteenPuzzle>(manhattan, m63, gp_dk()).step(),
            ExpandStep::kRow);
  EXPECT_EQ(Engine<NoBatchPuzzle>(no_kernel, m64, gp_dk()).step(),
            ExpandStep::kVector);
  EXPECT_FALSE(vec::batch_applies(manhattan, vec::kMinBatchPes - 1));

  // All four hold (the CPU condition only on an AVX2 host).
  const ExpandStep want =
      vec::cpu_has_avx2() ? ExpandStep::kBatched : ExpandStep::kRow;
  EXPECT_EQ(Engine<FifteenPuzzle>(manhattan, m64, gp_dk()).step(), want);
  EXPECT_EQ(CompactEngine<FifteenPuzzle>(manhattan, m64, gp_dk()).step(),
            want);
}

/// Full IDA* on the kernel step (stack `StackT`) against the vector-step
/// reference, at 1, 2 and 8 host threads.
template <typename StackT>
void expect_kernel_runs_match(const puzzle::PuzzleWorkload& wl,
                              std::uint32_t p) {
  const NoBatchPuzzle reference(wl.board());
  simd::Machine m_ref(p, simd::cm2_cost_model());
  Engine<NoBatchPuzzle> per_bit(reference, m_ref, gp_dk());
  const RunStats ref = per_bit.run();
  ASSERT_EQ(ref.solution_bound, wl.solution_length);

  const FifteenPuzzle problem(wl.board());
  for (const unsigned threads : {1u, 2u, 8u}) {
    simd::ThreadPool pool(threads);
    simd::Machine m(p, simd::cm2_cost_model(), threads > 1 ? &pool : nullptr);
    Engine<FifteenPuzzle, StackT> batched(problem, m, gp_dk());
    ASSERT_EQ(batched.step(), ExpandStep::kBatched);
    EXPECT_EQ(batched.run(), ref)
        << wl.name << " P=" << p << " threads=" << threads;
    EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes())
        << wl.name << " P=" << p << " threads=" << threads;
  }
}

TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsWorkStack) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  // P = 100 leaves a partial last flag word.
  for (const std::uint32_t p : {64u, 100u, 256u}) {
    expect_kernel_runs_match<search::WorkStack<FifteenPuzzle::Node>>(
        workloads[1], p);
    expect_kernel_runs_match<search::WorkStack<FifteenPuzzle::Node>>(
        workloads[2], p);
  }
  // Host lanes own 64-word (4096-lane) chunks, so only P > 4096 splits a
  // cycle across threads.
  expect_kernel_runs_match<search::WorkStack<FifteenPuzzle::Node>>(
      workloads[3], 8192);
}

TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsCompactStack) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  for (const std::uint32_t p : {64u, 256u}) {
    expect_kernel_runs_match<search::CompactStack<FifteenPuzzle>>(
        workloads[2], p);
  }
}

TEST(FifteenOracle, FirstSolutionIdentical) {
  SKIP_WITHOUT_AVX2();
  const auto& wl = puzzle::test_workloads()[2];
  const NoBatchPuzzle reference(wl.board());
  const FifteenPuzzle problem(wl.board());
  for (const std::uint32_t p : {64u, 256u}) {
    simd::Machine m_ref(p, simd::cm2_cost_model());
    Engine<NoBatchPuzzle> per_bit(reference, m_ref, gp_dk());
    simd::Machine m(p, simd::cm2_cost_model());
    Engine<FifteenPuzzle> batched(problem, m, gp_dk());
    ASSERT_EQ(batched.step(), ExpandStep::kBatched);
    EXPECT_EQ(batched.run_first_solution(wl.solution_length),
              per_bit.run_first_solution(wl.solution_length))
        << "P=" << p;
    EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes()) << "P=" << p;
  }
}

TEST(FifteenOracle, ArmedFaultPlanIdenticalAndDeadLanesExcluded) {
  SKIP_WITHOUT_AVX2();
  const auto& wl = puzzle::test_workloads()[2];
  const std::uint32_t p = 128;
  // Kills inside the final iteration's search plus a revive, on lanes that
  // share flag words with survivors, so dead lanes sit in batched words.
  const fault::FaultPlan plan({{3, fault::FaultKind::kKillPe, 0, 0},
                               {9, fault::FaultKind::kKillPe, 65, 0},
                               {20, fault::FaultKind::kKillPe, 7, 0},
                               {40, fault::FaultKind::kRevivePe, 7, 0}});

  const NoBatchPuzzle reference(wl.board());
  simd::Machine m_ref(p, simd::cm2_cost_model());
  Engine<NoBatchPuzzle> per_bit(reference, m_ref, gp_dk());
  per_bit.arm_faults(&plan);
  const IterationStats ref = per_bit.run_iteration(wl.solution_length);
  EXPECT_GT(ref.pes_killed, 0u);

  const FifteenPuzzle problem(wl.board());
  for (const unsigned threads : {1u, 2u}) {
    simd::ThreadPool pool(threads);
    simd::Machine m(p, simd::cm2_cost_model(), threads > 1 ? &pool : nullptr);
    Engine<FifteenPuzzle> batched(problem, m, gp_dk());
    ASSERT_EQ(batched.step(), ExpandStep::kBatched);
    batched.arm_faults(&plan);
    // run_iteration's conservation check plus degraded-mode accounting make
    // a dead lane slipping into a batch surface as a stats divergence or a
    // FaultError; equality means dead lanes were excluded word by word.
    EXPECT_EQ(batched.run_iteration(wl.solution_length), ref)
        << "threads=" << threads;
    EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes())
        << "threads=" << threads;
    EXPECT_EQ(batched.recovery_journal(), per_bit.recovery_journal())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace simdts::lb
