// The batched 15-puzzle step against the per-bit reference.
//
// The contract under test (vec/expand.hpp): an engine that expands through
// the 15-puzzle kernel produces *identical* RunStats (nodes expanded, goals,
// every lb metric, the simulated clock) and an identical goal-node sequence
// as the per-bit step — across bounds, run modes, host thread counts, both
// stack representations, and with a FaultPlan armed (dead lanes must never
// enter a batch).
//
// The reference is NoBatchPuzzle: a forwarding wrapper around FifteenPuzzle
// whose type has no kernel, so the engine always gives it the per-bit step
// while it searches exactly the same tree.  Tests that need the kernel skip
// only when the host CPU lacks AVX2.
#include <gtest/gtest.h>

#include <cstdint>
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
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {
namespace {

using puzzle::FifteenPuzzle;

/// FifteenPuzzle behind a type with no kernel: the per-bit reference.
struct NoBatchPuzzle {
  using Node = FifteenPuzzle::Node;
  explicit NoBatchPuzzle(puzzle::Board b) : inner(b) {}
  [[nodiscard]] Node root() const { return inner.root(); }
  void expand(const Node& n, search::Bound b, std::vector<Node>& out,
              search::NextBound& nb) const {
    inner.expand(n, b, out, nb);
  }
  [[nodiscard]] bool is_goal(const Node& n) const { return inner.is_goal(n); }
  [[nodiscard]] search::Bound f_value(const Node& n) const {
    return inner.f_value(n);
  }
  FifteenPuzzle inner;
};

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

TEST(FifteenKernel, MatchesPerNodeExpandAcrossBounds) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  for (std::size_t w = 0; w < 2; ++w) {
    const FifteenPuzzle p(workloads[w].board());
    const search::Bound f0 = p.f_value(p.root());
    // A tight bound forces pruning (NextBound must match); looser bounds
    // take more children.
    for (const search::Bound bound : {f0, static_cast<search::Bound>(f0 + 2),
                                      static_cast<search::Bound>(f0 + 8)}) {
      const auto pool = node_pool(p, 64, bound);
      // Lone nodes, pad-lane remainders and a full 64-lane word.
      for (const std::uint32_t count : {1u, 2u, 3u, 17u, 33u, 64u}) {
        if (pool.size() < count) break;
        std::vector<FifteenPuzzle::Node> fast;
        std::vector<std::uint32_t> fast_counts(count);
        search::NextBound fast_nb;
        vec::expand_fifteen(pool.data(), count, bound, fast,
                            fast_counts.data(), fast_nb);

        std::vector<FifteenPuzzle::Node> ref;
        std::vector<std::uint32_t> ref_counts(count);
        search::NextBound ref_nb;
        for (std::uint32_t j = 0; j < count; ++j) {
          const std::size_t before = ref.size();
          p.expand(pool[j], bound, ref, ref_nb);
          ref_counts[j] = static_cast<std::uint32_t>(ref.size() - before);
        }
        EXPECT_EQ(fast, ref) << "bound " << bound << " count " << count;
        EXPECT_EQ(fast_counts, ref_counts)
            << "bound " << bound << " count " << count;
        EXPECT_EQ(fast_nb.value(), ref_nb.value())
            << "bound " << bound << " count " << count;
      }
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

  // Every other condition holds; each of these fails exactly one.
  EXPECT_FALSE(Engine<FifteenPuzzle>(conflict, m64, gp_dk()).batched());
  EXPECT_FALSE(Engine<FifteenPuzzle>(manhattan, m63, gp_dk()).batched());
  EXPECT_FALSE(Engine<NoBatchPuzzle>(no_kernel, m64, gp_dk()).batched());
  EXPECT_FALSE(vec::batch_applies(manhattan, vec::kMinBatchPes - 1));

  // All four hold (the CPU condition only on an AVX2 host).
  const bool avx2 = vec::cpu_has_avx2();
  EXPECT_EQ(Engine<FifteenPuzzle>(manhattan, m64, gp_dk()).batched(), avx2);
  EXPECT_EQ(CompactEngine<FifteenPuzzle>(manhattan, m64, gp_dk()).batched(),
            avx2);
}

/// Full IDA* on the kernel step (stack `StackT`) against the per-bit
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
    ASSERT_TRUE(batched.batched());
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
    ASSERT_TRUE(batched.batched());
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
    ASSERT_TRUE(batched.batched());
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
