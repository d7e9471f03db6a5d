// The word step through the 15-puzzle kernel against the vector-step
// reference.
//
// The contract under test (vec/expand.hpp): an engine that expands through
// the 15-puzzle kernel produces *identical* RunStats (nodes expanded, goals,
// every lb metric, the simulated clock) and an identical goal-node sequence
// as the vector step — across bounds, run modes, both stack
// representations, engines running side by side on sweep threads, and with
// a FaultPlan armed (dead lanes must never enter a batch).
//
// The reference is NoBatchPuzzle: a forwarding wrapper around FifteenPuzzle
// (tests/step_wrappers.hpp) whose type has no kernel and no expand_row(), so
// the engine always gives it the vector step while it searches exactly the
// same tree.  Tests that need the kernel skip only when the host CPU lacks
// AVX2.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/sweep.hpp"
#include "search/compact_stack.hpp"
#include "search/problem.hpp"
#include "search/work_stack.hpp"
#include "simd/machine.hpp"
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

using Row = std::array<FifteenPuzzle::Node, 4>;

/// A node that no expansion produces, to pre-fill rows with so a test
/// cannot pass on zeroed slots.
constexpr FifteenPuzzle::Node kPoison{~std::uint64_t{0}, 0xEE, 0xEE, 0xEE,
                                      0xEE};

/// One expand_fifteen() call on nodes[0..count) into scratch rows, one per
/// node, pre-filled with kPoison.
struct KernelRun {
  std::vector<Row> kids;
  std::vector<std::uint32_t> counts;
  search::NextBound next;
};

KernelRun run_kernel(const FifteenPuzzle::Node* nodes, std::uint32_t count,
                     search::Bound bound) {
  KernelRun r;
  r.kids.assign(count, {kPoison, kPoison, kPoison, kPoison});
  r.counts.assign(count, 99);
  std::vector<Row*> rows;
  for (Row& row : r.kids) rows.push_back(&row);
  vec::expand_fifteen(nodes, count, bound, rows.data(), r.counts.data(),
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

/// Every single-move situation the kernel can meet: the blank on each cell,
/// each legal move from it, and each tile 1..15 in the cell that move
/// slides from (the other tiles fill the rest of the board in order).  Each
/// board comes as a root (last = kNoMove) and after every previous move
/// (last = 0..3, so the move under test is sometimes the skipped inverse),
/// and with g set so its children's f lands below, on, or just above
/// `bound` (a slide changes f by exactly 0 or +2).
std::vector<FifteenPuzzle::Node> every_single_move_node(search::Bound bound) {
  std::vector<FifteenPuzzle::Node> nodes;
  for (int blank = 0; blank < puzzle::kCells; ++blank) {
    const int row = blank / puzzle::kSide;
    const int col = blank % puzzle::kSide;
    const int from_cells[4] = {row > 0 ? blank - puzzle::kSide : -1,
                               row < puzzle::kSide - 1 ? blank + puzzle::kSide
                                                       : -1,
                               col > 0 ? blank - 1 : -1,
                               col < puzzle::kSide - 1 ? blank + 1 : -1};
    for (const int from : from_cells) {
      if (from < 0) continue;
      for (std::uint8_t tile = 1; tile < puzzle::kCells; ++tile) {
        std::array<std::uint8_t, puzzle::kCells> tiles{};
        tiles[static_cast<std::size_t>(from)] = tile;
        std::uint8_t fill = 1;
        for (int pos = 0; pos < puzzle::kCells; ++pos) {
          if (pos == blank || pos == from) continue;
          if (fill == tile) ++fill;
          tiles[static_cast<std::size_t>(pos)] = fill++;
        }
        const puzzle::Board board = puzzle::Board::from_tiles(tiles);
        const int h = puzzle::manhattan(board);
        for (const std::uint8_t last : {puzzle::kNoMove, std::uint8_t{0},
                                        std::uint8_t{1}, std::uint8_t{2},
                                        std::uint8_t{3}}) {
          for (int below = 0; below <= 2; ++below) {
            FifteenPuzzle::Node n{};
            n.board = board.packed();
            n.blank = static_cast<std::uint8_t>(blank);
            n.g = static_cast<std::uint8_t>(bound - h - below);
            n.h = static_cast<std::uint8_t>(h);
            n.last = last;
            nodes.push_back(n);
          }
        }
      }
    }
  }
  return nodes;
}

TEST(FifteenKernel, EverySingleMoveMatchesExpandRow) {
  SKIP_WITHOUT_AVX2();
  const search::Bound bound = 100;
  const std::vector<FifteenPuzzle::Node> nodes = every_single_move_node(bound);
  // 48 (cell, move) pairs x 15 tiles x 5 lasts x 3 g offsets.
  ASSERT_EQ(nodes.size(), 48u * 15 * 5 * 3);
  // expand_row only reads the node and the instance's heuristic.
  const FifteenPuzzle p(puzzle::Board::goal());
  std::size_t taken = 0;
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const FifteenPuzzle::Node& n = nodes[i];
    Row want{};
    search::NextBound want_next;
    const std::uint32_t k = p.expand_row(n, bound, want, want_next, 0);
    // Alone, so NextBound is this node's own.
    const KernelRun r = run_kernel(&n, 1, bound);
    ASSERT_EQ(r.counts[0], k) << "node " << i;
    for (std::uint32_t c = 0; c < k; ++c) {
      ASSERT_EQ(r.kids[0][c], want[c]) << "node " << i << " slot " << c;
    }
    ASSERT_EQ(r.next.value(), want_next.value()) << "node " << i;
    taken += k;
    pruned += want_next.has_value() ? 1 : 0;
  }
  EXPECT_GT(taken, 0u);
  EXPECT_GT(pruned, 0u);
  // The same nodes in full 64-lane batches (and the remainder batch).
  for (std::size_t i = 0; i < nodes.size(); i += 64) {
    const auto count =
        static_cast<std::uint32_t>(std::min<std::size_t>(64, nodes.size() - i));
    const KernelRun r = run_kernel(nodes.data() + i, count, bound);
    expect_rows_match_expand(p, nodes.data() + i, count, bound, r);
  }
}

TEST(FifteenKernel, StackTopRowsMatchScratchRows) {
  SKIP_WITHOUT_AVX2();
  const search::Bound bound = 100;
  const std::vector<FifteenPuzzle::Node> nodes = every_single_move_node(bound);
  for (std::size_t i = 0; i + 64 <= nodes.size(); i += 64 * 7) {
    const KernelRun scratch = run_kernel(nodes.data() + i, 64, bound);
    // Lane j's stack holds j % 11 nodes with its bottom moved up by j % 5,
    // so the top rows sit at every offset of the buffer, some of them past
    // its end (the live nodes slide down) or past its capacity (it grows).
    std::vector<search::WorkStack<FifteenPuzzle::Node>> stacks(64);
    std::vector<Row*> rows;
    for (std::size_t j = 0; j < 64; ++j) {
      for (std::size_t v = 0; v < j % 11 + j % 5; ++v) stacks[j].push(kPoison);
      for (std::size_t v = 0; v < j % 5; ++v) stacks[j].take_bottom();
      rows.push_back(&stacks[j].top_row());
    }
    std::vector<std::uint32_t> counts(64, 99);
    search::NextBound next;
    vec::expand_fifteen(nodes.data() + i, 64, bound, rows.data(),
                        counts.data(), next);
    EXPECT_EQ(counts, scratch.counts);
    EXPECT_EQ(next.value(), scratch.next.value());
    for (std::size_t j = 0; j < 64; ++j) {
      const std::size_t below = stacks[j].size();
      stacks[j].commit(counts[j]);
      ASSERT_EQ(stacks[j].size(), below + counts[j]);
      std::vector<FifteenPuzzle::Node> got;
      stacks[j].drain_into(got);
      for (std::uint32_t c = 0; c < counts[j]; ++c) {
        EXPECT_EQ(got[below + c], scratch.kids[j][c])
            << "batch " << i << " lane " << j << " slot " << c;
      }
      for (std::size_t v = 0; v < below; ++v) {
        EXPECT_EQ(got[v], kPoison) << "lane " << j << " kept " << v;
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

  // Every other condition holds; each of these fails exactly one.  A
  // FifteenPuzzle that misses the kernel takes the word step's scalar loop;
  // the wrapper without a kernel or expand_row takes the vector step.
  const Engine<FifteenPuzzle> conflict64(conflict, m64, gp_dk());
  EXPECT_EQ(conflict64.step(), ExpandStep::kWord);
  EXPECT_FALSE(conflict64.uses_kernel());
  const Engine<FifteenPuzzle> manhattan63(manhattan, m63, gp_dk());
  EXPECT_EQ(manhattan63.step(), ExpandStep::kWord);
  EXPECT_FALSE(manhattan63.uses_kernel());
  const Engine<NoBatchPuzzle> no_kernel64(no_kernel, m64, gp_dk());
  EXPECT_EQ(no_kernel64.step(), ExpandStep::kVector);
  EXPECT_FALSE(no_kernel64.uses_kernel());
  EXPECT_FALSE(vec::batch_applies(manhattan, vec::kMinBatchPes - 1));

  // All four hold (the CPU condition only on an AVX2 host).
  const Engine<FifteenPuzzle> manhattan64(manhattan, m64, gp_dk());
  const CompactEngine<FifteenPuzzle> compact64(manhattan, m64, gp_dk());
  EXPECT_EQ(manhattan64.step(), ExpandStep::kWord);
  EXPECT_EQ(compact64.step(), ExpandStep::kWord);
  EXPECT_EQ(manhattan64.uses_kernel(), vec::cpu_has_avx2());
  EXPECT_EQ(compact64.uses_kernel(), vec::cpu_has_avx2());
}

/// One full-IDA* case of the kernel oracle.
struct PuzzleCase {
  const puzzle::PuzzleWorkload* wl;
  std::uint32_t p;
};

struct PuzzleRun {
  bool kernel = false;
  RunStats stats;
  std::vector<FifteenPuzzle::Node> goals;
};

/// Full IDA* on the kernel step (stack `StackT`) against the vector-step
/// reference, for every case.  The batched engines run two per case, side
/// by side through runtime::SweepRunner at 1 and 8 threads: engines share
/// no state, so each must match its reference whatever runs next to it.
/// These are the kernel's concurrent callers (the TSan job runs them).
template <typename StackT>
void expect_kernel_runs_match(const std::vector<PuzzleCase>& cases) {
  std::vector<PuzzleRun> refs;
  for (const PuzzleCase& c : cases) {
    const NoBatchPuzzle reference(c.wl->board());
    simd::Machine m_ref(c.p, simd::cm2_cost_model());
    Engine<NoBatchPuzzle> per_bit(reference, m_ref, gp_dk());
    PuzzleRun& ref = refs.emplace_back();
    ref.stats = per_bit.run();
    ref.goals = per_bit.goal_nodes();
    ASSERT_EQ(ref.stats.solution_bound, c.wl->solution_length);
  }
  const std::size_t n = 2 * cases.size();
  for (const unsigned threads : {1u, 8u}) {
    std::vector<PuzzleRun> runs(n);
    runtime::SweepRunner runner(threads);
    runner.run(n, [&](std::size_t i) {
      const PuzzleCase& c = cases[i % cases.size()];
      const FifteenPuzzle problem(c.wl->board());
      simd::Machine m(c.p, simd::cm2_cost_model());
      Engine<FifteenPuzzle, StackT> batched(problem, m, gp_dk());
      runs[i].kernel = batched.uses_kernel();
      runs[i].stats = batched.run();
      runs[i].goals = batched.goal_nodes();
    });
    for (std::size_t i = 0; i < n; ++i) {
      const PuzzleCase& c = cases[i % cases.size()];
      const PuzzleRun& ref = refs[i % cases.size()];
      EXPECT_TRUE(runs[i].kernel);
      EXPECT_EQ(runs[i].stats, ref.stats)
          << c.wl->name << " P=" << c.p << " threads=" << threads;
      EXPECT_EQ(runs[i].goals, ref.goals)
          << c.wl->name << " P=" << c.p << " threads=" << threads;
    }
  }
}

TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsWorkStack) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  std::vector<PuzzleCase> cases;
  // P = 100 leaves a partial last flag word; P = 8192 spans 128 words.
  for (const std::uint32_t p : {64u, 100u, 256u}) {
    cases.push_back({&workloads[1], p});
    cases.push_back({&workloads[2], p});
  }
  cases.push_back({&workloads[3], 8192});
  expect_kernel_runs_match<search::WorkStack<FifteenPuzzle::Node>>(cases);
}

TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsCompactStack) {
  SKIP_WITHOUT_AVX2();
  const auto& workloads = puzzle::test_workloads();
  expect_kernel_runs_match<search::CompactStack<FifteenPuzzle>>(
      {{&workloads[2], 64}, {&workloads[2], 256}});
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
    ASSERT_TRUE(batched.uses_kernel());
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
  simd::Machine m(p, simd::cm2_cost_model());
  Engine<FifteenPuzzle> batched(problem, m, gp_dk());
  ASSERT_TRUE(batched.uses_kernel());
  batched.arm_faults(&plan);
  // run_iteration's conservation check plus degraded-mode accounting make a
  // dead lane slipping into a batch surface as a stats divergence or a
  // FaultError; equality means dead lanes were excluded word by word.
  EXPECT_EQ(batched.run_iteration(wl.solution_length), ref);
  EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes());
  EXPECT_EQ(batched.recovery_journal(), per_bit.recovery_journal());
}

}  // namespace
}  // namespace simdts::lb
