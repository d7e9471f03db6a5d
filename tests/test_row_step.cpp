// The word step's row sources against each other: expand_row() (its scalar
// loop), a word kernel where a domain has one (vec::kHasKernel), and the
// expand() output of a type without expand_row().
//
// Two layers of contract:
//  - per node: the expand_row() calls of every slot group, concatenated in
//    slot order, write exactly expand()'s children, in order, with the same
//    NextBound outcome, into rows poisoned beforehand — for every bundled
//    domain: synthetic::Tree at max_children 1..12, puzzle::FifteenPuzzle,
//    tsp::Tsp at bounds that prune none, some and all children, and
//    queens::Queens at n = 1..12;
//  - per run: an engine on expand_row() produces identical RunStats, goal
//    sequences and recovery journals as one on expand()'s output, across
//    the six Table-1 schemes, machine sizes around one flag word, both
//    stack representations (where the domain has a delta codec, for the
//    expand() source too), an armed FaultPlan, and for TSP all three search
//    modes.  The scalar leg of a domain with a kernel runs through
//    oracle::RowStep, which has none; its kernel leg runs the domain type
//    itself and asserts the kernel rule.
// The expand() reference is oracle::ExpandOnly (tests/step_wrappers.hpp), a
// forwarding wrapper without expand_row().  (The run-level tests keep their
// older names, "...IdenticalToVectorStep", from when that reference was a
// separate lane-by-lane step.)  Every domain's expand() is
// search::expand_rows() over its expand_row(), so the per-node tests pin
// that helper; the child arithmetic itself has independent references in
// tests/test_synthetic.cpp (slot-by-slot decode_delta),
// tests/test_vector_backend.cpp (the 15-puzzle kernel), tests/test_tsp.cpp
// (brute-force optima) and tests/test_queens.cpp (known solution counts).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <initializer_list>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "puzzle/workloads.hpp"
#include "queens/queens.hpp"
#include "search/compact_stack.hpp"
#include "search/problem.hpp"
#include "search/work_stack.hpp"
#include "simd/machine.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "tsp/tsp.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {
namespace {

using oracle::ExpandOnly;
using oracle::RowStep;
using puzzle::FifteenPuzzle;
using queens::Queens;
using synthetic::Params;
using synthetic::Tree;
using tsp::Tsp;

static_assert(search::RowTreeProblem<Tree>);
static_assert(search::RowTreeProblem<FifteenPuzzle>);
static_assert(search::RowTreeProblem<Tsp>);
static_assert(search::RowTreeProblem<Queens>);
static_assert(!search::RowTreeProblem<ExpandOnly<Tree>>);
static_assert(!search::RowTreeProblem<ExpandOnly<FifteenPuzzle>>);
static_assert(!search::RowTreeProblem<ExpandOnly<Tsp>>);
static_assert(!search::RowTreeProblem<ExpandOnly<Queens>>);
static_assert(search::RowTreeProblem<RowStep<FifteenPuzzle>>);
static_assert(search::RowTreeProblem<RowStep<Tree>>);
static_assert(search::DeltaTreeProblem<ExpandOnly<Tree>>);
// Every type with a delta codec gets a CompactEngine, an expand()-only one
// too: the word step hands its expand() output to the stack as rows.
template <typename P>
concept HasCompactEngine = requires { typename CompactEngine<P>; };
static_assert(HasCompactEngine<Tree>);
static_assert(HasCompactEngine<ExpandOnly<Tree>>);
static_assert(!HasCompactEngine<Tsp>);
static_assert(search::UndoDeltaProblem<RowStep<FifteenPuzzle>>);
static_assert(!vec::kHasKernel<RowStep<FifteenPuzzle>>);
static_assert(!vec::kHasKernel<RowStep<Tree>>);
static_assert(search::DeltaTreeProblem<RowStep<Tree>>);

/// The expand_row() calls of every slot group of one node, each into a row
/// pre-filled with `poison`, so a test cannot pass on slots left from an
/// earlier call or zeroed memory.
template <typename P>
struct RowRun {
  std::vector<typename P::Node> kids;  ///< each group's row[0..k), in order
  std::uint32_t groups = 0;
  search::NextBound next;
};

template <typename P>
RowRun<P> run_rows(const P& p, const typename P::Node& n, search::Bound bound,
                   const typename P::Node& poison) {
  RowRun<P> r;
  for (std::uint32_t first = 0; first < p.child_slots(); first += 4) {
    std::array<typename P::Node, 4> row;
    row.fill(poison);
    const std::uint32_t k = p.expand_row(n, bound, row, r.next, first);
    EXPECT_LE(k, 4u) << "first " << first;
    r.kids.insert(r.kids.end(), row.begin(),
                  row.begin() + std::min<std::uint32_t>(k, 4));
    ++r.groups;
  }
  return r;
}

/// The row contract for one node: the rows' concatenation == expand()'s
/// output and NextBound agrees, set or unset.  Returns expand()'s children.
template <typename P>
std::vector<typename P::Node> expect_row_matches_expand(
    const P& p, const typename P::Node& n, search::Bound bound,
    const typename P::Node& poison) {
  std::vector<typename P::Node> ref;
  search::NextBound ref_next;
  p.expand(n, bound, ref, ref_next);
  const RowRun<P> r = run_rows(p, n, bound, poison);
  EXPECT_EQ(r.kids.size(), ref.size()) << "bound " << bound;
  for (std::size_t k = 0; k < ref.size() && k < r.kids.size(); ++k) {
    EXPECT_EQ(r.kids[k], ref[k]) << "bound " << bound << " child " << k;
  }
  EXPECT_EQ(r.next.has_value(), ref_next.has_value()) << "bound " << bound;
  EXPECT_EQ(r.next.value(), ref_next.value()) << "bound " << bound;
  return ref;
}

// ---------------------------------------------------------------------------
// synthetic::Tree
// ---------------------------------------------------------------------------

const Tree::Node kTreePoison{0xDEADBEEF, 0xEEEE, 0xEEEE};

/// Breadth-first over every level of trees with `mc` child slots, the
/// depth-cutoff level included (depth 4, or 2 past four slots, so the first
/// 400 nodes reach it).  Returns the most children any node had.
std::size_t expect_tree_rows_match(std::uint32_t mc) {
  std::size_t widest = 0;
  const std::uint16_t depth = mc <= 4 ? 4 : 2;
  for (const double fertility : {0.05, 0.3, 0.9}) {
    const Tree t(Params{300 + mc, mc, fertility, depth});
    std::vector<Tree::Node> frontier{t.root()};
    std::size_t cutoff_nodes = 0;
    for (std::size_t i = 0; i < frontier.size() && i < 400; ++i) {
      const Tree::Node n = frontier[i];
      const auto kids =
          expect_row_matches_expand(t, n, search::kUnbounded, kTreePoison);
      widest = std::max(widest, kids.size());
      if (n.depth >= t.params().max_depth) {
        ++cutoff_nodes;
        EXPECT_TRUE(kids.empty());
      }
      frontier.insert(frontier.end(), kids.begin(), kids.end());
    }
    if (fertility > 0.5) {
      EXPECT_GT(cutoff_nodes, 0u) << "max_children " << mc;
    }
  }
  return widest;
}

TEST(TreeRow, MatchesExpandForOneToFourSlots) {
  for (std::uint32_t mc = 1; mc <= 4; ++mc) {
    EXPECT_EQ(Tree(Params{1, mc, 0.3, 4}).child_slots(), mc);
    expect_tree_rows_match(mc);
  }
}

TEST(TreeRow, MatchesExpandForFiveToTwelveSlots) {
  for (std::uint32_t mc = 5; mc <= 12; ++mc) {
    EXPECT_EQ(Tree(Params{1, mc, 0.3, 4}).child_slots(), mc);
    // A node with more than four children crossed a group boundary, so the
    // concatenation itself was exercised.
    EXPECT_GT(expect_tree_rows_match(mc), 4u) << "max_children " << mc;
  }
}

TEST(TreeRow, ClimateClampsAtBothEnds) {
  const Tree t(Params{77, 4, 0.9, 30});
  std::size_t clamped_low = 0;
  std::size_t clamped_high = 0;
  for (const std::uint16_t climate : {std::uint16_t{0}, std::uint16_t{1},
                                      std::uint16_t{0xFFFE},
                                      std::uint16_t{0xFFFF}}) {
    for (std::uint64_t i = 0; i < 64; ++i) {
      const Tree::Node n{Tree::hash2(climate, i), 3, climate};
      const auto kids =
          expect_row_matches_expand(t, n, search::kUnbounded, kTreePoison);
      for (const Tree::Node& c : kids) {
        if (climate <= 1 && c.climate == 0) ++clamped_low;
        if (climate >= 0xFFFE && c.climate == 0xFFFF) ++clamped_high;
      }
    }
  }
  // Both clamps were actually exercised, not just in range.
  EXPECT_GT(clamped_low, 0u);
  EXPECT_GT(clamped_high, 0u);
}

TEST(TreeRow, ExpandAppendsTheRowAfterStagedContent) {
  const Tree::Node sentinel{0x5E, 9, 9};
  for (std::uint32_t mc = 1; mc <= 12; ++mc) {
    const Tree t(Params{400 + mc, mc, 0.6, 6});
    std::vector<Tree::Node> frontier{t.root()};
    for (std::size_t i = 0; i < frontier.size() && i < 200; ++i) {
      const Tree::Node n = frontier[i];
      search::NextBound nb;
      // Rows still holding the previous node's children of the same group.
      std::vector<Tree::Node> rows;
      for (std::uint32_t first = 0; first < mc; first += 4) {
        std::array<Tree::Node, 4> row;
        row.fill(sentinel);
        if (i > 0) (void)t.expand_row(frontier[i - 1], 0, row, nb, first);
        const std::uint32_t k = t.expand_row(n, 0, row, nb, first);
        rows.insert(rows.end(), row.begin(), row.begin() + k);
      }
      // expand() onto a vector that already holds content.
      std::vector<Tree::Node> staged(3, sentinel);
      t.expand(n, 0, staged, nb);
      ASSERT_EQ(staged.size(), 3 + rows.size()) << "max_children " << mc;
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(staged[j], sentinel);
      EXPECT_TRUE(std::equal(rows.begin(), rows.end(), staged.begin() + 3))
          << "max_children " << mc << " node " << i;
      EXPECT_FALSE(nb.has_value());
      frontier.insert(frontier.end(), staged.begin() + 3, staged.end());
    }
  }
}

TEST(TreeRow, ExpandReadsAParentThatLivesInTheOutputVector) {
  // expand(out[i], ..., out): the children of a node stored in the vector
  // they are appended to, across several groups (so after reallocations).
  for (const std::uint32_t mc : {4u, 9u, 12u}) {
    const Tree t(Params{500 + mc, mc, 0.9, 5});
    std::vector<Tree::Node> pool{t.root()};
    search::NextBound nb;
    for (std::size_t i = 0; i < pool.size() && i < 50; ++i) {
      const Tree::Node n = pool[i];
      std::vector<Tree::Node> ref;
      t.expand(n, 0, ref, nb);
      pool.shrink_to_fit();  // the next append reallocates
      t.expand(pool[i], 0, pool, nb);
      ASSERT_TRUE(std::equal(ref.begin(), ref.end(), pool.end() - ref.size()))
          << "max_children " << mc << " node " << i;
    }
  }
}

TEST(TreeRow, RowStepForEveryMaxChildren) {
  simd::Machine m64(64, simd::cm2_cost_model());
  simd::Machine m1(1, simd::cm2_cost_model());
  const bool avx512 = vec::host_isa() == vec::Isa::kAvx512;
  for (std::uint32_t mc = 1; mc <= 12; ++mc) {
    const Tree t(Params{5, mc, 0.3, 8});
    const RowStep<Tree> scalar_t(t.params());
    const Engine<RowStep<Tree>> wide(scalar_t, m64, gp_dk());
    const Engine<Tree> narrow(t, m1, gp_dk());
    const CompactEngine<RowStep<Tree>> compact(scalar_t, m64, gp_dk());
    // RowStep<Tree> has no kernel: the word step's scalar loop at every P,
    // as has the tree itself below kMinBatchPes.
    EXPECT_FALSE(wide.uses_kernel()) << mc;
    EXPECT_FALSE(narrow.uses_kernel()) << mc;
    EXPECT_FALSE(compact.uses_kernel()) << mc;
    // The tree itself takes its kernel at P >= 64 where the CPU has
    // AVX-512, for every max_children.
    const Engine<Tree> kernel_wide(t, m64, gp_dk());
    const CompactEngine<Tree> kernel_compact(t, m64, gp_dk());
    EXPECT_EQ(kernel_wide.uses_kernel(), avx512) << mc;
    EXPECT_EQ(kernel_compact.uses_kernel(), avx512) << mc;
  }
}

// ---------------------------------------------------------------------------
// puzzle::FifteenPuzzle
// ---------------------------------------------------------------------------

const FifteenPuzzle::Node kPuzzlePoison{~std::uint64_t{0}, 0xEE, 0xEE, 0xEE,
                                        0xEE};

/// Breadth-first pool of nodes within `bound`, the root first.
std::vector<FifteenPuzzle::Node> puzzle_pool(const FifteenPuzzle& p,
                                             std::size_t want,
                                             search::Bound bound) {
  std::vector<FifteenPuzzle::Node> pool{p.root()};
  search::NextBound nb;
  for (std::size_t i = 0; i < pool.size() && pool.size() < want; ++i) {
    if (!p.is_goal(pool[i])) p.expand(pool[i], bound, pool, nb);
  }
  if (pool.size() > want) pool.resize(want);
  return pool;
}

TEST(FifteenRow, MatchesExpandAtBoundsThatPruneNoneSomeAndAll) {
  static_assert(FifteenPuzzle::child_slots() == 4);
  for (const auto heuristic :
       {puzzle::Heuristic::kManhattan, puzzle::Heuristic::kLinearConflict}) {
    for (std::size_t w = 1; w <= 2; ++w) {
      const FifteenPuzzle p(puzzle::test_workloads()[w].board(), heuristic);
      const search::Bound f0 = p.f_value(p.root());
      const auto pool = puzzle_pool(p, 200, f0 + 8);
      ASSERT_EQ(pool.size(), 200u);
      ASSERT_EQ(pool[0].last, puzzle::kNoMove);
      // Bound 0 prunes every child (each has f >= 1), 255 none; f0 and
      // f0 + 2 prune some.
      std::size_t partly_pruned = 0;  // nodes that kept some children only
      for (const search::Bound bound :
           {search::Bound{0}, f0, static_cast<search::Bound>(f0 + 2),
            search::Bound{255}}) {
        for (const auto& n : pool) {
          expect_row_matches_expand(p, n, bound, kPuzzlePoison);
          const RowRun<FifteenPuzzle> r = run_rows(p, n, bound, kPuzzlePoison);
          EXPECT_EQ(r.groups, 1u);
          if (bound == 0) {
            EXPECT_TRUE(r.kids.empty());
            EXPECT_TRUE(r.next.has_value());
          }
          if (bound == 255) {
            EXPECT_GE(r.kids.size(), 1u);
            EXPECT_FALSE(r.next.has_value());
          }
          if (!r.kids.empty() && r.next.has_value()) ++partly_pruned;
        }
      }
      EXPECT_GT(partly_pruned, 0u) << "workload " << w;
    }
  }
}

TEST(FifteenRow, RootsWithAnInteriorBlankTakeAllFourMoves) {
  for (const auto heuristic :
       {puzzle::Heuristic::kManhattan, puzzle::Heuristic::kLinearConflict}) {
    for (const int cell : {5, 6, 9, 10}) {
      std::array<std::uint8_t, puzzle::kCells> tiles{};
      for (int pos = 0; pos < puzzle::kCells; ++pos) {
        tiles[static_cast<std::size_t>(pos)] = static_cast<std::uint8_t>(pos);
      }
      std::swap(tiles[0], tiles[static_cast<std::size_t>(cell)]);
      const FifteenPuzzle p(puzzle::Board::from_tiles(tiles), heuristic);
      const FifteenPuzzle::Node root = p.root();
      ASSERT_EQ(root.last, puzzle::kNoMove);
      ASSERT_EQ(root.blank, cell);
      const search::Bound open = 100;
      expect_row_matches_expand(p, root, open, kPuzzlePoison);
      const RowRun<FifteenPuzzle> r = run_rows(p, root, open, kPuzzlePoison);
      ASSERT_EQ(r.kids.size(), 4u) << "cell " << cell;
      for (std::uint32_t mv = 0; mv < 4; ++mv) {
        EXPECT_EQ(r.kids[mv].last, mv) << "cell " << cell;
      }
      EXPECT_FALSE(r.next.has_value());
    }
  }
}

TEST(FifteenRow, StepSelection) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const FifteenPuzzle manhattan(board);
  const FifteenPuzzle linear(board, puzzle::Heuristic::kLinearConflict);
  const RowStep<FifteenPuzzle> row_only(board);
  for (const std::uint32_t p : {1u, 63u, 64u, 1000u}) {
    simd::Machine m(p, simd::cm2_cost_model());
    const Engine<RowStep<FifteenPuzzle>> row_engine(row_only, m, gp_dk());
    EXPECT_FALSE(row_engine.uses_kernel());
    // Linear conflict never takes the kernel: the word step's scalar loop
    // on both stacks.
    const Engine<FifteenPuzzle> linear_work(linear, m, gp_dk());
    const CompactEngine<FifteenPuzzle> linear_compact(linear, m, gp_dk());
    EXPECT_FALSE(linear_work.uses_kernel());
    EXPECT_FALSE(linear_compact.uses_kernel());
    const Engine<FifteenPuzzle> manhattan_work(manhattan, m, gp_dk());
    const CompactEngine<FifteenPuzzle> manhattan_compact(manhattan, m,
                                                         gp_dk());
    if (p < vec::kMinBatchPes) {
      EXPECT_FALSE(manhattan_work.uses_kernel());
      EXPECT_FALSE(manhattan_compact.uses_kernel());
    }
  }
}

// ---------------------------------------------------------------------------
// tsp::Tsp and queens::Queens
// ---------------------------------------------------------------------------

const Tsp::Node kTspPoison{0xEEEE, 0xEE, 0xEE, -7};
const Queens::Node kQueensPoison{0xEEEEEEEE, 0xEEEEEEEE, 0xEEEEEEEE, 0xEE};

/// A breadth-first pool of up to `want` nodes (unbounded), plus every node
/// on `descents` random root-to-leaf paths, so the deep levels and the
/// leaves (goals, dead ends) are covered too.
template <typename P>
std::vector<typename P::Node> tree_pool(const P& p, std::size_t want,
                                        int descents, std::uint64_t seed) {
  std::vector<typename P::Node> pool{p.root()};
  search::NextBound nb;
  for (std::size_t i = 0; i < pool.size() && pool.size() < want; ++i) {
    p.expand(pool[i], search::kUnbounded, pool, nb);
  }
  if (pool.size() > want) pool.resize(want);
  std::vector<typename P::Node> kids;
  for (int d = 0; d < descents; ++d) {
    typename P::Node n = p.root();
    for (;;) {
      kids.clear();
      p.expand(n, search::kUnbounded, kids, nb);
      if (kids.empty()) break;
      n = kids[fault::splitmix64(seed) % kids.size()];
      pool.push_back(n);
    }
  }
  return pool;
}

TEST(TspRow, MatchesExpandAtBoundsThatPruneNoneSomeAndAll) {
  // 4, 8, 12 and 16 cities fill whole groups; the others end mid-group.
  for (const int cities : {1, 2, 4, 5, 7, 8, 11, 12, 16}) {
    const Tsp t(cities, 100 + static_cast<std::uint64_t>(cities));
    EXPECT_EQ(t.child_slots(), static_cast<std::uint32_t>(cities));
    const auto pool = tree_pool(t, 300, 30, 17);
    const search::Bound f0 = t.f_value(t.root());
    std::size_t partly_pruned = 0;
    std::size_t goals = 0;
    for (const search::Bound bound :
         {search::Bound{0}, f0, static_cast<search::Bound>(f0 + 40),
          static_cast<search::Bound>(f0 + 120), search::kUnbounded}) {
      for (const Tsp::Node& n : pool) {
        expect_row_matches_expand(t, n, bound, kTspPoison);
        const RowRun<Tsp> r = run_rows(t, n, bound, kTspPoison);
        const auto unvisited =
            static_cast<std::size_t>(cities - static_cast<int>(n.count));
        if (t.is_goal(n)) {
          ++goals;
          EXPECT_TRUE(r.kids.empty());
          EXPECT_FALSE(r.next.has_value());
          continue;
        }
        if (bound == 0) {  // every child costs at least one edge
          EXPECT_TRUE(r.kids.empty());
          EXPECT_TRUE(r.next.has_value());
        }
        if (bound == search::kUnbounded) {
          EXPECT_EQ(r.kids.size(), unvisited);
          EXPECT_FALSE(r.next.has_value());
        }
        if (!r.kids.empty() && r.next.has_value()) ++partly_pruned;
      }
    }
    EXPECT_GT(goals, 0u) << cities << " cities";
    if (cities >= 5) {
      EXPECT_GT(partly_pruned, 0u) << cities << " cities";
    }
  }
}

TEST(QueensRow, MatchesExpandForBoardsOneToTwelve) {
  for (int n = 1; n <= 12; ++n) {
    const Queens q(n);
    EXPECT_EQ(q.child_slots(), static_cast<std::uint32_t>(n));
    const auto pool = tree_pool(q, 3000, 40, 23);
    std::size_t goals = 0;
    std::size_t widest = 0;
    for (const Queens::Node& node : pool) {
      const auto kids =
          expect_row_matches_expand(q, node, search::kUnbounded, kQueensPoison);
      widest = std::max(widest, kids.size());
      if (q.is_goal(node)) {
        ++goals;
        EXPECT_TRUE(kids.empty());
      }
    }
    // The root's row spans every column.
    EXPECT_EQ(widest, static_cast<std::size_t>(n));
    if (Queens::known_solutions(n) > 0) {
      EXPECT_GT(goals, 0u) << "n=" << n;
    }
  }
}

TEST(TspRow, StepSelection) {
  const Tsp t(9, 3);
  for (const std::uint32_t p : {1u, 63u, 64u, 1000u}) {
    simd::Machine m(p, simd::cm2_cost_model());
    const Engine<Tsp> engine(t, m, gp_dk());
    EXPECT_FALSE(engine.uses_kernel());
  }
}

TEST(QueensRow, StepSelection) {
  const Queens q(8);
  for (const std::uint32_t p : {1u, 63u, 64u, 1000u}) {
    simd::Machine m(p, simd::cm2_cost_model());
    const Engine<Queens> engine(q, m, gp_dk());
    EXPECT_FALSE(engine.uses_kernel());
  }
}

// ---------------------------------------------------------------------------
// Whole-engine oracles: expand_row() and kernels vs expand()'s output
// ---------------------------------------------------------------------------

/// Which Engine entry point a run goes through (tests/test_modes.cpp).
enum class Mode { kIda, kFirstSolution, kBranchAndBound };

template <typename Node>
struct Outcome {
  RunStats stats;  ///< run(); the other modes fill stats.total only
  search::Bound best = search::kUnbounded;  ///< run_branch_and_bound()
  std::vector<Node> goals;
  std::vector<fault::RecoveryRecord> journal;
};

/// Whether an engine over `problem` at P = p takes a word kernel on this
/// host: the kernel legs' expectation.  Every type without a kernel
/// (wrappers, TSP, queens, the test-local trees) takes the scalar loop.
template <typename P>
bool want_kernel(const P& /*problem*/, std::uint32_t /*p*/) {
  return false;
}
bool want_kernel(const Tree& /*problem*/, std::uint32_t p) {
  return p >= 64 && vec::host_isa() == vec::Isa::kAvx512;
}
bool want_kernel(const FifteenPuzzle& problem, std::uint32_t p) {
  return problem.heuristic() == puzzle::Heuristic::kManhattan && p >= 64 &&
         vec::host_isa() >= vec::Isa::kAvx2;
}

template <typename P, typename StackT>
Outcome<typename P::Node> run_engine(const P& problem, std::uint32_t p,
                                     const SchemeConfig& cfg,
                                     const fault::FaultPlan* plan,
                                     Mode mode) {
  simd::Machine m(p, simd::cm2_cost_model());
  Engine<P, StackT> engine(problem, m, cfg);
  // The scalar legs never take a kernel; a kernel leg takes one exactly
  // where the rule says (tests/test_vector_backend.cpp pins the rule).
  EXPECT_EQ(engine.uses_kernel(), want_kernel(problem, p));
  engine.arm_faults(plan);
  Outcome<typename P::Node> o;
  switch (mode) {
    case Mode::kIda:
      o.stats = engine.run();
      break;
    case Mode::kFirstSolution:
      o.stats.total = engine.run_first_solution(search::kUnbounded);
      break;
    case Mode::kBranchAndBound: {
      const auto bnb = engine.run_branch_and_bound();
      o.stats.total = bnb.stats;
      o.best = bnb.best;
      break;
    }
  }
  o.goals = engine.goal_nodes();
  o.journal = engine.recovery_journal();
  return o;
}

template <typename Node>
void expect_same_outcome(const Outcome<Node>& got, const Outcome<Node>& ref,
                         const char* what) {
  EXPECT_EQ(got.stats, ref.stats) << what;
  EXPECT_EQ(got.best, ref.best) << what;
  EXPECT_EQ(got.goals, ref.goals) << what;
  EXPECT_EQ(got.journal, ref.journal) << what;
}

/// The six schemes of the paper's Table 1.
SchemeConfig table1_scheme(int i) {
  switch (i) {
    case 0:
      return ngp_static(0.9);
    case 1:
      return gp_static(0.9);
    case 2:
      return ngp_dp();
    case 3:
      return gp_dp();
    case 4:
      return ngp_dk();
    default:
      return gp_dk();
  }
}

/// The word-step legs of one problem type against a reference: WorkStack,
/// and CompactStack where the domain has a delta codec.
template <typename RowP, typename Node>
void expect_word_legs_identical(const RowP& row_problem, std::uint32_t p,
                                const SchemeConfig& cfg,
                                const fault::FaultPlan* armed, Mode mode,
                                const Outcome<Node>& ref, const char* what) {
  SCOPED_TRACE(what);
  expect_same_outcome(run_engine<RowP, search::WorkStack<Node>>(
                          row_problem, p, cfg, armed, mode),
                      ref, "WorkStack");
  if constexpr (search::DeltaTreeProblem<RowP>) {
    expect_same_outcome(run_engine<RowP, search::CompactStack<RowP>>(
                            row_problem, p, cfg, armed, mode),
                        ref, "CompactStack");
  }
}

/// For every P x {unarmed, armed} under `cfg` and `mode`: the expand() row
/// source on WorkStack is the reference.  Where the domain has a delta
/// codec the expand() source on CompactStack must reproduce it exactly
/// (the expand() leg), and so must expand_row() on each stack.  A
/// RowStep<Inner> row problem (the scalar leg: no kernel at any P) whose
/// Inner has a word kernel also runs Inner itself against the same
/// reference (the kernel leg, which takes the kernel where the rule gives
/// it one).
template <typename RowP, typename ExpandP>
void expect_steps_identical(
    const RowP& row_problem, const ExpandP& expand_problem,
    const SchemeConfig& cfg,
    std::uint64_t plan_seed, Mode mode = Mode::kIda,
    std::initializer_list<std::uint32_t> pes = {1u, 5u, 63u, 64u, 65u,
                                                1000u}) {
  using Node = typename RowP::Node;
  for (const std::uint32_t p : pes) {
    const fault::FaultPlan plan = fault::FaultPlan::random_kills(
        plan_seed + p, p, std::min(p - 1, 3u), 2, 40);
    const std::array<const fault::FaultPlan*, 2> plans{nullptr, &plan};
    for (const fault::FaultPlan* armed : plans) {
      SCOPED_TRACE(::testing::Message()
                   << cfg.name() << " P=" << p << " armed="
                   << (armed != nullptr) << " mode="
                   << static_cast<int>(mode));
      const auto ref = run_engine<ExpandP, search::WorkStack<Node>>(
          expand_problem, p, cfg, armed, mode);
      if (armed != nullptr && p > 1 && mode == Mode::kIda) {
        EXPECT_GT(ref.stats.total.pes_killed, 0u);
      }
      if constexpr (search::DeltaTreeProblem<ExpandP>) {
        expect_same_outcome(run_engine<ExpandP, search::CompactStack<ExpandP>>(
                                expand_problem, p, cfg, armed, mode),
                            ref, "expand() leg, CompactStack");
      }
      expect_word_legs_identical(row_problem, p, cfg, armed, mode, ref,
                                 "scalar leg");
      if constexpr (requires { row_problem.inner; }) {
        if constexpr (vec::kHasKernel<decltype(row_problem.inner)>) {
          expect_word_legs_identical(row_problem.inner, p, cfg, armed, mode,
                                     ref, "kernel leg");
        }
      }
    }
  }
}

/// A full IDA* run's stack bytes (peak, average per lane).
template <typename P, typename StackT>
std::pair<std::uint64_t, double> stack_bytes(const P& problem,
                                             std::uint32_t p) {
  SchemeConfig cfg = gp_dk();
  cfg.track_stack_memory = true;
  simd::Machine m(p, simd::cm2_cost_model());
  Engine<P, StackT> engine(problem, m, cfg);
  engine.run();
  return {engine.stack_memory_peak(), engine.stack_memory_avg_per_lane()};
}

template <typename P>
void expect_expand_source_stack_bytes_match(const P& problem,
                                            const ExpandOnly<P>& wrapped) {
  using Node = typename P::Node;
  for (const std::uint32_t p : {1u, 64u, 1000u}) {
    SCOPED_TRACE(::testing::Message() << "P=" << p);
    EXPECT_EQ((stack_bytes<ExpandOnly<P>, search::WorkStack<Node>>(wrapped, p)),
              (stack_bytes<P, search::WorkStack<Node>>(problem, p)));
    EXPECT_EQ(
        (stack_bytes<ExpandOnly<P>, search::CompactStack<ExpandOnly<P>>>(
            wrapped, p)),
        (stack_bytes<P, search::CompactStack<P>>(problem, p)));
  }
}

TEST(StackBytes, ExpandSourceGrowsStacksAsTheDomainDoes) {
  // With at most four child slots every row source takes one top_row() and
  // one commit() per popped node, so an expand()-only wrapper's stacks
  // hold the bytes the domain's own (its kernel, or its expand_row loop)
  // hold, on both stacks.  A timing wrapper with only expand() therefore
  // measures the stacks of the program it wraps.
  const Params tree{9104, 4, 0.45, 10};
  expect_expand_source_stack_bytes_match(Tree(tree), ExpandOnly<Tree>(tree));
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  expect_expand_source_stack_bytes_match(FifteenPuzzle(board),
                                         ExpandOnly<FifteenPuzzle>(board));
}

/// Parameterized by the Table-1 scheme index, so the lattice spreads over
/// parallel test processes.
class RowOracle : public ::testing::TestWithParam<int> {};

TEST_P(RowOracle, SyntheticTreeIdenticalToVectorStep) {
  // One tree per child-slot count, W between about 1.5k and 2.2k.  The
  // scalar leg is RowStep<Tree>, the kernel leg the tree itself.
  const std::array<Params, 3> trees{Params{9103, 2, 0.75, 14},
                                    Params{9103, 3, 0.55, 14},
                                    Params{9104, 4, 0.45, 10}};
  for (const Params& params : trees) {
    expect_steps_identical(RowStep<Tree>(params), ExpandOnly<Tree>(params),
                           table1_scheme(GetParam()),
                           31 * params.max_children);
  }
}

TEST_P(RowOracle, WideSyntheticTreesIdenticalToVectorStep) {
  // max_children 5..12 at mean branching 1.5 (fertility 1.5 / mc): several
  // row groups per node, some of them empty.  Seeds picked for W between
  // about 1.5k and 2.2k.
  const std::array<std::uint64_t, 8> seeds{12605, 13106, 16307, 9608,
                                           10809, 9310,  9511,  11412};
  for (std::uint32_t mc = 5; mc <= 12; ++mc) {
    const Params params{seeds[mc - 5], mc, 1.5 / mc, 12};
    expect_steps_identical(RowStep<Tree>(params), ExpandOnly<Tree>(params),
                           table1_scheme(GetParam()), 37 * mc);
  }
}

TEST_P(RowOracle, FifteenPuzzleIdenticalToVectorStep) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  expect_steps_identical(RowStep<FifteenPuzzle>(board),
                         ExpandOnly<FifteenPuzzle>(board),
                         table1_scheme(GetParam()), 7);
}

TEST_P(RowOracle, LinearConflictPuzzleIdenticalToVectorStep) {
  // FifteenPuzzle itself: linear conflict rules the kernel out at every P,
  // so the unwrapped type takes the word step's scalar loop.
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const auto lc = puzzle::Heuristic::kLinearConflict;
  expect_steps_identical(FifteenPuzzle(board, lc),
                         ExpandOnly<FifteenPuzzle>(board, lc),
                         table1_scheme(GetParam()), 11);
}

TEST_P(RowOracle, TspIdenticalToVectorStepInEveryMode) {
  // Nine cities: three row groups, the last one partial.
  // Distances in [1, 5] keep IDA* to five iterations.
  const Tsp t(9, 1, 5);
  const ExpandOnly<Tsp> v(9, 1, 5);
  for (const Mode mode :
       {Mode::kIda, Mode::kFirstSolution, Mode::kBranchAndBound}) {
    expect_steps_identical(t, v, table1_scheme(GetParam()), 13, mode);
  }
}

TEST_P(RowOracle, QueensIdenticalToVectorStep) {
  const Queens q(8);
  simd::Machine m(64, simd::cm2_cost_model());
  Engine<Queens> engine(q, m, table1_scheme(GetParam()));
  EXPECT_EQ(engine.run().goals_found, Queens::known_solutions(8));
  expect_steps_identical(q, ExpandOnly<Queens>(8), table1_scheme(GetParam()),
                         19);
}

/// A deep, wide tree for the word step's group commits: a spine of
/// `max_depth` levels (one designated child slot of every spine node
/// continues it) with subcritical side subtrees on every other slot.  Every
/// node spans ceil(slots / 4) slot groups, some of them empty, and the
/// lane that descends the spine passes CompactStack's 255-level segment
/// split.  Side nodes with id % 61 == 0 are goals.
class DeepTree {
 public:
  struct Node {
    std::uint64_t id;
    std::uint16_t depth;
    std::uint8_t spine;  ///< 1 on the spine

    friend bool operator==(const Node&, const Node&) = default;
  };

  DeepTree(std::uint64_t seed, std::uint32_t slots, std::uint16_t max_depth)
      : seed_(seed), slots_(slots), max_depth_(max_depth) {}

  [[nodiscard]] Node root() const {
    return Node{Tree::hash2(seed_, 0x5350494E45ULL), 0, 1};
  }
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    search::expand_rows(*this, n, bound, out, next);
  }
  [[nodiscard]] std::uint32_t child_slots() const { return slots_; }
  std::uint32_t expand_row(const Node& n, search::Bound /*bound*/,
                           std::array<Node, 4>& row,
                           search::NextBound& /*next*/,
                           std::uint32_t first) const {
    if (n.depth >= max_depth_) return 0;
    std::uint32_t k = 0;
    for (std::uint32_t i = first; i < std::min(first + 4, slots_); ++i) {
      const Node c = decode_delta(n, static_cast<std::uint8_t>(i));
      // Side children exist with probability 0.9 / slots: mean branching
      // 0.9 off the spine, so each side subtree is finite and small.
      if (c.spine == 1 ||
          (c.id >> 11) * slots_ * 10 < (std::uint64_t{9} << 53)) {
        row[k++] = c;
      }
    }
    return k;
  }
  [[nodiscard]] bool is_goal(const Node& n) const {
    return n.spine == 0 && n.id % 61 == 0;
  }
  [[nodiscard]] search::Bound f_value(const Node&) const { return 0; }

  [[nodiscard]] std::uint8_t encode_delta(const Node& parent,
                                          const Node& child) const {
    for (std::uint32_t i = 0; i < slots_; ++i) {
      if (decode_delta(parent, static_cast<std::uint8_t>(i)) == child) {
        return static_cast<std::uint8_t>(i);
      }
    }
    return 0;
  }
  [[nodiscard]] Node decode_delta(const Node& n, std::uint8_t d) const {
    const bool spine = n.spine == 1 && d == n.id % slots_;
    return Node{Tree::hash2(n.id, d), static_cast<std::uint16_t>(n.depth + 1),
                static_cast<std::uint8_t>(spine ? 1 : 0)};
  }

 private:
  std::uint64_t seed_;
  std::uint32_t slots_;
  std::uint16_t max_depth_;
};

static_assert(search::RowTreeProblem<DeepTree>);
static_assert(search::DeltaTreeProblem<DeepTree>);

TEST_P(RowOracle, DeepWideTreesInterleaveGroupCommits) {
  // The word step commits every lane's slot group before the next group
  // of any lane is written, so several lanes' multi-group commits
  // interleave within one flag word.  Each lane must still end exactly as
  // after pushing expand()'s output, on both stacks, at P inside one word,
  // at one word, and across two and three.
  for (std::uint32_t slots = 5; slots <= 12; ++slots) {
    const DeepTree tree(700 + slots, slots, 300);
    // The spine reaches depth 300 and the tree has goals off it.
    std::vector<DeepTree::Node> pool{tree.root()};
    search::NextBound nb;
    std::uint16_t deepest = 0;
    std::size_t goals = 0;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      deepest = std::max(deepest, pool[i].depth);
      if (tree.is_goal(pool[i])) {
        ++goals;
      } else {
        tree.expand(pool[i], 0, pool, nb);
      }
    }
    ASSERT_EQ(deepest, 300) << "slots " << slots;
    ASSERT_GT(goals, 0u) << "slots " << slots;
    ASSERT_LT(pool.size(), 10000u) << "slots " << slots;
    // Several lanes of one flag word expand in the same cycle, so their
    // group commits do interleave.
    SchemeConfig traced = table1_scheme(GetParam());
    traced.record_trace = true;
    simd::Machine m64(64, simd::cm2_cost_model());
    Engine<DeepTree> engine(tree, m64, traced);
    std::uint32_t widest = 0;
    for (const TracePoint& t : engine.run_iteration(0).trace) {
      widest = std::max(widest, t.working);
    }
    EXPECT_GE(widest, 8u) << "slots " << slots;
    expect_steps_identical(tree, ExpandOnly<DeepTree>(700 + slots, slots,
                                                      std::uint16_t{300}),
                           table1_scheme(GetParam()), 41 * slots, Mode::kIda,
                           {1u, 63u, 64u, 65u, 130u});
  }
}

INSTANTIATE_TEST_SUITE_P(Table1Schemes, RowOracle, ::testing::Range(0, 6));

}  // namespace
}  // namespace simdts::lb
