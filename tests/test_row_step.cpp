// The row step (search::RowTreeProblem, lb::ExpandStep::kRow) against the
// vector step.
//
// Two layers of contract:
//  - per node: expand_row() writes exactly expand()'s children, in order,
//    with the same NextBound outcome (synthetic::Tree and
//    puzzle::FifteenPuzzle);
//  - per run: an engine on the row step produces identical RunStats, goal
//    sequences and recovery journals as one on the vector step, across the
//    six Table-1 schemes, machine sizes around one flag word, both stack
//    representations and an armed FaultPlan.
// The vector-step reference is oracle::VectorStep (tests/step_wrappers.hpp),
// a forwarding wrapper without expand_row().  Both domains' expand() wraps
// expand_row(), so the per-node tests pin that wrapper; the child
// arithmetic itself has independent references in tests/test_synthetic.cpp
// (slot-by-slot decode_delta) and tests/test_vector_backend.cpp (the
// 15-puzzle kernel).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "puzzle/workloads.hpp"
#include "search/compact_stack.hpp"
#include "search/problem.hpp"
#include "search/work_stack.hpp"
#include "simd/machine.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {
namespace {

using oracle::RowStep;
using oracle::VectorStep;
using puzzle::FifteenPuzzle;
using synthetic::Params;
using synthetic::Tree;

static_assert(search::RowTreeProblem<Tree>);
static_assert(search::RowTreeProblem<FifteenPuzzle>);
static_assert(!search::RowTreeProblem<VectorStep<Tree>>);
static_assert(!search::RowTreeProblem<VectorStep<FifteenPuzzle>>);
static_assert(search::RowTreeProblem<RowStep<FifteenPuzzle>>);
static_assert(search::DeltaTreeProblem<VectorStep<Tree>>);
static_assert(search::UndoDeltaProblem<RowStep<FifteenPuzzle>>);
static_assert(!vec::kHasKernel<RowStep<FifteenPuzzle>>);

/// One expand_row() call into a row pre-filled with `poison`, so a test
/// cannot pass on slots left from an earlier call or zeroed memory.
template <typename P>
struct RowRun {
  std::array<typename P::Node, 4> row{};
  std::uint32_t count = 0;
  search::NextBound next;
};

template <typename P>
RowRun<P> run_row(const P& p, const typename P::Node& n, search::Bound bound,
                  const typename P::Node& poison) {
  RowRun<P> r;
  r.row.fill(poison);
  r.count = p.expand_row(n, bound, r.row, r.next);
  return r;
}

/// The row contract for one node: row[0..count) == expand()'s output and
/// NextBound agrees, set or unset.  Returns expand()'s children.
template <typename P>
std::vector<typename P::Node> expect_row_matches_expand(
    const P& p, const typename P::Node& n, search::Bound bound,
    const typename P::Node& poison) {
  std::vector<typename P::Node> ref;
  search::NextBound ref_next;
  p.expand(n, bound, ref, ref_next);
  const RowRun<P> r = run_row(p, n, bound, poison);
  EXPECT_EQ(r.count, ref.size()) << "bound " << bound;
  for (std::size_t k = 0; k < ref.size() && k < 4; ++k) {
    EXPECT_EQ(r.row[k], ref[k]) << "bound " << bound << " slot " << k;
  }
  EXPECT_EQ(r.next.has_value(), ref_next.has_value()) << "bound " << bound;
  EXPECT_EQ(r.next.value(), ref_next.value()) << "bound " << bound;
  return ref;
}

// ---------------------------------------------------------------------------
// synthetic::Tree
// ---------------------------------------------------------------------------

const Tree::Node kTreePoison{0xDEADBEEF, 0xEEEE, 0xEEEE};

TEST(TreeRow, MatchesExpandForOneToFourSlots) {
  for (std::uint32_t mc = 1; mc <= 4; ++mc) {
    for (const double fertility : {0.05, 0.3, 0.9}) {
      const Tree t(Params{300 + mc, mc, fertility, 4});
      ASSERT_TRUE(t.row_fits());
      // Breadth-first over every level, the depth-cutoff level included.
      std::vector<Tree::Node> frontier{t.root()};
      std::size_t cutoff_nodes = 0;
      for (std::size_t i = 0; i < frontier.size() && i < 400; ++i) {
        const Tree::Node n = frontier[i];
        const auto kids =
            expect_row_matches_expand(t, n, search::kUnbounded, kTreePoison);
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
  for (std::uint32_t mc = 1; mc <= 4; ++mc) {
    const Tree t(Params{400 + mc, mc, 0.6, 6});
    std::vector<Tree::Node> frontier{t.root()};
    for (std::size_t i = 0; i < frontier.size() && i < 200; ++i) {
      const Tree::Node n = frontier[i];
      search::NextBound nb;
      // A row still holding the previous node's children.
      std::array<Tree::Node, 4> row;
      row.fill(sentinel);
      if (i > 0) (void)t.expand_row(frontier[i - 1], 0, row, nb);
      const std::uint32_t k = t.expand_row(n, 0, row, nb);
      // expand() onto a vector that already holds content.
      std::vector<Tree::Node> staged(3, sentinel);
      t.expand(n, 0, staged, nb);
      ASSERT_EQ(staged.size(), 3 + k) << "max_children " << mc;
      for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(staged[j], sentinel);
      EXPECT_TRUE(std::equal(row.begin(), row.begin() + k, staged.begin() + 3))
          << "max_children " << mc << " node " << i;
      EXPECT_FALSE(nb.has_value());
      frontier.insert(frontier.end(), staged.begin() + 3, staged.end());
    }
  }
}

TEST(TreeRow, ApplicabilityRuleFollowsMaxChildren) {
  simd::Machine m64(64, simd::cm2_cost_model());
  simd::Machine m1(1, simd::cm2_cost_model());
  for (std::uint32_t mc = 1; mc <= 12; ++mc) {
    const Tree t(Params{5, mc, 0.3, 8});
    const bool fits = mc <= 4;
    EXPECT_EQ(t.row_fits(), fits) << "max_children " << mc;
    const ExpandStep want = fits ? ExpandStep::kRow : ExpandStep::kVector;
    EXPECT_EQ(Engine<Tree>(t, m64, gp_dk()).step(), want) << mc;
    EXPECT_EQ(Engine<Tree>(t, m1, gp_dk()).step(), want) << mc;
    EXPECT_EQ(CompactEngine<Tree>(t, m64, gp_dk()).step(), want) << mc;
    const VectorStep<Tree> wrapped(t.params());
    EXPECT_EQ(Engine<VectorStep<Tree>>(wrapped, m64, gp_dk()).step(),
              ExpandStep::kVector)
        << mc;
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
          const RowRun<FifteenPuzzle> r = run_row(p, n, bound, kPuzzlePoison);
          if (bound == 0) {
            EXPECT_EQ(r.count, 0u);
            EXPECT_TRUE(r.next.has_value());
          }
          if (bound == 255) {
            EXPECT_GE(r.count, 1u);
            EXPECT_FALSE(r.next.has_value());
          }
          if (r.count > 0 && r.next.has_value()) ++partly_pruned;
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
      const RowRun<FifteenPuzzle> r = run_row(p, root, open, kPuzzlePoison);
      ASSERT_EQ(r.count, 4u) << "cell " << cell;
      for (std::uint32_t mv = 0; mv < 4; ++mv) {
        EXPECT_EQ(r.row[mv].last, mv) << "cell " << cell;
      }
      EXPECT_FALSE(r.next.has_value());
    }
  }
}

TEST(FifteenRow, StepSelection) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const FifteenPuzzle manhattan(board);
  const RowStep<FifteenPuzzle> row_only(board);
  const VectorStep<FifteenPuzzle> vector_only(board);
  for (const std::uint32_t p : {1u, 63u, 64u, 1000u}) {
    simd::Machine m(p, simd::cm2_cost_model());
    EXPECT_EQ(Engine<RowStep<FifteenPuzzle>>(row_only, m, gp_dk()).step(),
              ExpandStep::kRow);
    EXPECT_EQ(
        Engine<VectorStep<FifteenPuzzle>>(vector_only, m, gp_dk()).step(),
        ExpandStep::kVector);
    if (p < vec::kMinBatchPes) {
      EXPECT_EQ(Engine<FifteenPuzzle>(manhattan, m, gp_dk()).step(),
                ExpandStep::kRow);
    }
  }
}

// ---------------------------------------------------------------------------
// Whole-engine oracles: row step vs vector step
// ---------------------------------------------------------------------------

template <typename P, typename StackT>
RunStats run_engine(const P& problem, std::uint32_t p, SchemeConfig cfg,
                    const fault::FaultPlan* plan, ExpandStep want_step, std::vector<typename P::Node>& goals,
                    std::vector<fault::RecoveryRecord>& journal) {
  simd::Machine m(p, simd::cm2_cost_model());
  Engine<P, StackT> engine(problem, m, cfg);
  EXPECT_EQ(engine.step(), want_step);
  engine.arm_faults(plan);
  RunStats rs = engine.run();
  goals = engine.goal_nodes();
  journal = engine.recovery_journal();
  return rs;
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

/// For every P x {unarmed, armed} under `cfg`: the vector step on WorkStack
/// is the reference; the row step on WorkStack and on CompactStack must
/// reproduce it exactly.
template <typename RowP, typename VecP>
void expect_steps_identical(const RowP& row_problem, const VecP& vec_problem,
                            const SchemeConfig& cfg, std::uint64_t plan_seed) {
  using Node = typename RowP::Node;
  for (const std::uint32_t p : {1u, 5u, 63u, 64u, 65u, 1000u}) {
    const fault::FaultPlan plan = fault::FaultPlan::random_kills(
        plan_seed + p, p, std::min(p - 1, 3u), 2, 40);
    const std::array<const fault::FaultPlan*, 2> plans{nullptr, &plan};
    for (const fault::FaultPlan* armed : plans) {
      std::vector<Node> ref_goals;
      std::vector<fault::RecoveryRecord> ref_journal;
      const RunStats ref = run_engine<VecP, search::WorkStack<Node>>(
          vec_problem, p, cfg, armed, ExpandStep::kVector, ref_goals,
          ref_journal);
      if (armed != nullptr && p > 1) {
        EXPECT_GT(ref.total.pes_killed, 0u) << cfg.name() << " P=" << p;
      }
      std::vector<Node> goals;
      std::vector<fault::RecoveryRecord> journal;
      EXPECT_EQ((run_engine<RowP, search::WorkStack<Node>>(
                    row_problem, p, cfg, armed, ExpandStep::kRow, goals,
                    journal)),
                ref)
          << cfg.name() << " P=" << p << " armed=" << (armed != nullptr)
          << " WorkStack";
      EXPECT_EQ(goals, ref_goals) << cfg.name() << " P=" << p;
      EXPECT_EQ(journal, ref_journal) << cfg.name() << " P=" << p;
      EXPECT_EQ((run_engine<RowP, search::CompactStack<RowP>>(
                    row_problem, p, cfg, armed, ExpandStep::kRow, goals,
                    journal)),
                ref)
          << cfg.name() << " P=" << p << " armed=" << (armed != nullptr)
          << " CompactStack";
      EXPECT_EQ(goals, ref_goals) << cfg.name() << " P=" << p;
      EXPECT_EQ(journal, ref_journal) << cfg.name() << " P=" << p;
    }
  }
}

/// Parameterized by the Table-1 scheme index, so the lattice spreads over
/// parallel test processes.
class RowOracle : public ::testing::TestWithParam<int> {};

TEST_P(RowOracle, SyntheticTreeIdenticalToVectorStep) {
  // One tree per child-slot count, W between about 1.5k and 2.2k.
  const std::array<Params, 3> trees{Params{9103, 2, 0.75, 14},
                                    Params{9103, 3, 0.55, 14},
                                    Params{9104, 4, 0.45, 10}};
  for (const Params& params : trees) {
    expect_steps_identical(Tree(params), VectorStep<Tree>(params),
                           table1_scheme(GetParam()),
                           31 * params.max_children);
  }
}

TEST_P(RowOracle, FifteenPuzzleIdenticalToVectorStep) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  expect_steps_identical(RowStep<FifteenPuzzle>(board),
                         VectorStep<FifteenPuzzle>(board),
                         table1_scheme(GetParam()), 7);
}

TEST_P(RowOracle, LinearConflictPuzzleIdenticalToVectorStep) {
  // FifteenPuzzle itself: linear conflict rules the batched step out at
  // every P, so the unwrapped type takes the row step.
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const auto lc = puzzle::Heuristic::kLinearConflict;
  expect_steps_identical(FifteenPuzzle(board, lc),
                         VectorStep<FifteenPuzzle>(board, lc),
                         table1_scheme(GetParam()), 11);
}

INSTANTIATE_TEST_SUITE_P(Table1Schemes, RowOracle, ::testing::Range(0, 6));

}  // namespace
}  // namespace simdts::lb
