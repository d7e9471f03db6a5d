// The word kernels against expand_row() and the expand() reference.
//
// The contract under test (vec/expand.hpp): every build of a word kernel
// writes the rows, counts and NextBound outcome that expand_row() gives for
// each node of a group, and an engine that expands through a kernel
// produces *identical* RunStats (nodes expanded, goals, every lb metric,
// the simulated clock) and an identical goal-node sequence as the expand()
// row source — across bounds, run modes, both stack representations, engines
// running side by side on sweep threads, and with a FaultPlan armed (dead
// lanes must never enter a batch).  The kernel rule is a pure function of
// (problem, P, CPU features), so each of its branches is pinned here for
// every feature set, whatever the host has.
//
// The reference is NoBatchPuzzle: a forwarding wrapper around FifteenPuzzle
// (tests/step_wrappers.hpp) whose type has no kernel and no expand_row(), so
// the engine's word step always takes its rows from expand() while it
// searches exactly the same tree.  A test of one kernel build skips only when the host CPU lacks
// that build's instruction set, and says so.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
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
#include "synthetic/workloads.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {
namespace {

using puzzle::FifteenPuzzle;

/// FifteenPuzzle behind a type with neither a kernel nor expand_row(): the
/// expand() reference.
using NoBatchPuzzle = oracle::ExpandOnly<FifteenPuzzle>;

static_assert(search::TreeProblem<NoBatchPuzzle>);
static_assert(vec::kHasKernel<FifteenPuzzle>);
static_assert(!vec::kHasKernel<NoBatchPuzzle>);
static_assert(vec::kHasKernel<synthetic::Tree>);
static_assert(!vec::kHasKernel<oracle::RowStep<synthetic::Tree>>);
static_assert(!vec::kHasKernel<oracle::ExpandOnly<synthetic::Tree>>);

const char* isa_name(vec::Isa isa) {
  switch (isa) {
    case vec::Isa::kAvx2:
      return "AVX2/BMI2";
    case vec::Isa::kAvx512:
      return "AVX-512 F/DQ/VL/BW";
    default:
      return "no kernel ISA";
  }
}

/// Skips the test when the host CPU cannot run the `isa` build.
#define SKIP_WITHOUT(isa)                                                  \
  if (vec::host_isa() < (isa)) {                                           \
    GTEST_SKIP() << "host CPU lacks " << isa_name(isa) << ": the " \
                 << isa_name(isa) << " kernel build never runs here";      \
  }

/// One 15-puzzle test, run once per kernel build: TEST(suite, name) on the
/// AVX2 build and TEST(suite, nameAvx512) on the AVX-512 build, each
/// skipping only where the CPU lacks that build's ISA.  The body follows
/// the macro and reads the build as `isa`.
#define PER_BUILD_TEST(suite, name)                \
  void name##Body(vec::Isa isa);                   \
  TEST(suite, name) {                              \
    SKIP_WITHOUT(vec::Isa::kAvx2);                 \
    name##Body(vec::Isa::kAvx2);                   \
  }                                                \
  TEST(suite, name##Avx512) {                      \
    SKIP_WITHOUT(vec::Isa::kAvx512);               \
    name##Body(vec::Isa::kAvx512);                 \
  }                                                \
  void name##Body(vec::Isa isa)
#define FIFTEEN_KERNEL_TEST(name) PER_BUILD_TEST(FifteenKernel, name)

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

/// The instance the 15-puzzle kernel runs for: a Manhattan kernel build
/// reads only the nodes.
const FifteenPuzzle& kernel_puzzle() {
  static const FifteenPuzzle p(puzzle::Board::goal());
  return p;
}

/// One vec::expand_group() call of build `isa` for `p` on nodes[0..count)
/// into scratch rows, one per node, pre-filled with kPoison.
struct KernelRun {
  std::vector<Row> kids;
  std::vector<std::uint32_t> counts;
  search::NextBound next;
};

KernelRun run_kernel(vec::Isa isa, const FifteenPuzzle::Node* nodes,
                     std::uint32_t count, search::Bound bound,
                     const FifteenPuzzle& p = kernel_puzzle()) {
  KernelRun r;
  r.kids.assign(count, {kPoison, kPoison, kPoison, kPoison});
  r.counts.assign(count, 99);
  std::vector<Row*> rows;
  for (Row& row : r.kids) rows.push_back(&row);
  vec::expand_group(isa, p, nodes, count, bound, rows.data(),
                    r.counts.data(), r.next, 0);
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

FIFTEEN_KERNEL_TEST(MatchesPerNodeExpandAcrossBounds) {
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
        const KernelRun r = run_kernel(isa, pool.data(), count, bound);
        expect_rows_match_expand(p, pool.data(), count, bound, r);
      }
    }
  }
}

FIFTEEN_KERNEL_TEST(RootsWithAnInteriorBlankTakeAllFourMoves) {
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
  const KernelRun r = run_kernel(isa, roots.data(), count, open);
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

FIFTEEN_KERNEL_TEST(BoundsThatPruneEverythingOrNothing) {
  const FifteenPuzzle p(puzzle::test_workloads()[1].board());
  const search::Bound f0 = p.f_value(p.root());
  const auto pool = node_pool(p, 64, f0 + 8);
  ASSERT_EQ(pool.size(), 64u);
  for (const std::uint32_t count : {1u, 5u, 64u}) {
    // Bound 0: every child has f >= 1, so every candidate is pruned and
    // NextBound carries the smallest of them.
    const KernelRun none = run_kernel(isa, pool.data(), count, 0);
    const search::NextBound ref =
        expect_rows_match_expand(p, pool.data(), count, 0, none);
    for (std::uint32_t j = 0; j < count; ++j) EXPECT_EQ(none.counts[j], 0u);
    EXPECT_TRUE(ref.has_value());
    // A bound above every child's f: nothing is pruned, NextBound stays
    // unset.
    const search::Bound open = 255;
    const KernelRun all = run_kernel(isa, pool.data(), count, open);
    expect_rows_match_expand(p, pool.data(), count, open, all);
    EXPECT_FALSE(all.next.has_value()) << "count " << count;
    for (std::uint32_t j = 0; j < count; ++j) {
      EXPECT_GE(all.counts[j], 1u);
    }
  }
}

TEST(FifteenKernel, IsaWithoutABuildRunsExpandRow) {
  // Isa::kNone, or a heuristic the kernel does not compute, runs one
  // expand_row() per node, on any CPU.
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const FifteenPuzzle manhattan(board);
  const FifteenPuzzle conflict(board, puzzle::Heuristic::kLinearConflict);
  const std::array<std::pair<const FifteenPuzzle*, vec::Isa>, 3> calls{
      {{&manhattan, vec::Isa::kNone},
       {&conflict, vec::Isa::kAvx2},
       {&conflict, vec::Isa::kAvx512}}};
  for (const auto& [p, isa] : calls) {
    const search::Bound f0 = p->f_value(p->root());
    const auto pool = node_pool(*p, 64, f0 + 8);
    ASSERT_EQ(pool.size(), 64u);
    for (const std::uint32_t count : {1u, 5u, 64u}) {
      SCOPED_TRACE(isa_name(isa));
      const KernelRun r = run_kernel(isa, pool.data(), count, f0 + 4, *p);
      expect_rows_match_expand(*p, pool.data(), count, f0 + 4, r);
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

FIFTEEN_KERNEL_TEST(EverySingleMoveMatchesExpandRow) {
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
    const KernelRun r = run_kernel(isa, &n, 1, bound);
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
    const KernelRun r = run_kernel(isa, nodes.data() + i, count, bound);
    expect_rows_match_expand(p, nodes.data() + i, count, bound, r);
  }
}

FIFTEEN_KERNEL_TEST(StackTopRowsMatchScratchRows) {
  const search::Bound bound = 100;
  const std::vector<FifteenPuzzle::Node> nodes = every_single_move_node(bound);
  for (std::size_t i = 0; i + 64 <= nodes.size(); i += 64 * 7) {
    const KernelRun scratch = run_kernel(isa, nodes.data() + i, 64, bound);
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
    vec::expand_group(isa, kernel_puzzle(), nodes.data() + i, 64, bound,
                      rows.data(), counts.data(), next, 0);
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

constexpr std::array<vec::Isa, 3> kEveryIsa{vec::Isa::kNone, vec::Isa::kAvx2,
                                           vec::Isa::kAvx512};

/// lb::Engine as built on a CPU whose widest kernel ISA is `cpu` (the
/// engine's test seam): the rule tests build engines for every feature set,
/// and the oracles run each 15-puzzle build end to end on a host that has a
/// wider one.
template <typename P, typename StackT = search::WorkStack<typename P::Node>>
struct EngineOn : Engine<P, StackT> {
  EngineOn(const P& problem, simd::Machine& m, SchemeConfig cfg, vec::Isa cpu)
      : Engine<P, StackT>(problem, m, cfg, cpu) {}
};

TEST(FifteenKernel, SelectionRulePinsEachBranch) {
  const puzzle::Board board = puzzle::test_workloads()[1].board();
  const FifteenPuzzle manhattan(board);
  const FifteenPuzzle conflict(board, puzzle::Heuristic::kLinearConflict);
  // The rule for every CPU feature set: a Manhattan puzzle at P >= 64 runs
  // the widest build the CPU has (on a CPU without AVX-512, the AVX2 build
  // as before it existed); each failed condition gives the scalar loop.
  for (const vec::Isa cpu : kEveryIsa) {
    SCOPED_TRACE(isa_name(cpu));
    EXPECT_EQ(vec::kernel_rule(manhattan, vec::kMinBatchPes, cpu), cpu);
    EXPECT_EQ(vec::kernel_rule(manhattan, 8192, cpu), cpu);
    EXPECT_EQ(vec::kernel_rule(manhattan, vec::kMinBatchPes - 1, cpu),
              vec::Isa::kNone);
    EXPECT_EQ(vec::kernel_rule(manhattan, 1, cpu), vec::Isa::kNone);
    EXPECT_EQ(vec::kernel_rule(conflict, vec::kMinBatchPes, cpu),
              vec::Isa::kNone);
    EXPECT_EQ(vec::kernel_rule(conflict, 8192, cpu), vec::Isa::kNone);
  }

  // The engine applies the rule with the host's features.
  const NoBatchPuzzle no_kernel(board);
  simd::Machine m64(64, simd::cm2_cost_model());
  simd::Machine m63(63, simd::cm2_cost_model());
  const Engine<FifteenPuzzle> conflict64(conflict, m64, gp_dk());
  EXPECT_FALSE(conflict64.uses_kernel());
  const Engine<FifteenPuzzle> manhattan63(manhattan, m63, gp_dk());
  EXPECT_FALSE(manhattan63.uses_kernel());
  const Engine<NoBatchPuzzle> no_kernel64(no_kernel, m64, gp_dk());
  EXPECT_FALSE(no_kernel64.uses_kernel());
  const Engine<FifteenPuzzle> manhattan64(manhattan, m64, gp_dk());
  const CompactEngine<FifteenPuzzle> compact64(manhattan, m64, gp_dk());
  const bool avx2 = vec::host_isa() >= vec::Isa::kAvx2;
  EXPECT_EQ(manhattan64.uses_kernel(), avx2);
  EXPECT_EQ(compact64.uses_kernel(), avx2);
  // And with each feature set (constructing runs no kernel).
  for (const vec::Isa cpu : kEveryIsa) {
    SCOPED_TRACE(isa_name(cpu));
    const bool any = cpu != vec::Isa::kNone;
    EXPECT_EQ(EngineOn<FifteenPuzzle>(manhattan, m64, gp_dk(), cpu)
                  .uses_kernel(),
              any);
    EXPECT_FALSE(EngineOn<FifteenPuzzle>(manhattan, m63, gp_dk(), cpu)
                     .uses_kernel());
    EXPECT_FALSE(EngineOn<FifteenPuzzle>(conflict, m64, gp_dk(), cpu)
                     .uses_kernel());
  }
}

TEST(TreeKernel, SelectionRulePinsEachBranch) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  const synthetic::Tree wide(synthetic::Params{9013, 12, 0.2, 8});
  // Only AVX-512 runs the tree kernel: on a CPU without it a tree takes the
  // scalar loop at every P, as before the kernel existed.
  for (const synthetic::Tree* t : {&tree, &wide}) {
    for (const vec::Isa cpu : kEveryIsa) {
      SCOPED_TRACE(isa_name(cpu));
      const vec::Isa want =
          cpu == vec::Isa::kAvx512 ? vec::Isa::kAvx512 : vec::Isa::kNone;
      EXPECT_EQ(vec::kernel_rule(*t, vec::kMinBatchPes, cpu), want);
      EXPECT_EQ(vec::kernel_rule(*t, 8192, cpu), want);
      EXPECT_EQ(vec::kernel_rule(*t, vec::kMinBatchPes - 1, cpu),
                vec::Isa::kNone);
      EXPECT_EQ(vec::kernel_rule(*t, 16, cpu), vec::Isa::kNone);
      EXPECT_EQ(vec::kernel_rule(*t, 1, cpu), vec::Isa::kNone);
    }
  }
  const bool avx512 = vec::host_isa() == vec::Isa::kAvx512;
  for (const std::uint32_t p : {1u, 16u, 63u, 64u, 65u, 1024u}) {
    simd::Machine m(p, simd::cm2_cost_model());
    const Engine<synthetic::Tree> work(tree, m, gp_dk());
    const CompactEngine<synthetic::Tree> compact(tree, m, gp_dk());
    const Engine<oracle::RowStep<synthetic::Tree>> scalar(
        oracle::RowStep<synthetic::Tree>(tree.params()), m, gp_dk());
    EXPECT_EQ(work.uses_kernel(), p >= 64 && avx512) << "P=" << p;
    EXPECT_EQ(compact.uses_kernel(), p >= 64 && avx512) << "P=" << p;
    EXPECT_FALSE(scalar.uses_kernel()) << "P=" << p;
    for (const vec::Isa cpu : kEveryIsa) {
      EXPECT_EQ(EngineOn<synthetic::Tree>(tree, m, gp_dk(), cpu).uses_kernel(),
                p >= 64 && cpu == vec::Isa::kAvx512)
          << "P=" << p << ' ' << isa_name(cpu);
    }
  }
}

// ---------------------------------------------------------------------------
// The synthetic-tree kernel against Tree::expand_row()
// ---------------------------------------------------------------------------

using TreeRow = std::array<synthetic::Tree::Node, 4>;

/// A node no expansion produces (depth 0xEEEE is past every max_depth the
/// tests use), to pre-fill rows with.
constexpr synthetic::Tree::Node kTreePoison{~std::uint64_t{0}, 0xEEEE,
                                            0xEEEE};

std::uint64_t mix(std::uint64_t x) { return fault::splitmix64(x); }

/// 64 nodes for a tree of `max_depth`: every pairing of the climates 0, 1,
/// 0x7FFF, 0x8000 and 0xFFFF with the depths max_depth - 1 (the last level
/// with children), max_depth (a leaf) and a shallow one, the rest drawn at
/// random (depth 0xFFFF included: a leaf whose child depth would wrap).
std::vector<synthetic::Tree::Node> tree_nodes(std::uint16_t max_depth,
                                              std::uint64_t seed) {
  constexpr std::uint16_t kClimates[] = {0, 1, 0x7FFF, 0x8000, 0xFFFF};
  const std::uint16_t depths[] = {static_cast<std::uint16_t>(max_depth - 1),
                                  max_depth, 1};
  std::vector<synthetic::Tree::Node> nodes;
  for (const std::uint16_t climate : kClimates) {
    for (const std::uint16_t depth : depths) {
      nodes.push_back({mix(seed + nodes.size()), depth, climate});
    }
  }
  while (nodes.size() < 64) {
    const std::uint64_t r = mix(seed ^ (0xC0FFEE + nodes.size()));
    const std::uint16_t depth =
        r % 7 == 0 ? std::uint16_t{0xFFFF}
                   : static_cast<std::uint16_t>(max_depth - 1 + (r >> 8) % 2);
    nodes.push_back({mix(r), depth, static_cast<std::uint16_t>(r >> 32)});
  }
  return nodes;
}

/// One expand_group() call through `isa` for group `first` on
/// nodes[0..count) into scratch rows pre-filled with kTreePoison; checks
/// every row, count and the NextBound outcome against `count` expand_row()
/// calls.
void expect_tree_group_matches(const synthetic::Tree& t,
                               const synthetic::Tree::Node* nodes,
                               std::uint32_t count, std::uint32_t first,
                               vec::Isa isa = vec::Isa::kAvx512) {
  std::vector<TreeRow> kids(count);
  for (TreeRow& row : kids) row.fill(kTreePoison);
  std::vector<TreeRow*> rows;
  for (TreeRow& row : kids) rows.push_back(&row);
  std::vector<std::uint32_t> counts(count, 99);
  search::NextBound next;
  vec::expand_group(isa, t, nodes, count, search::kUnbounded, rows.data(),
                    counts.data(), next, first);
  search::NextBound want_next;
  for (std::uint32_t j = 0; j < count; ++j) {
    TreeRow want;
    want.fill(kTreePoison);
    const std::uint32_t k =
        t.expand_row(nodes[j], search::kUnbounded, want, want_next, first);
    ASSERT_EQ(counts[j], k) << "node " << j << " of " << count;
    for (std::uint32_t c = 0; c < k; ++c) {
      ASSERT_EQ(kids[j][c], want[c]) << "node " << j << " slot " << c;
    }
  }
  EXPECT_EQ(next.has_value(), want_next.has_value());
  EXPECT_EQ(next.value(), want_next.value());
}

TEST(TreeKernel, MatchesExpandRowForEveryShape) {
  SKIP_WITHOUT(vec::Isa::kAvx512);
  const double denormal = std::numeric_limits<double>::denorm_min();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double fertility : {0.0, denormal, 0.395, 1.0, 2.0, nan}) {
    for (std::uint32_t mc = 1; mc <= 12; ++mc) {
      const std::uint16_t max_depth = 10;
      const synthetic::Tree t(synthetic::Params{77 + mc, mc, fertility,
                                                max_depth});
      const auto nodes = tree_nodes(max_depth, 1000 * mc);
      for (std::uint32_t first = 0; first < mc; first += 4) {
        // Every batch size a flag word can produce, so every padding
        // remainder of the 8-lane vectors.
        for (std::uint32_t count = 1; count <= 64; ++count) {
          SCOPED_TRACE(::testing::Message()
                       << "fertility " << fertility << " max_children " << mc
                       << " first " << first << " count " << count);
          expect_tree_group_matches(t, nodes.data(), count, first);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(TreeKernel, IsaWithoutATreeBuildRunsExpandRow) {
  // There is no AVX2 tree build: expand_group() through kAvx2 or kNone runs
  // one expand_row() per node, on any CPU.
  for (const vec::Isa isa : {vec::Isa::kNone, vec::Isa::kAvx2}) {
    for (const std::uint32_t mc : {1u, 4u, 6u, 12u}) {
      const synthetic::Tree t(synthetic::Params{91 + mc, mc, 0.395, 10});
      const auto nodes = tree_nodes(10, 7 * mc);
      for (std::uint32_t first = 0; first < mc; first += 4) {
        for (const std::uint32_t count : {1u, 7u, 64u}) {
          SCOPED_TRACE(::testing::Message()
                       << isa_name(isa) << " max_children " << mc
                       << " first " << first << " count " << count);
          expect_tree_group_matches(t, nodes.data(), count, first, isa);
        }
      }
    }
  }
}

TEST(TreeKernel, TakesChildrenAtTheFertilityExtremes) {
  SKIP_WITHOUT(vec::Isa::kAvx512);
  // The grid above would pass a kernel that never takes a child if
  // expand_row() never did either; pin the counts themselves.
  const auto nodes = tree_nodes(10, 5);
  for (const std::uint32_t mc : {1u, 4u, 6u, 12u}) {
    for (const double fertility : {0.0, 2.0}) {
      const synthetic::Tree t(synthetic::Params{3, mc, fertility, 10});
      for (std::uint32_t first = 0; first < mc; first += 4) {
        std::vector<TreeRow> kids(64);
        std::vector<TreeRow*> rows;
        for (TreeRow& row : kids) rows.push_back(&row);
        std::vector<std::uint32_t> counts(64, 99);
        search::NextBound next;
        vec::expand_group(vec::Isa::kAvx512, t, nodes.data(), 64,
                          search::kUnbounded, rows.data(), counts.data(),
                          next, first);
        for (std::uint32_t j = 0; j < 64; ++j) {
          const bool leaf = nodes[j].depth >= 10;
          const std::uint32_t all = std::min(mc - first, 4u);
          EXPECT_EQ(counts[j], fertility > 1 && !leaf ? all : 0u)
              << "mc " << mc << " first " << first << " node " << j;
        }
      }
    }
  }
}

/// The kernel's rows written through lane stacks, as the engine writes
/// them: each lane pops its node, every slot group goes to the lane's
/// top_row() and is committed before the next, and the lane must end
/// holding exactly expand()'s children above what it held before.
template <typename StackT>
void expect_stack_rows_match(const synthetic::Tree& t,
                             const std::vector<synthetic::Tree::Node>& nodes) {
  const auto count = static_cast<std::uint32_t>(nodes.size());
  std::vector<StackT> stacks(count);
  std::vector<std::size_t> below(count);
  for (std::uint32_t j = 0; j < count; ++j) {
    if constexpr (requires { stacks[j].bind(t); }) stacks[j].bind(t);
    // Lane j holds j % 5 older nodes, then its node on top.
    for (std::uint32_t v = 0; v < j % 5; ++v) stacks[j].push(nodes[v]);
    below[j] = stacks[j].size();
    stacks[j].push(nodes[j]);
    ASSERT_EQ(stacks[j].pop(), nodes[j]);
  }
  std::vector<TreeRow*> rows(count);
  std::vector<std::uint32_t> counts(count);
  search::NextBound next;
  for (std::uint32_t first = 0; first < t.child_slots(); first += 4) {
    for (std::uint32_t j = 0; j < count; ++j) {
      if (first != 0) stacks[j].commit(counts[j]);
      rows[j] = &stacks[j].top_row();
    }
    vec::expand_group(vec::Isa::kAvx512, t, nodes.data(), count,
                      search::kUnbounded, rows.data(), counts.data(), next,
                      first);
  }
  for (std::uint32_t j = 0; j < count; ++j) {
    stacks[j].commit(counts[j]);
    std::vector<synthetic::Tree::Node> want;
    t.expand(nodes[j], search::kUnbounded, want, next);
    ASSERT_EQ(stacks[j].size(), below[j] + want.size()) << "lane " << j;
    std::vector<synthetic::Tree::Node> got;
    stacks[j].drain_into(got);
    for (std::size_t v = 0; v < below[j]; ++v) {
      EXPECT_EQ(got[v], nodes[v]) << "lane " << j << " kept " << v;
    }
    for (std::size_t c = 0; c < want.size(); ++c) {
      EXPECT_EQ(got[below[j] + c], want[c]) << "lane " << j << " child " << c;
    }
  }
  EXPECT_FALSE(next.has_value());
}

TEST(TreeKernel, StackTopRowsMatchExpand) {
  SKIP_WITHOUT(vec::Isa::kAvx512);
  for (const std::uint32_t mc : {1u, 4u, 5u, 9u, 12u}) {
    const synthetic::Tree t(synthetic::Params{11 + mc, mc, 2.0 / mc, 10});
    const auto nodes = tree_nodes(10, 77 * mc);
    for (const std::uint32_t count : {1u, 7u, 64u}) {
      SCOPED_TRACE(::testing::Message()
                   << "max_children " << mc << " count " << count);
      const std::vector<synthetic::Tree::Node> batch(nodes.begin(),
                                                     nodes.begin() + count);
      expect_stack_rows_match<search::WorkStack<synthetic::Tree::Node>>(
          t, batch);
      expect_stack_rows_match<search::CompactStack<synthetic::Tree>>(t,
                                                                      batch);
    }
  }
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

/// Full IDA* on the `isa` kernel build (stack `StackT`) against the
/// expand() reference, for every case.  The batched engines run two per
/// case, side by side through runtime::SweepRunner at 1 and 8 threads:
/// engines share no state, so each must match its reference whatever runs
/// next to it.
/// These are the kernel's concurrent callers (the TSan job runs them).
template <typename StackT>
void expect_kernel_runs_match(const std::vector<PuzzleCase>& cases,
                              vec::Isa isa) {
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
      EngineOn<FifteenPuzzle, StackT> batched(problem, m, gp_dk(), isa);
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

PER_BUILD_TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsWorkStack) {
  const auto& workloads = puzzle::test_workloads();
  std::vector<PuzzleCase> cases;
  // P = 100 leaves a partial last flag word; P = 8192 spans 128 words.
  for (const std::uint32_t p : {64u, 100u, 256u}) {
    cases.push_back({&workloads[1], p});
    cases.push_back({&workloads[2], p});
  }
  cases.push_back({&workloads[3], 8192});
  expect_kernel_runs_match<search::WorkStack<FifteenPuzzle::Node>>(cases,
                                                                   isa);
}

PER_BUILD_TEST(FifteenOracle, FullIdaIdenticalAcrossThreadsCompactStack) {
  const auto& workloads = puzzle::test_workloads();
  expect_kernel_runs_match<search::CompactStack<FifteenPuzzle>>(
      {{&workloads[2], 64}, {&workloads[2], 256}}, isa);
}

PER_BUILD_TEST(FifteenOracle, FirstSolutionIdentical) {
  const auto& wl = puzzle::test_workloads()[2];
  const NoBatchPuzzle reference(wl.board());
  const FifteenPuzzle problem(wl.board());
  for (const std::uint32_t p : {64u, 256u}) {
    simd::Machine m_ref(p, simd::cm2_cost_model());
    Engine<NoBatchPuzzle> per_bit(reference, m_ref, gp_dk());
    simd::Machine m(p, simd::cm2_cost_model());
    EngineOn<FifteenPuzzle> batched(problem, m, gp_dk(), isa);
    ASSERT_TRUE(batched.uses_kernel());
    EXPECT_EQ(batched.run_first_solution(wl.solution_length),
              per_bit.run_first_solution(wl.solution_length))
        << "P=" << p;
    EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes()) << "P=" << p;
  }
}

PER_BUILD_TEST(FifteenOracle, ArmedFaultPlanIdenticalAndDeadLanesExcluded) {
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
  EngineOn<FifteenPuzzle> batched(problem, m, gp_dk(), isa);
  ASSERT_TRUE(batched.uses_kernel());
  batched.arm_faults(&plan);
  // run_iteration's conservation check plus degraded-mode accounting make a
  // dead lane slipping into a batch surface as a stats divergence or a
  // FaultError; equality means dead lanes were excluded word by word.
  EXPECT_EQ(batched.run_iteration(wl.solution_length), ref);
  EXPECT_EQ(batched.goal_nodes(), per_bit.goal_nodes());
  EXPECT_EQ(batched.recovery_journal(), per_bit.recovery_journal());
}

/// Full runs of the tree kernel against the expand() row source, for stack
/// `StackT`: every case twice, side by side through runtime::SweepRunner at
/// 1 and 8 threads (the tree kernel's concurrent callers).
template <typename StackT>
void expect_tree_kernel_runs_match() {
  const std::array<synthetic::Params, 3> trees{
      synthetic::test_workloads()[1].params,
      synthetic::Params{9104, 4, 0.45, 10},
      synthetic::Params{11412, 12, 1.5 / 12, 12}};
  const std::array<std::uint32_t, 3> pes{64, 100, 1024};
  std::vector<RunStats> refs;
  for (const synthetic::Params& params : trees) {
    for (const std::uint32_t p : pes) {
      const oracle::ExpandOnly<synthetic::Tree> reference(params);
      simd::Machine m(p, simd::cm2_cost_model());
      Engine<oracle::ExpandOnly<synthetic::Tree>> per_bit(reference, m,
                                                          gp_static(0.9));
      refs.push_back(per_bit.run());
    }
  }
  const std::size_t n = 2 * refs.size();
  for (const unsigned threads : {1u, 8u}) {
    std::vector<RunStats> runs(n);
    std::vector<char> kernel(n, 0);
    runtime::SweepRunner runner(threads);
    runner.run(n, [&](std::size_t i) {
      const std::size_t c = i % refs.size();
      const synthetic::Tree tree(trees[c / pes.size()]);
      simd::Machine m(pes[c % pes.size()], simd::cm2_cost_model());
      Engine<synthetic::Tree, StackT> engine(tree, m, gp_static(0.9));
      kernel[i] = engine.uses_kernel() ? 1 : 0;
      runs[i] = engine.run();
    });
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t c = i % refs.size();
      EXPECT_EQ(kernel[i], 1) << "case " << c;
      EXPECT_EQ(runs[i], refs[c])
          << "tree " << c / pes.size() << " P=" << pes[c % pes.size()]
          << " threads=" << threads;
    }
  }
}

TEST(TreeOracle, FullRunsIdenticalAcrossThreadsWorkStack) {
  SKIP_WITHOUT(vec::Isa::kAvx512);
  expect_tree_kernel_runs_match<search::WorkStack<synthetic::Tree::Node>>();
}

TEST(TreeOracle, FullRunsIdenticalAcrossThreadsCompactStack) {
  SKIP_WITHOUT(vec::Isa::kAvx512);
  expect_tree_kernel_runs_match<search::CompactStack<synthetic::Tree>>();
}

}  // namespace
}  // namespace simdts::lb
