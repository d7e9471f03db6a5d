// CompactStack: memory-bounded delta stacks must be observationally
// identical to WorkStack under the engine's access discipline.
//
// The contract under test: the problem delta codecs are bit-exact inverses
// of expand(); a CompactStack driven through the engine's op mix (pop,
// batched append of the popped node's children, push/take_bottom in serial
// phases, drain, split/receive) pops exactly the nodes a WorkStack pops;
// an engine templated on CompactStack produces bit-identical runs to the
// WorkStack engine; and the representation actually is at least 4x smaller
// per lane on the 15-puzzle — the mega-P memory claim.
#include "search/compact_stack.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/sweep.hpp"
#include "search/work_stack.hpp"
#include "synthetic/tree.hpp"

namespace simdts::search {
namespace {

using puzzle::FifteenPuzzle;
using synthetic::Tree;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Delta codecs: decode must replay expand() bit-exactly, undo must invert.
// ---------------------------------------------------------------------------

TEST(DeltaCodec, FifteenDecodeAndUndoAreExactInverses) {
  const auto& wl = puzzle::test_workloads()[1];  // t-4k
  const FifteenPuzzle problem(wl.board());
  std::uint64_t seed = 7;
  FifteenPuzzle::Node n = problem.root();
  std::vector<FifteenPuzzle::Node> kids;
  search::NextBound nb;
  for (int depth = 0; depth < 60; ++depth) {
    kids.clear();
    problem.expand(n, search::kUnbounded, kids, nb);
    if (kids.empty()) break;
    for (const auto& c : kids) {
      const std::uint8_t d = problem.encode_delta(n, c);
      EXPECT_EQ(problem.decode_delta(n, d), c);
      EXPECT_EQ(problem.undo_delta(c, d, n.last), n);
    }
    n = kids[splitmix(seed) % kids.size()];
  }
}

TEST(DeltaCodec, FifteenLinearConflictHeuristicRoundTrips) {
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board(), puzzle::Heuristic::kLinearConflict);
  FifteenPuzzle::Node n = problem.root();
  std::vector<FifteenPuzzle::Node> kids;
  search::NextBound nb;
  std::uint64_t seed = 11;
  for (int depth = 0; depth < 20; ++depth) {
    kids.clear();
    problem.expand(n, search::kUnbounded, kids, nb);
    if (kids.empty()) break;
    for (const auto& c : kids) {
      const std::uint8_t d = problem.encode_delta(n, c);
      EXPECT_EQ(problem.decode_delta(n, d), c);
      EXPECT_EQ(problem.undo_delta(c, d, n.last), n);
    }
    n = kids[splitmix(seed) % kids.size()];
  }
}

TEST(DeltaCodec, SyntheticDecodeReplaysExpand) {
  const Tree tree(synthetic::Params{42, 4, 0.9, 12});
  Tree::Node n = tree.root();
  std::vector<Tree::Node> kids;
  search::NextBound nb;
  std::uint64_t seed = 3;
  for (int depth = 0; depth < 12; ++depth) {
    kids.clear();
    tree.expand(n, search::kUnbounded, kids, nb);
    if (kids.empty()) break;
    for (const auto& c : kids) {
      const std::uint8_t d = tree.encode_delta(n, c);
      EXPECT_EQ(tree.decode_delta(n, d), c);
    }
    n = kids[splitmix(seed) % kids.size()];
  }
}

// ---------------------------------------------------------------------------
// Stack-level oracle: drive both representations through the engine's op
// mix and demand identical observable behaviour at every step.
// ---------------------------------------------------------------------------

class StackPair {
 public:
  explicit StackPair(const FifteenPuzzle& problem) : problem_(problem) {
    compact_.bind(problem);
  }

  void push(const FifteenPuzzle::Node& n) {
    full_.push(n);
    compact_.push(n);
    check();
  }

  /// The expand cycle's pop -> expand -> append step.  Returns the popped
  /// node (already verified equal across representations).
  FifteenPuzzle::Node pop_and_expand(search::Bound bound) {
    const FifteenPuzzle::Node a = full_.pop();
    const FifteenPuzzle::Node b = compact_.pop();
    EXPECT_EQ(a, b);
    kids_.clear();
    search::NextBound nb;
    problem_.expand(a, bound, kids_, nb);
    if (!kids_.empty()) {
      // append() consumes its source, so feed each stack its own copy.
      std::vector<FifteenPuzzle::Node> copy = kids_;
      full_.append(copy.data(), copy.size());
      compact_.append(kids_.data(), kids_.size());
    }
    check();
    return a;
  }

  void take_bottom() {
    EXPECT_EQ(full_.take_bottom(), compact_.take_bottom());
    check();
  }

  void drain_check_and_restore() {
    std::vector<FifteenPuzzle::Node> a;
    std::vector<FifteenPuzzle::Node> b;
    full_.drain_into(a);
    compact_.drain_into(b);
    EXPECT_EQ(a, b);
    for (const auto& n : a) push(n);
  }

  void split_both(SplitStrategy strategy) {
    std::vector<FifteenPuzzle::Node> a;
    std::vector<FifteenPuzzle::Node> b;
    split(full_, strategy, a);
    split(compact_, strategy, b);
    EXPECT_EQ(a, b);
    check();
  }

  [[nodiscard]] std::size_t size() const { return full_.size(); }
  [[nodiscard]] WorkStack<FifteenPuzzle::Node>& full() { return full_; }
  [[nodiscard]] CompactStack<FifteenPuzzle>& compact() { return compact_; }

 private:
  void check() const {
    EXPECT_EQ(full_.size(), compact_.size());
    EXPECT_EQ(full_.empty(), compact_.empty());
    EXPECT_EQ(full_.splittable(), compact_.splittable());
  }

  const FifteenPuzzle& problem_;
  WorkStack<FifteenPuzzle::Node> full_;
  CompactStack<FifteenPuzzle> compact_;
  std::vector<FifteenPuzzle::Node> kids_;
};

TEST(CompactStack, MirrorsWorkStackUnderRandomEngineOpMix) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  StackPair pair(problem);
  pair.push(problem.root());
  const search::Bound bound = problem.f_value(problem.root()) + 8;
  std::uint64_t seed = 12345;
  for (int step = 0; step < 4000; ++step) {
    if (pair.size() == 0) {
      pair.push(problem.root());
      continue;
    }
    const std::uint64_t r = splitmix(seed) % 100;
    if (r < 70) {
      pair.pop_and_expand(bound);
    } else if (r < 85) {
      pair.take_bottom();
    } else if (r < 90 && pair.size() >= 2) {
      pair.split_both(SplitStrategy::kBottomNode);
    } else if (r < 94 && pair.size() >= 2) {
      pair.split_both(SplitStrategy::kTopNode);
    } else if (r < 97 && pair.size() >= 2) {
      pair.split_both(SplitStrategy::kHalf);
    } else {
      pair.drain_check_and_restore();
    }
  }
}

TEST(CompactStack, SplitAndReceiveMatchWorkStackForEveryStrategy) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  const search::Bound bound = problem.f_value(problem.root()) + 10;
  for (const SplitStrategy strategy :
       {SplitStrategy::kBottomNode, SplitStrategy::kHalf,
        SplitStrategy::kTopNode}) {
    StackPair donor(problem);
    donor.push(problem.root());
    for (int i = 0; i < 6 && donor.size() > 0; ++i) {
      donor.pop_and_expand(bound);
    }
    ASSERT_GE(donor.size(), 2u);

    std::vector<FifteenPuzzle::Node> donated_full;
    std::vector<FifteenPuzzle::Node> donated_compact;
    split(donor.full(), strategy, donated_full);
    split(donor.compact(), strategy, donated_compact);
    EXPECT_EQ(donated_full, donated_compact);
    EXPECT_FALSE(donor.full().empty());

    StackPair rec(problem);
    receive(rec.full(), donated_full);
    receive(rec.compact(), donated_compact);
    EXPECT_TRUE(donated_full.empty());
    EXPECT_TRUE(donated_compact.empty());
    std::vector<FifteenPuzzle::Node> a;
    std::vector<FifteenPuzzle::Node> b;
    rec.full().drain_into(a);
    rec.compact().drain_into(b);
    EXPECT_EQ(a, b);
    // The donor must still pop identically after the split.
    while (donor.size() > 0) {
      donor.pop_and_expand(0);  // bound 0: pure pop, no children survive
    }
  }
}

TEST(CompactStack, ClearReleasesEverythingAndHeaderStaysSmall) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  CompactStack<FifteenPuzzle> s;
  s.bind(problem);
  EXPECT_EQ(s.memory_bytes(), 0u);
  s.push(problem.root());
  EXPECT_GT(s.memory_bytes(), 0u);
  s.clear();
  EXPECT_EQ(s.memory_bytes(), 0u);
  EXPECT_TRUE(s.empty());
  // The whole representation hides behind one pointer: an idle lane pays a
  // pointer + size + problem pointer, nothing more.
  EXPECT_LE(sizeof(CompactStack<FifteenPuzzle>), 24u);
}

TEST(CompactStack, ShrinkToFitReleasesOnlyWhenEmpty) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  CompactStack<FifteenPuzzle> s;
  s.bind(problem);
  s.push(problem.root());
  s.shrink_to_fit();
  EXPECT_EQ(s.size(), 1u);
  EXPECT_GT(s.memory_bytes(), 0u);
  (void)s.pop();
  s.shrink_to_fit();
  EXPECT_EQ(s.memory_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// The memory claim, both mechanisms (the bench's bytes_per_lane figure
// time-averages these over a real mega-P engine run):
//  - at equal content a deep stack costs ~3 bytes/entry + path instead of
//    16 bytes/entry, and
//  - a drained lane releases its heap entirely, while WorkStack's ring
//    retains peak capacity for the rest of the run.
// ---------------------------------------------------------------------------

TEST(CompactStack, DeepDfsLifecycleMemory) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());

  WorkStack<FifteenPuzzle::Node> full;
  CompactStack<FifteenPuzzle> compact;
  compact.bind(problem);
  full.push(problem.root());
  compact.push(problem.root());
  std::vector<FifteenPuzzle::Node> kids;
  std::size_t peak_full = 0;
  std::size_t peak_compact = 0;
  search::NextBound nb;
  // Unbounded descent: the worst-case stack growth memory-bounded stacks
  // exist for (stack depth is what P multiplies at mega-P).
  for (int step = 0; step < 8000; ++step) {
    const FifteenPuzzle::Node a = full.pop();
    const FifteenPuzzle::Node b = compact.pop();
    ASSERT_EQ(a, b);
    kids.clear();
    problem.expand(a, search::kUnbounded, kids, nb);
    std::vector<FifteenPuzzle::Node> copy = kids;
    full.append(copy.data(), copy.size());
    compact.append(kids.data(), kids.size());
    peak_full = std::max(peak_full, full.memory_bytes());
    peak_compact = std::max(peak_compact, compact.memory_bytes());
  }
  ASSERT_GT(peak_compact, 0u);
  // 16 bytes/entry vs 2 bytes/entry + 1 path byte/level + one full Node per
  // 255 levels (the depth-bound segment split).  Measures ~6x; gate at the
  // 4x the mega_p benchmark section claims, leaving room for allocator
  // rounding on either side.
  EXPECT_GE(peak_full, 4 * peak_compact)
      << "full=" << peak_full << " compact=" << peak_compact;

  // Drain both stacks through the engine's pop discipline, then apply the
  // expand cycle's idle-lane hook: the compact lane returns every heap byte;
  // the ring deliberately retains its peak capacity.
  while (!full.empty()) {
    ASSERT_EQ(full.pop(), compact.pop());
  }
  compact.release_if_drained();
  EXPECT_EQ(compact.memory_bytes(), 0u);
  EXPECT_EQ(full.memory_bytes(), peak_full);
  EXPECT_GE(full.memory_bytes(), 4 * (compact.memory_bytes() + 1));
}

// The time-averaged figure P multiplies at mega-P: one lane driven through
// the engine's op discipline down the t-4k instance's 4000-step unbounded
// descent and then drained, heap bytes sampled after every operation.  Every
// sample is a pure count, so the 4x claim is gated exactly: summed WorkStack
// bytes >= 4 * summed CompactStack bytes over the same samples.
TEST(CompactStack, TimeAveragedBytesPerLaneOverT4kDescentAndDrain) {
  const auto& wl = puzzle::test_workloads()[1];
  ASSERT_STREQ(wl.name, "t-4k");
  const FifteenPuzzle problem(wl.board());

  WorkStack<FifteenPuzzle::Node> full;
  CompactStack<FifteenPuzzle> compact;
  compact.bind(problem);
  full.push(problem.root());
  compact.push(problem.root());
  std::vector<FifteenPuzzle::Node> kids;
  search::NextBound nb;
  std::uint64_t sum_full = 0;
  std::uint64_t sum_compact = 0;
  std::uint64_t samples = 0;
  const auto sample = [&] {
    sum_full += full.memory_bytes();
    sum_compact += compact.memory_bytes();
    ++samples;
  };
  for (int step = 0; step < 4000; ++step) {
    const FifteenPuzzle::Node a = full.pop();
    ASSERT_EQ(a, compact.pop()) << "descent step " << step;
    kids.clear();
    problem.expand(a, search::kUnbounded, kids, nb);
    std::vector<FifteenPuzzle::Node> copy = kids;
    full.append(copy.data(), copy.size());
    compact.append(kids.data(), kids.size());
    sample();
  }
  while (!full.empty()) {
    ASSERT_EQ(full.pop(), compact.pop());
    compact.release_if_drained();
    sample();
  }
  ASSERT_GT(sum_compact, 0u);
  EXPECT_GE(sum_full, 4 * sum_compact)
      << "time-averaged bytes/lane: WorkStack "
      << static_cast<double>(sum_full) / static_cast<double>(samples)
      << " vs CompactStack "
      << static_cast<double>(sum_compact) / static_cast<double>(samples);
}

// ---------------------------------------------------------------------------
// Engine equivalence: an Engine on CompactStack is bit-identical to the
// WorkStack engine — stats, goal order, simulated clock.
// ---------------------------------------------------------------------------

template <typename ProblemT>
void expect_equal_runs(const ProblemT& problem, lb::SchemeConfig cfg,
                       std::uint32_t p) {
  simd::Machine m_full(p, simd::cm2_cost_model());
  simd::Machine m_compact(p, simd::cm2_cost_model());
  lb::Engine<ProblemT> full(problem, m_full, cfg);
  lb::CompactEngine<ProblemT> compact(problem, m_compact, cfg);
  const lb::RunStats a = full.run();
  const lb::RunStats b = compact.run();
  EXPECT_EQ(a.total.nodes_expanded, b.total.nodes_expanded) << cfg.name();
  EXPECT_EQ(a.total.expand_cycles, b.total.expand_cycles) << cfg.name();
  EXPECT_EQ(a.total.lb_phases, b.total.lb_phases) << cfg.name();
  EXPECT_EQ(a.total.transfers, b.total.transfers) << cfg.name();
  EXPECT_EQ(a.solution_bound, b.solution_bound) << cfg.name();
  EXPECT_EQ(a.goals_found, b.goals_found) << cfg.name();
  EXPECT_EQ(full.goal_nodes(), compact.goal_nodes()) << cfg.name();
  EXPECT_DOUBLE_EQ(m_full.clock().elapsed, m_compact.clock().elapsed)
      << cfg.name();
}

TEST(CompactEngine, BitIdenticalToWorkStackEngineOnPuzzle) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  expect_equal_runs(problem, lb::gp_static(0.9), 64);
  expect_equal_runs(problem, lb::ngp_dp(), 64);
  expect_equal_runs(problem, lb::gp_dk(), 37);  // non-power-of-two P
}

TEST(CompactEngine, BitIdenticalAcrossSplitStrategiesAndBaselines) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  lb::SchemeConfig half = lb::gp_static(0.75);
  half.split = SplitStrategy::kHalf;
  expect_equal_runs(problem, half, 64);
  lb::SchemeConfig top = lb::gp_static(0.75);
  top.split = SplitStrategy::kTopNode;
  expect_equal_runs(problem, top, 64);
  // Frye-style baselines: give-one transfers and ring neighbour matching.
  lb::SchemeConfig fess;
  fess.match = lb::MatchScheme::kNGP;
  fess.trigger = lb::TriggerKind::kAnyIdle;
  fess.transfer = lb::TransferPolicy::kGiveOneNodeEach;
  fess.max_pairs_per_round = 1;
  expect_equal_runs(problem, fess, 32);
  lb::SchemeConfig ring;
  ring.match = lb::MatchScheme::kNeighbor;
  ring.trigger = lb::TriggerKind::kEveryCycle;
  ring.transfer = lb::TransferPolicy::kGiveOneNodeEach;
  expect_equal_runs(problem, ring, 32);
}

TEST(CompactEngine, BitIdenticalOnSyntheticTree) {
  const Tree tree(synthetic::Params{42, 4, 0.6, 12});
  simd::Machine m_full(64, simd::cm2_cost_model());
  simd::Machine m_compact(64, simd::cm2_cost_model());
  lb::Engine<Tree> full(tree, m_full, lb::gp_static(0.9));
  lb::CompactEngine<Tree> compact(tree, m_compact, lb::gp_static(0.9));
  const lb::IterationStats a = full.run_iteration(search::kUnbounded);
  const lb::IterationStats b = compact.run_iteration(search::kUnbounded);
  EXPECT_EQ(a.nodes_expanded, b.nodes_expanded);
  EXPECT_EQ(a.expand_cycles, b.expand_cycles);
  EXPECT_EQ(a.lb_phases, b.lb_phases);
  EXPECT_EQ(a.transfers, b.transfers);
  EXPECT_DOUBLE_EQ(m_full.clock().elapsed, m_compact.clock().elapsed);
}

TEST(CompactEngine, BitIdenticalUnderFaultsAndThreads) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  const fault::FaultPlan plan = fault::FaultPlan::random_kills(9, 64, 4, 5, 60);

  simd::Machine m_full(64, simd::cm2_cost_model());
  lb::Engine<FifteenPuzzle> full(problem, m_full, lb::gp_static(0.9));
  full.arm_faults(&plan);
  const lb::RunStats a = full.run();

  // The compact runs go through the sweep runner, several side by side.
  struct CompactRun {
    lb::RunStats stats;
    std::vector<FifteenPuzzle::Node> goals;
    double elapsed = 0.0;
  };
  auto compact_run = [&](std::size_t) {
    simd::Machine m_compact(64, simd::cm2_cost_model());
    lb::CompactEngine<FifteenPuzzle> compact(problem, m_compact,
                                             lb::gp_static(0.9));
    compact.arm_faults(&plan);
    lb::RunStats stats = compact.run();
    return CompactRun{std::move(stats), compact.goal_nodes(),
                      m_compact.clock().elapsed};
  };
  for (const unsigned threads : {1u, 4u}) {
    for (const CompactRun& b :
         runtime::sweep_map<CompactRun>(3, compact_run, threads)) {
      EXPECT_EQ(a.total.nodes_expanded, b.stats.total.nodes_expanded);
      EXPECT_EQ(a.total.expand_cycles, b.stats.total.expand_cycles);
      EXPECT_EQ(a.total.recovery_phases, b.stats.total.recovery_phases);
      EXPECT_EQ(a.total.nodes_recovered, b.stats.total.nodes_recovered);
      EXPECT_EQ(a.goals_found, b.stats.goals_found);
      EXPECT_EQ(full.goal_nodes(), b.goals);
      EXPECT_DOUBLE_EQ(m_full.clock().elapsed, b.elapsed);
      EXPECT_EQ(a, b.stats) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace simdts::search
