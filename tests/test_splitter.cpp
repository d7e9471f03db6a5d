#include "search/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "search/compact_stack.hpp"
#include "search/work_stack.hpp"
#include "synthetic/tree.hpp"

namespace simdts::search {
namespace {

WorkStack<int> make_stack(std::size_t n) {
  WorkStack<int> s;
  for (std::size_t i = 0; i < n; ++i) s.push(static_cast<int>(i));
  return s;
}

/// Splits into a fresh buffer: the donated part alone.
std::vector<int> donate(WorkStack<int>& donor, SplitStrategy strategy) {
  std::vector<int> out;
  split(donor, strategy, out);
  return out;
}

/// The stack's nodes bottom to top; leaves it empty.
std::vector<int> drained(WorkStack<int>& s) {
  std::vector<int> out;
  s.drain_into(out);
  return out;
}

using Param = std::tuple<SplitStrategy, std::size_t>;

class SplitInvariants : public ::testing::TestWithParam<Param> {};

TEST_P(SplitInvariants, BothPartsNonEmptyAndUnionPreserved) {
  const auto [strategy, n] = GetParam();
  WorkStack<int> donor = make_stack(n);
  const std::vector<int> donated = donate(donor, strategy);

  EXPECT_FALSE(donated.empty());
  EXPECT_FALSE(donor.empty());
  EXPECT_EQ(donated.size() + donor.size(), n);

  std::vector<int> all(donated);
  donor.drain_into(all);
  std::sort(all.begin(), all.end());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(all[i], static_cast<int>(i));
  }
}

TEST_P(SplitInvariants, DonatedOrderIsBottomToTop) {
  const auto [strategy, n] = GetParam();
  WorkStack<int> donor = make_stack(n);
  const std::vector<int> donated = donate(donor, strategy);
  EXPECT_TRUE(std::is_sorted(donated.begin(), donated.end()));
}

TEST_P(SplitInvariants, AppendsAfterTheCallersContent) {
  const auto [strategy, n] = GetParam();
  WorkStack<int> fresh_donor = make_stack(n);
  const std::vector<int> alone = donate(fresh_donor, strategy);
  WorkStack<int> donor = make_stack(n);
  std::vector<int> buf{-1, -2};
  split(donor, strategy, buf);
  ASSERT_EQ(buf.size(), alone.size() + 2);
  EXPECT_EQ(buf[0], -1);
  EXPECT_EQ(buf[1], -2);
  EXPECT_TRUE(std::equal(alone.begin(), alone.end(), buf.begin() + 2));
}

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSizes, SplitInvariants,
    ::testing::Combine(::testing::Values(SplitStrategy::kBottomNode,
                                         SplitStrategy::kHalf,
                                         SplitStrategy::kTopNode),
                       ::testing::Values(2u, 3u, 4u, 7u, 16u, 101u)));

// ---------------------------------------------------------------------------
// One split for both stacks: every strategy, on a WorkStack and on
// CompactStacks with either codec, against a plain std::vector model.
// ---------------------------------------------------------------------------

/// A stack and the std::vector of its nodes, bottom first, driven through
/// the engine's op mix; every node a stack op returns is checked against
/// the model as it comes.
template <typename Problem, typename Stack>
class Mirror {
 public:
  using Node = typename Problem::Node;

  explicit Mirror(const Problem& problem) : problem_(problem) {
    if constexpr (requires { stack_.bind(problem); }) stack_.bind(problem);
  }

  void push(const Node& n) {
    stack_.push(n);
    model_.push_back(n);
  }

  /// The word step on one lane: pops the top, then writes its children
  /// into top rows and commits them, slot group by slot group.
  Node expand_top() {
    const Node n = stack_.pop();
    EXPECT_EQ(n, model_.back());
    model_.pop_back();
    NextBound next;
    for (std::uint32_t first = 0; first < problem_.child_slots(); first += 4) {
      auto& row = stack_.top_row();
      const std::uint32_t k =
          problem_.expand_row(n, kUnbounded, row, next, first);
      model_.insert(model_.end(), row.begin(), row.begin() + k);
      stack_.commit(k);
    }
    return n;
  }

  void take_bottom() {
    EXPECT_EQ(stack_.take_bottom(), model_.front());
    model_.erase(model_.begin());
  }

  /// Depth-first growth from the root, with a bottom take every fifth
  /// step, then bottom takes down to exactly `n` nodes.
  void grow_to(std::size_t n) {
    for (int step = 0; model_.size() < n; ++step) {
      if (model_.empty()) {
        push(problem_.root());
      } else if (step % 5 == 4 && model_.size() >= 2) {
        take_bottom();
      } else {
        expand_top();
      }
    }
    while (model_.size() > n) take_bottom();
  }

  /// Drains the stack and compares every node with the model.
  void expect_drains_to_model() {
    std::vector<Node> got;
    stack_.drain_into(got);
    EXPECT_EQ(got, model_);
    model_.clear();
  }

  [[nodiscard]] std::size_t size() const { return model_.size(); }
  [[nodiscard]] Stack& stack() { return stack_; }
  [[nodiscard]] std::vector<Node>& model() { return model_; }

 private:
  const Problem& problem_;
  Stack stack_;
  std::vector<Node> model_;
};

/// The model's split: the donated nodes and the kept ones, bottom first.
template <typename Node>
std::pair<std::vector<Node>, std::vector<Node>> model_split(
    const std::vector<Node>& stack, SplitStrategy strategy) {
  std::vector<Node> donated;
  std::vector<Node> kept;
  for (std::size_t i = 0; i < stack.size(); ++i) {
    bool donate_i = false;
    switch (strategy) {
      case SplitStrategy::kBottomNode:
        donate_i = i == 0;
        break;
      case SplitStrategy::kHalf:
        donate_i = i % 2 == 0;
        break;
      case SplitStrategy::kTopNode:
        donate_i = i + 1 == stack.size();
        break;
    }
    (donate_i ? donated : kept).push_back(stack[i]);
  }
  return {donated, kept};
}

/// Splits `donor` after two nodes of caller content, receives the donated
/// nodes onto a stack that already holds the root, then runs both stacks
/// a few more depth-first steps and drains them: every node on either side
/// must be the model's.
template <typename Problem, typename Stack>
void expect_split_matches_model(const Problem& problem,
                                Mirror<Problem, Stack>& donor,
                                SplitStrategy strategy) {
  using Node = typename Problem::Node;
  auto [donated, kept] = model_split(donor.model(), strategy);
  std::vector<Node> out(2, Node{});
  split(donor.stack(), strategy, out);
  std::vector<Node> want(2, Node{});
  want.insert(want.end(), donated.begin(), donated.end());
  ASSERT_EQ(out, want);
  donor.model() = kept;
  ASSERT_EQ(donor.stack().size(), kept.size());

  Mirror<Problem, Stack> receiver(problem);
  receiver.push(problem.root());
  std::vector<Node> buf(out.begin() + 2, out.end());
  receive(receiver.stack(), buf);
  EXPECT_TRUE(buf.empty());
  receiver.model().insert(receiver.model().end(), donated.begin(),
                          donated.end());
  ASSERT_EQ(receiver.stack().size(), receiver.size());

  for (int i = 0; i < 6 && donor.size() != 0; ++i) donor.expand_top();
  for (int i = 0; i < 6 && receiver.size() != 0; ++i) receiver.expand_top();
  donor.expect_drains_to_model();
  receiver.expect_drains_to_model();
}

const synthetic::Tree& four_slot_tree() {
  static const synthetic::Tree tree(synthetic::Params{5, 4, 0.8, 64});
  return tree;
}

/// Six slots: two row groups per pop, so commits interleave in a group.
const synthetic::Tree& six_slot_tree() {
  static const synthetic::Tree tree(synthetic::Params{5, 6, 0.5, 64});
  return tree;
}

const puzzle::FifteenPuzzle& puzzle_problem() {
  static const puzzle::FifteenPuzzle problem(
      puzzle::test_workloads()[1].board());
  return problem;
}

constexpr SplitStrategy kStrategies[] = {
    SplitStrategy::kBottomNode, SplitStrategy::kHalf, SplitStrategy::kTopNode};

template <typename Stack, typename Problem>
void expect_every_strategy_and_size_matches_model(const Problem& problem) {
  for (const SplitStrategy strategy : kStrategies) {
    for (std::size_t n = 2; n <= 40; ++n) {
      SCOPED_TRACE(testing::Message()
                   << to_string(strategy) << " size " << n);
      Mirror<Problem, Stack> donor(problem);
      donor.grow_to(n);
      ASSERT_EQ(donor.stack().size(), n);
      expect_split_matches_model(problem, donor, strategy);
    }
  }
}

enum class StackKind {
  kWorkStack,
  kCompactUndo,    ///< backtracking walks the cached node up the path
  kCompactReplay,  ///< backtracking replays the path from the base
};

class SplitModel : public ::testing::TestWithParam<StackKind> {};

TEST_P(SplitModel, MatchesVectorModelForEveryStrategyAndSize) {
  switch (GetParam()) {
    case StackKind::kWorkStack:
      expect_every_strategy_and_size_matches_model<
          WorkStack<synthetic::Tree::Node>>(four_slot_tree());
      break;
    case StackKind::kCompactUndo:
      expect_every_strategy_and_size_matches_model<
          CompactStack<puzzle::FifteenPuzzle>>(puzzle_problem());
      break;
    case StackKind::kCompactReplay:
      expect_every_strategy_and_size_matches_model<
          CompactStack<synthetic::Tree>>(six_slot_tree());
      break;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Stacks, SplitModel,
    ::testing::Values(StackKind::kWorkStack, StackKind::kCompactUndo,
                      StackKind::kCompactReplay),
    [](const ::testing::TestParamInfo<StackKind>& info) -> std::string {
      switch (info.param) {
        case StackKind::kWorkStack:
          return "WorkStack";
        case StackKind::kCompactUndo:
          return "CompactUndo";
        case StackKind::kCompactReplay:
          return "CompactReplay";
      }
      return "?";
    });

TEST(SplitModelDeep, CompactStackPastTheSegmentSplit) {
  // A descent past level 255 splits the stack into two segments; every
  // strategy must take nodes out of both the way the model does.
  const synthetic::Tree tree(synthetic::Params{77, 12, 0.3, 600});
  for (const SplitStrategy strategy : kStrategies) {
    SCOPED_TRACE(to_string(strategy));
    Mirror<synthetic::Tree, CompactStack<synthetic::Tree>> donor(tree);
    donor.push(tree.root());
    std::uint16_t depth = 0;
    for (int step = 0; step < 20000 && depth < 300; ++step) {
      if (donor.size() == 0) {
        donor.push(tree.root());
      } else if (step % 10 == 9 && donor.size() >= 2) {
        donor.take_bottom();
      } else {
        depth = donor.expand_top().depth;
      }
    }
    ASSERT_GE(depth, 300);
    ASSERT_GE(donor.size(), 2u);
    expect_split_matches_model(tree, donor, strategy);
  }
}

// ---------------------------------------------------------------------------
// Spot checks of each strategy on a small WorkStack.
// ---------------------------------------------------------------------------

TEST(Splitter, BottomNodeTakesShallowest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = donate(donor, SplitStrategy::kBottomNode);
  EXPECT_EQ(donated, (std::vector<int>{0}));
  EXPECT_EQ(donor.take_bottom(), 1);
}

TEST(Splitter, TopNodeTakesDeepest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = donate(donor, SplitStrategy::kTopNode);
  EXPECT_EQ(donated, (std::vector<int>{4}));
  EXPECT_EQ(donor.pop(), 3);
}

TEST(Splitter, HalfTakesEveryOtherFromBottom) {
  WorkStack<int> donor = make_stack(6);
  const auto donated = donate(donor, SplitStrategy::kHalf);
  EXPECT_EQ(donated, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(drained(donor), (std::vector<int>{1, 3, 5}));
}

TEST(Splitter, HalfOnOddSizeDonatesCeilHalf) {
  WorkStack<int> donor = make_stack(7);
  const auto donated = donate(donor, SplitStrategy::kHalf);
  EXPECT_EQ(donated.size(), 4u);
  EXPECT_EQ(donor.size(), 3u);
}

TEST(Splitter, HalfAlphaIsBalanced) {
  // The alpha of the half split must stay near 0.5 across stack sizes.
  for (std::size_t n : {2u, 5u, 9u, 33u, 1000u}) {
    WorkStack<int> donor = make_stack(n);
    const auto donated = donate(donor, SplitStrategy::kHalf);
    const double alpha =
        static_cast<double>(donated.size()) / static_cast<double>(n);
    EXPECT_GE(alpha, 0.45) << n;
    EXPECT_LE(alpha, 0.75) << n;
  }
}

TEST(Splitter, ReceivePreservesDepthOrder) {
  WorkStack<int> donor = make_stack(6);
  WorkStack<int> receiver;
  std::vector<int> buf;
  split(donor, SplitStrategy::kHalf, buf);
  receive(receiver, buf);
  EXPECT_TRUE(buf.empty());
  // Received 0, 2, 4 bottom-to-top: popping gives deepest first.
  EXPECT_EQ(receiver.pop(), 4);
  EXPECT_EQ(receiver.pop(), 2);
  EXPECT_EQ(receiver.pop(), 0);
}

TEST(Splitter, ReceiveAppendsAboveExistingWork) {
  WorkStack<int> receiver;
  receiver.push(100);
  std::vector<int> donated{1, 2};
  receive(receiver, donated);
  EXPECT_TRUE(donated.empty());
  EXPECT_EQ(drained(receiver), (std::vector<int>{100, 1, 2}));
}

TEST(Splitter, ReusedBufferKeepsItsCapacityAcrossTransfers) {
  std::vector<int> buf;
  WorkStack<int> receiver;
  for (int round = 0; round < 3; ++round) {
    WorkStack<int> donor = make_stack(9);
    split(donor, SplitStrategy::kHalf, buf);
    const std::size_t cap = buf.capacity();
    receive(receiver, buf);
    EXPECT_TRUE(buf.empty());
    EXPECT_EQ(buf.capacity(), cap);
  }
  EXPECT_EQ(receiver.size(), 15u);
}

TEST(Splitter, StrategyNames) {
  EXPECT_STREQ(to_string(SplitStrategy::kBottomNode), "bottom-node");
  EXPECT_STREQ(to_string(SplitStrategy::kHalf), "half");
  EXPECT_STREQ(to_string(SplitStrategy::kTopNode), "top-node");
}

}  // namespace
}  // namespace simdts::search
