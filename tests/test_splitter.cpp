#include "search/splitter.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

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
  for (std::size_t i = 0; i < donor.size(); ++i) all.push_back(donor[i]);
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

INSTANTIATE_TEST_SUITE_P(
    StrategiesAndSizes, SplitInvariants,
    ::testing::Combine(::testing::Values(SplitStrategy::kBottomNode,
                                         SplitStrategy::kHalf,
                                         SplitStrategy::kTopNode),
                       ::testing::Values(2u, 3u, 4u, 7u, 16u, 101u)));

TEST(Splitter, BottomNodeTakesShallowest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = donate(donor, SplitStrategy::kBottomNode);
  EXPECT_EQ(donated, (std::vector<int>{0}));
  EXPECT_EQ(donor.bottom(), 1);
}

TEST(Splitter, TopNodeTakesDeepest) {
  WorkStack<int> donor = make_stack(5);
  const auto donated = donate(donor, SplitStrategy::kTopNode);
  EXPECT_EQ(donated, (std::vector<int>{4}));
  EXPECT_EQ(donor.top(), 3);
}

TEST(Splitter, HalfTakesEveryOtherFromBottom) {
  WorkStack<int> donor = make_stack(6);
  const auto donated = donate(donor, SplitStrategy::kHalf);
  EXPECT_EQ(donated, (std::vector<int>{0, 2, 4}));
  EXPECT_EQ(donor.size(), 3u);
  EXPECT_EQ(donor.bottom(), 1);
  EXPECT_EQ(donor.top(), 5);
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
  EXPECT_EQ(receiver.size(), 3u);
  EXPECT_EQ(receiver.bottom(), 100);
  EXPECT_EQ(receiver.pop(), 2);
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
