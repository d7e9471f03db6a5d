// Behavioural tests of the shipped GP/nGP matcher and ring pairing on
// hand-picked flags, the paper's Figure 2 example among them
// (tests/lb_oracle.hpp packs each byte list into a plane and its summary).
#include "lb/matching.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "lb_oracle.hpp"

namespace simdts::lb {
namespace {

using simd::kNoPe;
using simd::Pair;

using oracle::packed_match;
using oracle::packed_neighbor_pairs;

// Flag helpers: PEs listed are set.
std::vector<std::uint8_t> flags(std::size_t p,
                                std::initializer_list<std::size_t> set) {
  std::vector<std::uint8_t> f(p, 0);
  for (const std::size_t i : set) f[i] = 1;
  return f;
}

TEST(Matching, NgpMatchesInPeOrder) {
  Matcher m(MatchScheme::kNGP);
  const auto busy = flags(8, {0, 1, 2, 3, 4, 7});
  const auto idle = flags(8, {5, 6});
  const auto pairs = packed_match(m, busy, idle);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (Pair{0, 5}));
  EXPECT_EQ(pairs[1], (Pair{1, 6}));
  EXPECT_EQ(m.pointer(), kNoPe);  // nGP keeps no pointer
}

TEST(Matching, NgpRepeatsSameDonors) {
  // The motivating flaw: the same early processors donate every phase.
  Matcher m(MatchScheme::kNGP);
  const auto busy = flags(8, {0, 1, 2, 3, 4, 7});
  const auto idle = flags(8, {5, 6});
  const auto first = packed_match(m, busy, idle);
  const auto second = packed_match(m, busy, idle);
  EXPECT_EQ(first, second);
}

TEST(Matching, PaperFigure2Example) {
  // Figure 2 of the paper, 0-indexed: processors 0..7, PEs 5 and 6 idle,
  // the rest busy, global pointer at PE 4.
  Matcher gp(MatchScheme::kGP);
  Matcher ngp(MatchScheme::kNGP);
  const auto busy = flags(8, {0, 1, 2, 3, 4, 7});
  const auto idle = flags(8, {5, 6});

  // nGP matches idle 5, 6 to busy 0, 1.
  const auto ngp_pairs = packed_match(ngp, busy, idle);
  ASSERT_EQ(ngp_pairs.size(), 2u);
  EXPECT_EQ(ngp_pairs[0], (Pair{0, 5}));
  EXPECT_EQ(ngp_pairs[1], (Pair{1, 6}));

  // GP with pointer at 4 matches them to busy 7 and 0 and advances the
  // pointer to 0.
  // (Seed the pointer by faking a previous phase where PE 4 donated last:
  //  busy = {4}, idle = {5}.)
  const auto seed = packed_match(gp, flags(8, {4}), flags(8, {5}));
  ASSERT_EQ(seed.size(), 1u);
  EXPECT_EQ(gp.pointer(), 4u);

  const auto gp_pairs = packed_match(gp, busy, idle);
  ASSERT_EQ(gp_pairs.size(), 2u);
  EXPECT_EQ(gp_pairs[0], (Pair{7, 5}));
  EXPECT_EQ(gp_pairs[1], (Pair{0, 6}));
  EXPECT_EQ(gp.pointer(), 0u);

  // Example 2 (second phase, same census): nGP repeats itself; GP moves on
  // to busy 1 and 2.
  const auto ngp_again = packed_match(ngp, busy, idle);
  EXPECT_EQ(ngp_again, ngp_pairs);
  const auto gp_again = packed_match(gp, busy, idle);
  ASSERT_EQ(gp_again.size(), 2u);
  EXPECT_EQ(gp_again[0], (Pair{1, 5}));
  EXPECT_EQ(gp_again[1], (Pair{2, 6}));
  EXPECT_EQ(gp.pointer(), 2u);
}

TEST(Matching, GpCyclesThroughAllDonorsBeforeRepeating) {
  Matcher gp(MatchScheme::kGP);
  const std::size_t p = 6;
  const auto busy = flags(p, {0, 1, 2, 3, 4});
  const auto idle = flags(p, {5});
  std::vector<simd::PeIndex> donors;
  for (int phase = 0; phase < 5; ++phase) {
    const auto pairs = packed_match(gp, busy, idle);
    ASSERT_EQ(pairs.size(), 1u);
    donors.push_back(pairs[0].donor);
  }
  // Each of the five busy PEs donated exactly once.
  std::sort(donors.begin(), donors.end());
  EXPECT_EQ(donors, (std::vector<simd::PeIndex>{0, 1, 2, 3, 4}));
  // The sixth phase starts the cycle again.
  const auto pairs = packed_match(gp, busy, idle);
  ASSERT_EQ(pairs.size(), 1u);
}

TEST(Matching, GpPointerUnchangedWhenNoPairs) {
  Matcher gp(MatchScheme::kGP);
  (void)packed_match(gp, flags(4, {1}), flags(4, {2}));
  EXPECT_EQ(gp.pointer(), 1u);
  (void)packed_match(gp, flags(4, {}), flags(4, {2}));
  EXPECT_EQ(gp.pointer(), 1u);
  (void)packed_match(gp, flags(4, {3}), flags(4, {}));
  EXPECT_EQ(gp.pointer(), 1u);
}

TEST(Matching, ResetClearsPointer) {
  Matcher gp(MatchScheme::kGP);
  (void)packed_match(gp, flags(4, {1}), flags(4, {2}));
  gp.reset();
  EXPECT_EQ(gp.pointer(), kNoPe);
}

TEST(Matching, MoreIdleThanBusyServesOnlyFirstIdle) {
  Matcher m(MatchScheme::kNGP);
  const auto pairs = packed_match(m, flags(6, {3}), flags(6, {0, 1, 2, 4, 5}));
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{3, 0}));
}

TEST(NeighborPairs, RingTransfersToRightNeighbor) {
  const auto busy = flags(5, {0, 2, 3});
  const auto idle = flags(5, {1, 4});
  const auto pairs = packed_neighbor_pairs(busy, idle);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
  EXPECT_EQ(pairs[1], (Pair{3, 4}));
}

TEST(NeighborPairs, WrapsAroundTheRing) {
  const auto busy = flags(4, {3});
  const auto idle = flags(4, {0});
  const auto pairs = packed_neighbor_pairs(busy, idle);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{3, 0}));
}

TEST(NeighborPairs, NoTransferBetweenBusyNeighbors) {
  const auto busy = flags(4, {0, 1, 2, 3});
  const auto idle = flags(4, {});
  EXPECT_TRUE(packed_neighbor_pairs(busy, idle).empty());
}

}  // namespace
}  // namespace simdts::lb
