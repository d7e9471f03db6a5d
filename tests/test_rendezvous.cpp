// Behavioural tests of the shipped rendezvous and ranked kernels on
// hand-picked flags (tests/lb_oracle.hpp packs each byte list into a plane
// and its summary).
#include "simd/rendezvous.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "lb_oracle.hpp"

namespace simdts::simd {
namespace {

using oracle::packed_ranked;
using oracle::packed_rendezvous;

TEST(Ranked, PlainOrder) {
  const std::vector<std::uint8_t> flags{1, 0, 1, 0, 1};
  const auto r = packed_ranked(flags);
  EXPECT_EQ(r, (std::vector<PeIndex>{0, 2, 4}));
}

TEST(Ranked, RotatedStartsAfterPointer) {
  const std::vector<std::uint8_t> flags{1, 0, 1, 0, 1};
  // Pointer at 2: walk 3, 4, 0, 1, 2 -> set PEs in order 4, 0, 2.
  const auto r = packed_ranked(flags, 2);
  EXPECT_EQ(r, (std::vector<PeIndex>{4, 0, 2}));
}

TEST(Ranked, PointerAtLastWrapsToStart) {
  const std::vector<std::uint8_t> flags{1, 1, 1};
  const auto r = packed_ranked(flags, 2);
  EXPECT_EQ(r, (std::vector<PeIndex>{0, 1, 2}));
}

TEST(Ranked, PointerOnUnsetPe) {
  const std::vector<std::uint8_t> flags{0, 1, 0, 1};
  const auto r = packed_ranked(flags, 1);  // walk 2, 3, 0, 1
  EXPECT_EQ(r, (std::vector<PeIndex>{3, 1}));
}

TEST(Ranked, EmptyFlags) {
  const std::vector<std::uint8_t> flags;
  EXPECT_TRUE(packed_ranked(flags).empty());
}

TEST(Rendezvous, MatchesEqualCounts) {
  const std::vector<std::uint8_t> donors{1, 0, 1, 0};
  const std::vector<std::uint8_t> receivers{0, 1, 0, 1};
  const auto pairs = packed_rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
  EXPECT_EQ(pairs[1], (Pair{2, 3}));
}

TEST(Rendezvous, MoreReceiversThanDonors) {
  // "If I > A then only the first A idle processors are matched."
  const std::vector<std::uint8_t> donors{1, 0, 0, 0};
  const std::vector<std::uint8_t> receivers{0, 1, 1, 1};
  const auto pairs = packed_rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{0, 1}));
}

TEST(Rendezvous, MoreDonorsThanReceivers) {
  const std::vector<std::uint8_t> donors{1, 1, 1, 0};
  const std::vector<std::uint8_t> receivers{0, 0, 0, 1};
  const auto pairs = packed_rendezvous(donors, receivers);
  ASSERT_EQ(pairs.size(), 1u);
  EXPECT_EQ(pairs[0], (Pair{0, 3}));
}

TEST(Rendezvous, NoDonors) {
  const std::vector<std::uint8_t> donors(4, 0);
  const std::vector<std::uint8_t> receivers(4, 1);
  EXPECT_TRUE(packed_rendezvous(donors, receivers).empty());
}

TEST(Rendezvous, DonorsAndReceiversDistinctWithinMatching) {
  const std::vector<std::uint8_t> donors{1, 1, 0, 0, 1, 1};
  const std::vector<std::uint8_t> receivers{0, 0, 1, 1, 0, 0};
  const auto pairs = packed_rendezvous(donors, receivers, 4);
  ASSERT_EQ(pairs.size(), 2u);
  std::vector<bool> donor_seen(6, false);
  std::vector<bool> receiver_seen(6, false);
  for (const auto& p : pairs) {
    EXPECT_TRUE(donors[p.donor]);
    EXPECT_TRUE(receivers[p.receiver]);
    EXPECT_FALSE(donor_seen[p.donor]);
    EXPECT_FALSE(receiver_seen[p.receiver]);
    donor_seen[p.donor] = true;
    receiver_seen[p.receiver] = true;
  }
}

TEST(Rendezvous, RotationChangesDonorsNotReceivers) {
  const std::vector<std::uint8_t> donors{1, 1, 1, 1, 0, 0};
  const std::vector<std::uint8_t> receivers{0, 0, 0, 0, 1, 1};
  const auto plain = packed_rendezvous(donors, receivers);
  ASSERT_EQ(plain.size(), 2u);
  EXPECT_EQ(plain[0], (Pair{0, 4}));
  EXPECT_EQ(plain[1], (Pair{1, 5}));

  const auto rotated = packed_rendezvous(donors, receivers, 1);
  ASSERT_EQ(rotated.size(), 2u);
  EXPECT_EQ(rotated[0], (Pair{2, 4}));
  EXPECT_EQ(rotated[1], (Pair{3, 5}));
}

}  // namespace
}  // namespace simdts::simd
