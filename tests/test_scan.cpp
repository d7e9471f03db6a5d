#include "simd/scan.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <random>
#include <vector>

namespace simdts::simd {
namespace {

std::vector<std::uint32_t> random_values(std::size_t n, std::uint32_t seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::uint32_t> dist(0, 1000);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(Scan, InclusiveEmpty) {
  std::vector<std::uint32_t> in;
  std::vector<std::uint32_t> out;
  inclusive_scan<std::uint32_t>(in, out);
  EXPECT_TRUE(out.empty());
}

TEST(Scan, InclusiveSingle) {
  std::vector<std::uint32_t> in{7};
  std::vector<std::uint32_t> out(1);
  inclusive_scan<std::uint32_t>(in, out);
  EXPECT_EQ(out[0], 7u);
}

TEST(Scan, InclusiveBasic) {
  std::vector<std::uint32_t> in{1, 2, 3, 4};
  std::vector<std::uint32_t> out(4);
  inclusive_scan<std::uint32_t>(in, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 3, 6, 10}));
}

TEST(Scan, ExclusiveBasic) {
  std::vector<std::uint32_t> in{1, 2, 3, 4};
  std::vector<std::uint32_t> out(4);
  exclusive_scan<std::uint32_t>(in, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{0, 1, 3, 6}));
}

TEST(Scan, InclusiveAliased) {
  std::vector<std::uint32_t> v{5, 5, 5};
  inclusive_scan<std::uint32_t>(v, v);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{5, 10, 15}));
}

TEST(Scan, ExclusiveAliased) {
  std::vector<std::uint32_t> v{5, 5, 5};
  exclusive_scan<std::uint32_t>(v, v);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{0, 5, 10}));
}

TEST(Scan, ReduceMatchesAccumulate) {
  const auto v = random_values(1000, 1);
  EXPECT_EQ(reduce<std::uint32_t>(v),
            std::accumulate(v.begin(), v.end(), 0u));
}

TEST(Scan, InclusiveLastElementEqualsReduce) {
  const auto v = random_values(257, 2);
  std::vector<std::uint32_t> out(v.size());
  inclusive_scan<std::uint32_t>(v, out);
  EXPECT_EQ(out.back(), reduce<std::uint32_t>(v));
}

class ScanSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ScanSizes, ExclusiveConsistentWithInclusive) {
  const std::size_t n = GetParam();
  if (n == 0) return;
  const auto v = random_values(n, static_cast<std::uint32_t>(n) + 99);
  std::vector<std::uint32_t> inc(n);
  std::vector<std::uint32_t> exc(n);
  inclusive_scan<std::uint32_t>(v, inc);
  exclusive_scan<std::uint32_t>(v, exc);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(exc[i] + v[i], inc[i]) << "index " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ScanSizes,
                         ::testing::Values(0, 1, 2, 3, 17, 256, 1023, 4096,
                                           1 << 14, (1 << 15) + 13, 100000));

TEST(Enumerate, AssignsDenseRanksToSetFlags) {
  const std::vector<std::uint8_t> flags{1, 0, 1, 1, 0, 1};
  std::vector<std::uint32_t> ranks(flags.size(), 999);
  const std::uint32_t n = enumerate(flags, ranks);
  EXPECT_EQ(n, 4u);
  EXPECT_EQ(ranks[0], 0u);
  EXPECT_EQ(ranks[2], 1u);
  EXPECT_EQ(ranks[3], 2u);
  EXPECT_EQ(ranks[5], 3u);
  // Unset positions untouched.
  EXPECT_EQ(ranks[1], 999u);
  EXPECT_EQ(ranks[4], 999u);
}

TEST(Enumerate, AllClear) {
  const std::vector<std::uint8_t> flags(16, 0);
  std::vector<std::uint32_t> ranks(flags.size());
  EXPECT_EQ(enumerate(flags, ranks), 0u);
}

TEST(Enumerate, AllSet) {
  const std::vector<std::uint8_t> flags(16, 1);
  std::vector<std::uint32_t> ranks(flags.size());
  EXPECT_EQ(enumerate(flags, ranks), 16u);
  for (std::size_t i = 0; i < flags.size(); ++i) {
    EXPECT_EQ(ranks[i], i);
  }
}

TEST(CountSet, CountsNonzero) {
  const std::vector<std::uint8_t> flags{0, 1, 2, 0, 255, 1};
  EXPECT_EQ(count_set(flags), 4u);
}


TEST(MaxScan, RunningMaximum) {
  const std::vector<std::uint32_t> in{3, 1, 4, 1, 5, 9, 2, 6};
  std::vector<std::uint32_t> out(in.size());
  max_scan<std::uint32_t>(in, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{3, 3, 4, 4, 5, 9, 9, 9}));
}

TEST(MaxScan, EmptyAndAliased) {
  std::vector<std::uint32_t> v;
  max_scan<std::uint32_t>(v, v);
  v = {2, 7, 1};
  max_scan<std::uint32_t>(v, v);
  EXPECT_EQ(v, (std::vector<std::uint32_t>{2, 7, 7}));
}

TEST(MinScan, RunningMinimum) {
  const std::vector<std::int32_t> in{5, 7, 3, 8, 2, 9};
  std::vector<std::int32_t> out(in.size());
  min_scan<std::int32_t>(in, out);
  EXPECT_EQ(out, (std::vector<std::int32_t>{5, 5, 3, 3, 2, 2}));
  // The last element is the global min — the B&B incumbent reduction.
  EXPECT_EQ(out.back(), 2);
}

TEST(SegmentedScan, RestartsAtHeads) {
  const std::vector<std::uint32_t> in{1, 1, 1, 1, 1, 1};
  const std::vector<std::uint8_t> heads{1, 0, 0, 1, 0, 0};
  std::vector<std::uint32_t> out(in.size());
  segmented_scan<std::uint32_t>(in, heads, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{1, 2, 3, 1, 2, 3}));
}

TEST(SegmentedScan, NoHeadsEqualsPlainScan) {
  const auto v = random_values(100, 5);
  const std::vector<std::uint8_t> heads(v.size(), 0);
  std::vector<std::uint32_t> seg(v.size());
  std::vector<std::uint32_t> plain(v.size());
  segmented_scan<std::uint32_t>(v, heads, seg);
  inclusive_scan<std::uint32_t>(v, plain);
  EXPECT_EQ(seg, plain);
}

TEST(SegmentedScan, EveryPositionAHeadIsIdentity) {
  const auto v = random_values(50, 6);
  const std::vector<std::uint8_t> heads(v.size(), 1);
  std::vector<std::uint32_t> out(v.size());
  segmented_scan<std::uint32_t>(v, heads, out);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

TEST(CopyScan, BroadcastsHeadValues) {
  const std::vector<std::uint32_t> in{9, 1, 2, 7, 3, 4};
  const std::vector<std::uint8_t> heads{0, 1, 0, 1, 0, 0};
  std::vector<std::uint32_t> out(in.size());
  copy_scan<std::uint32_t>(in, heads, out);
  EXPECT_EQ(out, (std::vector<std::uint32_t>{9, 1, 1, 7, 7, 7}));
}

TEST(CopyScan, NoHeadsIsIdentity) {
  const auto v = random_values(20, 7);
  const std::vector<std::uint8_t> heads(v.size(), 0);
  std::vector<std::uint32_t> out(v.size());
  copy_scan<std::uint32_t>(v, heads, out);
  for (std::size_t i = 0; i < v.size(); ++i) EXPECT_EQ(out[i], v[i]);
}

}  // namespace
}  // namespace simdts::simd
