// Property tests for the packed bit-plane substrate: every shipped packed
// kernel (census, rotated ranking, rendezvous, matching, ring pairing) must
// agree *exactly* with the per-lane specification of tests/lb_oracle.hpp on
// the same occupancy pattern — including non-multiple-of-64 machine sizes
// and planes with fault-killed lanes masked out.
#include "simd/bitplane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <vector>

#include "lb/config.hpp"
#include "lb/matching.hpp"
#include "lb_oracle.hpp"
#include "simd/rendezvous.hpp"

namespace simdts::simd {
namespace {

// The machine sizes the properties sweep: word-aligned, one-off-word,
// sub-word, and the bench size.
const std::size_t kSizes[] = {1, 5, 63, 64, 65, 127, 128, 200, 1000, 1024};

/// A deterministic random byte plane with the given set-density in percent.
std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint32_t seed,
                                       unsigned percent) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<unsigned> dist(0, 99);
  std::vector<std::uint8_t> v(n);
  for (auto& x : v) x = dist(rng) < percent ? 1 : 0;
  return v;
}

BitPlane pack(const std::vector<std::uint8_t>& bytes) {
  return oracle::Packed(bytes).plane;
}

std::size_t count_set(const std::vector<std::uint8_t>& bytes) {
  return static_cast<std::size_t>(
      std::count_if(bytes.begin(), bytes.end(),
                    [](std::uint8_t b) { return b != 0; }));
}

TEST(BitPlane, AssignFillAndTailInvariant) {
  for (const std::size_t n : kSizes) {
    BitPlane plane(n, true);
    EXPECT_EQ(plane.size(), n);
    EXPECT_EQ(plane.count(), n);
    // The tail of the last word must stay zero even after fill(true).
    EXPECT_EQ(plane.words().back() & ~plane.word_mask(plane.word_count() - 1),
              0u)
        << "n=" << n;
    plane.fill(false);
    EXPECT_TRUE(plane.none());
    EXPECT_EQ(plane.count(), 0u);
  }
}

TEST(BitPlane, SetResetTestRoundTrip) {
  BitPlane plane(130);
  for (const std::size_t i : {std::size_t{0}, std::size_t{63}, std::size_t{64},
                              std::size_t{127}, std::size_t{129}}) {
    EXPECT_FALSE(plane.test(i));
    plane.set(i);
    EXPECT_TRUE(plane.test(i));
    plane.set(i, false);
    EXPECT_FALSE(plane.test(i));
  }
}

TEST(BitPlane, CensusMatchesScalarReference) {
  for (const std::size_t n : kSizes) {
    for (const unsigned pct : {0u, 10u, 50u, 90u, 100u}) {
      const auto bytes = random_bytes(n, 7u * static_cast<std::uint32_t>(n),
                                      pct);
      const BitPlane plane = pack(bytes);
      EXPECT_EQ(plane.count(), count_set(bytes)) << "n=" << n;
      EXPECT_EQ(plane.none(), count_set(bytes) == 0);
    }
  }
}

TEST(BitPlane, ForEachSetVisitsAscendingSetLanes) {
  for (const std::size_t n : kSizes) {
    const auto bytes = random_bytes(n, 13u * static_cast<std::uint32_t>(n),
                                    30);
    const BitPlane plane = pack(bytes);
    std::vector<std::size_t> want;
    for (std::size_t i = 0; i < n; ++i) {
      if (bytes[i] != 0) want.push_back(i);
    }
    std::vector<std::size_t> got;
    for_each_set(plane, [&](std::size_t i) { got.push_back(i); });
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(BitPlane, RankedMatchesByteKernelWithAndWithoutRotation) {
  for (const std::size_t n : kSizes) {
    const auto bytes = random_bytes(n, 19u * static_cast<std::uint32_t>(n),
                                    45);
    std::vector<PeIndex> starts = {kNoPe, 0,
                                   static_cast<PeIndex>(n - 1),
                                   static_cast<PeIndex>(n / 2)};
    if (n > 64) starts.push_back(63);  // rotation across a word boundary
    for (const PeIndex start : starts) {
      EXPECT_EQ(oracle::packed_ranked(bytes, start),
                oracle::ranked(bytes, start))
          << "n=" << n << " start=" << start;
    }
  }
}

TEST(BitPlane, RendezvousMatchesByteKernel) {
  constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);
  for (const std::size_t n : kSizes) {
    const auto donors = random_bytes(n, 23u * static_cast<std::uint32_t>(n),
                                     40);
    const auto receivers = random_bytes(
        n, 29u * static_cast<std::uint32_t>(n), 40);
    const oracle::Packed donor_plane(donors);
    const oracle::Packed receiver_plane(receivers);
    std::vector<Pair> got;
    for (const PeIndex start :
         {kNoPe, PeIndex{0}, static_cast<PeIndex>(n / 2),
          static_cast<PeIndex>(n - 1)}) {
      for (const std::size_t limit : {std::size_t{0}, std::size_t{1},
                                      std::size_t{3}, kNoLimit}) {
        const std::vector<Pair> want =
            oracle::rendezvous(donors, receivers, start, limit);
        rendezvous_into(donor_plane.plane, donor_plane.summary,
                        receiver_plane.plane, receiver_plane.summary, start,
                        limit, got);
        EXPECT_EQ(got, want) << "n=" << n << " start=" << start
                             << " limit=" << limit;
      }
    }
  }
}

TEST(BitPlane, MatcherBitAndBytePlanesAgreeAcrossGpPhases) {
  // Drive the shipped Matcher and the oracle's through a sequence of phases
  // with evolving occupancy.  The pair sequences and the global-pointer
  // trajectory must stay identical throughout, for both schemes.
  for (const lb::MatchScheme scheme :
       {lb::MatchScheme::kGP, lb::MatchScheme::kNGP}) {
    for (const std::size_t n : {std::size_t{65}, std::size_t{200},
                                std::size_t{1024}}) {
      oracle::Matcher byte_matcher(scheme);
      lb::Matcher bit_matcher(scheme);
      for (std::uint32_t phase = 0; phase < 12; ++phase) {
        const auto busy = random_bytes(
            n, 31u * static_cast<std::uint32_t>(n) + phase, 40);
        auto idle = random_bytes(
            n, 37u * static_cast<std::uint32_t>(n) + phase, 40);
        for (std::size_t i = 0; i < n; ++i) {
          if (busy[i] != 0) idle[i] = 0;  // a lane is never both
        }
        EXPECT_EQ(oracle::packed_match(bit_matcher, busy, idle),
                  byte_matcher.match(busy, idle))
            << "n=" << n << " phase=" << phase;
        EXPECT_EQ(bit_matcher.pointer(), byte_matcher.pointer())
            << "n=" << n << " phase=" << phase;
      }
    }
  }
}

TEST(BitPlane, NeighborPairsMatchByteKernel) {
  for (const std::size_t n : kSizes) {
    const auto busy = random_bytes(n, 41u * static_cast<std::uint32_t>(n), 50);
    auto idle = random_bytes(n, 43u * static_cast<std::uint32_t>(n), 50);
    for (std::size_t i = 0; i < n; ++i) {
      if (busy[i] != 0) idle[i] = 0;
    }
    EXPECT_EQ(oracle::packed_neighbor_pairs(busy, idle),
              oracle::neighbor_pairs(busy, idle))
        << "n=" << n;
  }
}

TEST(BitPlane, NeighborPairsCrossWordAndWrapBoundaries) {
  // Donor in bit 63 of word 0, receiver in bit 0 of word 1; and the ring wrap
  // pair (P-1 -> 0).
  const std::size_t n = 130;
  std::vector<std::uint8_t> busy(n, 0);
  std::vector<std::uint8_t> idle(n, 0);
  busy[63] = 1;
  idle[64] = 1;
  busy[n - 1] = 1;
  idle[0] = 1;
  const std::vector<Pair> got = oracle::packed_neighbor_pairs(busy, idle);
  ASSERT_EQ(got, oracle::neighbor_pairs(busy, idle));
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Pair{63, 64}));
  EXPECT_EQ(got[1], (Pair{129, 0}));
}

TEST(BitPlane, KernelsAgreeWithFaultKilledLanes) {
  // A dead-lane plane masks lanes out of busy/idle entirely (the engine
  // clears a killed lane's bits in every plane).  The packed kernels must
  // agree with the oracle on such masked occupancy — including when whole
  // words die (a clear summary bit).
  const std::size_t n = 300;
  auto busy = random_bytes(n, 47, 60);
  auto idle = random_bytes(n, 53, 60);
  std::vector<std::uint8_t> dead(n, 0);
  for (std::size_t i = 64; i < 128; ++i) dead[i] = 1;  // a whole dead word
  for (std::size_t i = 0; i < n; i += 7) dead[i] = 1;  // scattered deaths
  for (std::size_t i = 0; i < n; ++i) {
    if (dead[i] != 0) {
      busy[i] = 0;
      idle[i] = 0;
    } else if (busy[i] != 0) {
      idle[i] = 0;
    }
  }
  EXPECT_EQ(pack(busy).count(), count_set(busy));
  for (const PeIndex start : {kNoPe, PeIndex{70}, PeIndex{299}}) {
    EXPECT_EQ(oracle::packed_ranked(busy, start),
              oracle::ranked(busy, start));
    EXPECT_EQ(oracle::packed_rendezvous(busy, idle, start),
              oracle::rendezvous(busy, idle, start));
  }
  EXPECT_EQ(oracle::packed_neighbor_pairs(busy, idle),
            oracle::neighbor_pairs(busy, idle));
}

}  // namespace
}  // namespace simdts::simd
