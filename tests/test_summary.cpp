// SummaryPlane invariants and the hierarchical-kernel equivalence contract:
// every summary-aware enumeration (rendezvous, ranked, matcher, ring
// pairing) must produce *bit-identical* output to the flat per-lane walk of
// tests/lb_oracle.hpp on the same occupancy pattern — for any plane size
// (power-of-64 or not), any density, any rotation point, any limit.  The
// flat packed rendezvous perfbench times is held to the same pairs.
#include "simd/summary.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "lb/matching.hpp"
#include "lb_oracle.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/sweep.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"

namespace simdts::simd {
namespace {

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E9B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// Random plane of `p` lanes where each lane is set with probability
/// (density_pct / 100).  density_pct == 0 gives an empty plane.
BitPlane random_plane(std::size_t p, unsigned density_pct,
                      std::uint64_t& seed) {
  BitPlane plane;
  plane.assign(p, false);
  for (std::size_t i = 0; i < p; ++i) {
    if (splitmix(seed) % 100 < density_pct) plane.set(i);
  }
  return plane;
}

SummaryPlane summary_of(const BitPlane& plane) {
  SummaryPlane s;
  s.assign_for_lanes(plane.size());
  s.rebuild(plane);
  return s;
}

// The sizes every property below sweeps: word boundaries, non-x64 sizes,
// a non-power-of-64 P > 2^16 (the 32-bit-index regression size), and a
// mega-ish power of two.
const std::size_t kSizes[] = {1, 63, 64, 65, 127, 129, 4096, 70001, 1u << 17};

// ---------------------------------------------------------------------------
// SummaryPlane invariants
// ---------------------------------------------------------------------------

TEST(SummaryPlane, RebuildMatchesWordOccupancy) {
  std::uint64_t seed = 1;
  for (const std::size_t p : kSizes) {
    for (const unsigned density : {0u, 1u, 30u, 100u}) {
      const BitPlane plane = random_plane(p, density, seed);
      const SummaryPlane sum = summary_of(plane);
      ASSERT_EQ(sum.size(), plane.words().size());
      for (std::size_t w = 0; w < sum.size(); ++w) {
        EXPECT_EQ(sum.test(w), plane.words()[w] != 0) << "p=" << p;
      }
    }
  }
}

TEST(SummaryPlane, UpdateWordTracksIncrementalWrites) {
  std::uint64_t seed = 2;
  for (const std::size_t p : {65, 4096, 70001}) {
    BitPlane plane = random_plane(static_cast<std::size_t>(p), 20, seed);
    SummaryPlane sum = summary_of(plane);
    const std::size_t nwords = plane.words().size();
    for (int step = 0; step < 2000; ++step) {
      const std::size_t w = splitmix(seed) % nwords;
      // Random word write, clamped to the plane's valid mask (the writer
      // contract: whoever writes a plane word keeps the zero tail).
      const std::uint64_t v = splitmix(seed) & plane.word_mask(w);
      plane.words()[w] = v;
      sum.update_word(w, v);
    }
    const SummaryPlane fresh = summary_of(plane);
    for (std::size_t w = 0; w < nwords; ++w) {
      EXPECT_EQ(sum.test(w), fresh.test(w)) << "p=" << p << " w=" << w;
    }
  }
}

TEST(SummaryPlane, NextOccupiedFindsExactlyTheOccupiedWords) {
  std::uint64_t seed = 3;
  for (const std::size_t p : kSizes) {
    const BitPlane plane = random_plane(p, 7, seed);
    const SummaryPlane sum = summary_of(plane);
    std::vector<std::size_t> via_summary;
    for (std::size_t w = sum.next_occupied(0); w < sum.size();
         w = sum.next_occupied(w + 1)) {
      via_summary.push_back(w);
    }
    std::vector<std::size_t> reference;
    for (std::size_t w = 0; w < plane.words().size(); ++w) {
      if (plane.words()[w] != 0) reference.push_back(w);
    }
    EXPECT_EQ(via_summary, reference) << "p=" << p;
  }
}

TEST(SummaryPlane, NextOccupiedFromEveryStartIsTheFirstOccupiedWord) {
  std::uint64_t seed = 4;
  for (const std::size_t p : kSizes) {
    // 1% leaves about half the words empty; 10% almost none; 0% all.
    for (const unsigned density : {0u, 1u, 10u}) {
      const BitPlane plane = random_plane(p, density, seed);
      const SummaryPlane sum = summary_of(plane);
      const std::size_t nwords = sum.size();
      // want[w]: first occupied word >= w, or nwords (built back to front).
      std::vector<std::size_t> want(nwords + 1, nwords);
      for (std::size_t w = nwords; w-- > 0;) {
        want[w] = plane.words()[w] != 0 ? w : want[w + 1];
      }
      // Every start, including past the end.
      for (std::size_t from = 0; from < nwords + 3; ++from) {
        const std::size_t got = sum.next_occupied(from);
        EXPECT_EQ(got, want[std::min(from, nwords)])
            << "p=" << p << " density=" << density << " from=" << from;
        EXPECT_TRUE(got == nwords || sum.test(got));
      }
    }
  }
}

TEST(SummaryPlane, EmptyAndFullPlanes) {
  for (const std::size_t p : kSizes) {
    BitPlane plane;
    plane.assign(p, false);
    SummaryPlane sum = summary_of(plane);
    EXPECT_EQ(sum.next_occupied(0), sum.size());
    plane.fill(true);
    sum.rebuild(plane);
    for (std::size_t w = 0; w < sum.size(); ++w) {
      EXPECT_EQ(sum.next_occupied(w), w);
    }
  }
}

// ---------------------------------------------------------------------------
// Hierarchical kernels == the flat per-lane oracle, bit for bit
// ---------------------------------------------------------------------------

TEST(SummaryKernels, RankedMatchesFlatAcrossSizesAndRotations) {
  std::uint64_t seed = 5;
  std::vector<PeIndex> flat;
  std::vector<PeIndex> hier;
  for (const std::size_t p : kSizes) {
    for (const unsigned density : {0u, 3u, 50u, 100u}) {
      const BitPlane flags = random_plane(p, density, seed);
      const SummaryPlane sum = summary_of(flags);
      std::vector<PeIndex> starts = {kNoPe, 0,
                                     static_cast<PeIndex>(p - 1),
                                     static_cast<PeIndex>(p / 2)};
      for (int i = 0; i < 4; ++i) {
        starts.push_back(static_cast<PeIndex>(splitmix(seed) % p));
      }
      const std::vector<std::uint8_t> bytes = oracle::bytes_of(flags);
      for (const PeIndex sa : starts) {
        flat = oracle::ranked(bytes, sa);
        ranked_into(flags, sum, sa, hier);
        EXPECT_EQ(flat, hier) << "p=" << p << " density=" << density
                              << " start_after=" << sa;
      }
    }
  }
}

/// Every rendezvous kernel against the oracle on one input: the shipped
/// summary-hopping walk and the flat packed walk perfbench times.
void expect_rendezvous_matches_oracle(const BitPlane& donors,
                                      const BitPlane& receivers, PeIndex sa,
                                      std::size_t limit) {
  std::vector<Pair> flat;
  std::vector<Pair> hier;
  const std::vector<Pair> want = oracle::rendezvous(
      oracle::bytes_of(donors), oracle::bytes_of(receivers), sa, limit);
  rendezvous_into(donors, receivers, sa, limit, flat);
  rendezvous_into(donors, summary_of(donors), receivers,
                  summary_of(receivers), sa, limit, hier);
  EXPECT_EQ(hier, want) << "p=" << donors.size() << " start_after=" << sa
                        << " limit=" << limit;
  EXPECT_EQ(flat, want) << "p=" << donors.size() << " start_after=" << sa
                        << " limit=" << limit;
}

const std::size_t kLimits[] = {0, 1, 7, static_cast<std::size_t>(-1)};

TEST(SummaryKernels, RendezvousMatchesFlatAcrossLimitsAndRotations) {
  std::uint64_t seed = 6;
  for (const std::size_t p : {63, 64, 65, 4096, 70001}) {
    for (int trial = 0; trial < 8; ++trial) {
      const unsigned dd = static_cast<unsigned>(splitmix(seed) % 40);
      const unsigned rd = static_cast<unsigned>(splitmix(seed) % 40);
      const BitPlane donors = random_plane(p, dd, seed);
      const BitPlane receivers = random_plane(p, rd, seed);
      const PeIndex sa = (trial % 3 == 0)
                             ? kNoPe
                             : static_cast<PeIndex>(splitmix(seed) % p);
      for (const std::size_t limit : kLimits) {
        expect_rendezvous_matches_oracle(donors, receivers, sa, limit);
      }
    }
  }
  // Sparse mega-P: 1024 busy and 1024 idle lanes scattered over P = 2^20,
  // the occupancy where the summary hop skips almost every word.  Busy wins
  // collisions so the two sets stay disjoint, as in the engine.
  const std::size_t p = std::size_t{1} << 20;
  BitPlane busy(p);
  BitPlane idle(p);
  for (int i = 0; i < 1024; ++i) {
    busy.set(splitmix(seed) % p);
    idle.set(splitmix(seed) % p);
  }
  for (std::size_t w = 0; w < idle.words().size(); ++w) {
    idle.words()[w] &= ~busy.words()[w];
  }
  for (const PeIndex sa :
       {kNoPe, PeIndex{0}, static_cast<PeIndex>(p / 2),
        static_cast<PeIndex>(p - 1)}) {
    for (const std::size_t limit : kLimits) {
      expect_rendezvous_matches_oracle(busy, idle, sa, limit);
    }
  }
}

TEST(SummaryKernels, MatcherMatchesFlatIncludingPointerAdvance) {
  std::uint64_t seed = 7;
  std::vector<Pair> flat;
  std::vector<Pair> hier;
  for (const auto scheme : {lb::MatchScheme::kNGP, lb::MatchScheme::kGP}) {
    for (const std::size_t p : {65, 4096, 70001}) {
      oracle::Matcher m_flat(scheme);
      lb::Matcher m_hier(scheme);
      // Multiple rounds: for GP the pointer advance feeds the next round, so
      // a single divergent round would cascade — exactly what we pin.
      for (int round = 0; round < 12; ++round) {
        const BitPlane busy =
            random_plane(p, static_cast<unsigned>(splitmix(seed) % 30), seed);
        const BitPlane idle =
            random_plane(p, static_cast<unsigned>(splitmix(seed) % 30), seed);
        const SummaryPlane bsum = summary_of(busy);
        const SummaryPlane isum = summary_of(idle);
        const std::size_t limit =
            round % 4 == 0 ? 1 : static_cast<std::size_t>(-1);
        flat = m_flat.match(oracle::bytes_of(busy), oracle::bytes_of(idle),
                            limit);
        m_hier.match_into(busy, bsum, idle, isum, limit, hier);
        EXPECT_EQ(flat, hier) << "p=" << p << " round=" << round;
        EXPECT_EQ(m_flat.pointer(), m_hier.pointer())
            << "p=" << p << " round=" << round;
      }
    }
  }
}

TEST(SummaryKernels, NeighborPairsMatchFlatIncludingWraparound) {
  std::uint64_t seed = 8;
  std::vector<Pair> flat;
  std::vector<Pair> hier;
  for (const std::size_t p : kSizes) {
    for (const unsigned density : {0u, 10u, 60u, 100u}) {
      const BitPlane busy = random_plane(p, density, seed);
      const BitPlane idle = random_plane(p, 100 - density, seed);
      const SummaryPlane bsum = summary_of(busy);
      flat = oracle::neighbor_pairs(oracle::bytes_of(busy),
                                    oracle::bytes_of(idle));
      lb::neighbor_pairs_into(busy, bsum, idle, hier);
      EXPECT_EQ(flat, hier) << "p=" << p << " density=" << density;
    }
  }
  // The wrap pair (P-1 -> 0) specifically.
  BitPlane busy;
  busy.assign(70001, false);
  busy.set(70000);
  BitPlane idle;
  idle.assign(70001, false);
  idle.set(0);
  flat = oracle::neighbor_pairs(oracle::bytes_of(busy),
                                oracle::bytes_of(idle));
  lb::neighbor_pairs_into(busy, summary_of(busy), idle, hier);
  EXPECT_EQ(flat, hier);
  ASSERT_EQ(hier.size(), 1u);
  EXPECT_EQ(hier[0], (Pair{70000, 0}));
}

// ---------------------------------------------------------------------------
// Engine property: summary maintenance survives random kill/revive plans at
// non-x64 P, bit-identically across sweep thread counts (engines running
// side by side share no summary state).  (In sanitize builds the per-cycle
// sweep additionally re-verifies every summary word; here we pin the result
// contract.)
// ---------------------------------------------------------------------------

TEST(SummaryEngine, KillRevivePlanDeterministicAcrossThreadsAtNonX64P) {
  const auto& wl = puzzle::test_workloads()[1];
  const puzzle::FifteenPuzzle problem(wl.board());
  const std::uint32_t p = 157;  // not a multiple of 64
  std::vector<fault::FaultEvent> events;
  std::uint64_t seed = 11;
  for (int i = 0; i < 6; ++i) {
    const std::uint32_t pe = static_cast<std::uint32_t>(splitmix(seed) % p);
    const std::uint64_t cycle = 4 + splitmix(seed) % 80;
    events.push_back({cycle, fault::FaultKind::kKillPe, pe, 0});
    events.push_back({cycle + 3 + splitmix(seed) % 20,
                      fault::FaultKind::kRevivePe, pe, 0});
  }
  const fault::FaultPlan plan(events);

  auto run = [&](std::size_t) {
    Machine machine(p, cm2_cost_model());
    lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine,
                                             lb::gp_static(0.9));
    engine.arm_faults(&plan);
    return engine.run();
  };
  const lb::RunStats base = run(0);
  EXPECT_GT(base.total.pes_killed, 0u);
  for (const unsigned threads : {1u, 2u, 8u}) {
    const std::vector<lb::RunStats> runs =
        runtime::sweep_map<lb::RunStats>(4, run, threads);
    for (const lb::RunStats& other : runs) {
      EXPECT_EQ(base, other) << "threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace simdts::simd
