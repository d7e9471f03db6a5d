#include "synthetic/tree.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "search/serial.hpp"
#include "synthetic/calibrate.hpp"
#include "synthetic/workloads.hpp"

namespace simdts::synthetic {
namespace {

TEST(SyntheticTree, RootIsDeterministicInSeed) {
  const Tree a(Params{7, 4, 0.3, 20});
  const Tree b(Params{7, 4, 0.3, 20});
  const Tree c(Params{8, 4, 0.3, 20});
  EXPECT_EQ(a.root(), b.root());
  EXPECT_NE(a.root().id, c.root().id);
}

TEST(SyntheticTree, ExpansionIsPure) {
  const Tree t(Params{11, 4, 0.35, 20});
  std::vector<Tree::Node> a;
  std::vector<Tree::Node> b;
  search::NextBound nb;
  t.expand(t.root(), search::kUnbounded, a, nb);
  t.expand(t.root(), search::kUnbounded, b, nb);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(nb.has_value());
}

TEST(SyntheticTree, RespectsMaxChildren) {
  const Tree t(Params{11, 3, 0.9, 20});
  std::vector<Tree::Node> out;
  search::NextBound nb;
  t.expand(t.root(), search::kUnbounded, out, nb);
  EXPECT_LE(out.size(), 3u);
}

TEST(SyntheticTree, DepthCutoffStopsGrowth) {
  const Tree t(Params{11, 4, 0.9, 2});
  Tree::Node n = t.root();
  n.depth = 2;
  std::vector<Tree::Node> out;
  search::NextBound nb;
  t.expand(n, search::kUnbounded, out, nb);
  EXPECT_TRUE(out.empty());
}

TEST(SyntheticTree, ChildrenDescendFromParentDepth) {
  const Tree t(Params{13, 4, 0.9, 30});
  std::vector<Tree::Node> out;
  search::NextBound nb;
  t.expand(t.root(), search::kUnbounded, out, nb);
  for (const auto& c : out) {
    EXPECT_EQ(c.depth, 1);
  }
}

/// Reference expansion: decode each slot's candidate and keep it when the
/// existence coin says so, with a plain conditional push.
std::vector<Tree::Node> reference_children(const Tree& t,
                                           const Tree::Node& n) {
  std::vector<Tree::Node> out;
  const Params& pr = t.params();
  if (n.depth >= pr.max_depth) return out;
  const double p =
      pr.fertility * (0.5 + static_cast<double>(n.climate) * 0x1.0p-16);
  for (std::uint32_t i = 0; i < pr.max_children; ++i) {
    const Tree::Node c = t.decode_delta(n, static_cast<std::uint8_t>(i));
    if (Tree::normalized(c.id) < p) out.push_back(c);
  }
  return out;
}

TEST(SyntheticTree, ExistenceThresholdAgreesWithTheDoubleFormula) {
  // expand_row() tests `(h >> 11) < existence_threshold(climate)`; the
  // definition is `normalized(h) < p`.  Check both on hashes either side of
  // the threshold, with every low-bit pattern that the shift drops.
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double fertility :
       {0.0, -0.0, -0.25, 5e-324, 1e-300, 1e-17, 0.395, 0.7, 2.0 / 3.0, 1.0,
        1.5, inf, -inf, nan}) {
    const Tree t(Params{3, 4, fertility, 10});
    for (const std::uint16_t climate :
         {std::uint16_t{0}, std::uint16_t{1}, std::uint16_t{0x8000},
          std::uint16_t{0xFFFF}}) {
      const double p =
          fertility * (0.5 + static_cast<double>(climate) * 0x1.0p-16);
      const std::uint64_t thr = t.existence_threshold(climate);
      ASSERT_LE(thr, kTop);
      if (p >= 1.0) {
        EXPECT_EQ(thr, kTop) << fertility << " " << climate;
      }
      if (!(p > 0.0)) {
        EXPECT_EQ(thr, 0u) << fertility << " " << climate;
      }
      std::vector<std::uint64_t> tops{0, 1, kTop - 2, kTop - 1};
      for (const std::uint64_t d : {2u, 1u, 0u}) {
        if (thr >= d) tops.push_back(thr - d);
        if (thr + d < kTop) tops.push_back(thr + d);
      }
      for (const std::uint64_t top : tops) {
        for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{1},
                                        std::uint64_t{0x7FF}}) {
          const std::uint64_t h = (top << 11) | low;
          EXPECT_EQ((h >> 11) < thr, Tree::normalized(h) < p)
              << "fertility " << fertility << " climate " << climate
              << " top " << top;
        }
      }
    }
  }
}

TEST(SyntheticTree, DegenerateFertilitiesKeepEverySlotOrNone) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const double fertility : {2.0, inf}) {
    const Tree t(Params{5, 9, fertility, 3});
    std::vector<Tree::Node> out;
    search::NextBound nb;
    t.expand(t.root(), search::kUnbounded, out, nb);
    EXPECT_EQ(out.size(), 9u) << fertility;
  }
  for (const double fertility :
       {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    const Tree t(Params{5, 9, fertility, 3});
    std::vector<Tree::Node> out;
    search::NextBound nb;
    t.expand(t.root(), search::kUnbounded, out, nb);
    EXPECT_TRUE(out.empty()) << fertility;
  }
}

TEST(SyntheticTree, ExpandEmitsExactlyTheReferenceChildrenInOrder) {
  const Tree::Node sentinel{0xDEADBEEF, 7, 7};
  for (std::uint32_t mc = 1; mc <= 12; ++mc) {
    for (const double fertility : {0.05, 0.3, 0.9}) {
      const Tree t(Params{100 + mc, mc, fertility, 4});
      // Breadth-first over the first levels, depth-cutoff nodes included.
      std::vector<Tree::Node> frontier{t.root()};
      std::size_t checked = 0;
      for (std::size_t i = 0; i < frontier.size() && checked < 300; ++i) {
        const Tree::Node& n = frontier[i];
        const std::vector<Tree::Node> want = reference_children(t, n);
        search::NextBound nb;
        // Into an empty buffer.
        std::vector<Tree::Node> fresh;
        t.expand(n, search::kUnbounded, fresh, nb);
        EXPECT_EQ(fresh, want) << "max_children " << mc << " node " << i;
        // After content already staged (as the engine stages a whole word),
        // both with spare capacity and with none.
        for (const bool tight : {false, true}) {
          std::vector<Tree::Node> staged(3, sentinel);
          if (tight) {
            staged.shrink_to_fit();
          } else {
            staged.reserve(64);
          }
          t.expand(n, search::kUnbounded, staged, nb);
          ASSERT_EQ(staged.size(), 3 + want.size());
          for (std::size_t j = 0; j < 3; ++j) EXPECT_EQ(staged[j], sentinel);
          EXPECT_TRUE(std::equal(want.begin(), want.end(), staged.begin() + 3))
              << "max_children " << mc << " node " << i << " tight " << tight;
        }
        EXPECT_FALSE(nb.has_value());
        if (n.depth >= t.params().max_depth) {
          EXPECT_TRUE(want.empty());
        }
        frontier.insert(frontier.end(), want.begin(), want.end());
        ++checked;
      }
    }
  }
}

TEST(SyntheticTree, NeverAGoal) {
  const Tree t(Params{17, 4, 0.5, 10});
  EXPECT_FALSE(t.is_goal(t.root()));
  EXPECT_EQ(t.f_value(t.root()), 0);
}

TEST(Measure, MatchesSerialDfs) {
  const Params p{21, 4, 0.36, 14};
  const Tree t(p);
  const auto serial = search::serial_dfs(t, t.root(), search::kUnbounded);
  EXPECT_EQ(measure(p), serial.nodes_expanded);
}

TEST(Measure, BudgetClipsOversizedTrees) {
  // A nearly full 4-ary tree of depth 12 has ~22M nodes; the budget must
  // stop the measurement early.
  const Params p{3, 4, 0.999, 12};
  EXPECT_EQ(measure(p, 5000), 5001u);
}

TEST(Measure, DeterministicAcrossCalls) {
  const Params p{99, 4, 0.37, 16};
  EXPECT_EQ(measure(p), measure(p));
}

TEST(Calibrate, FindsSeedNearTarget) {
  Params shape;
  shape.max_depth = 14;
  shape.fertility = 0.395;
  const Calibration c = calibrate_to(1000, shape, 1, 24);
  ASSERT_GT(c.w, 0u);
  // Within a factor of 4 of the target (heavy-tailed sizes; the pinned
  // workloads were chosen from larger scans).
  EXPECT_GT(c.w, 250u);
  EXPECT_LT(c.w, 4000u);
  // And re-measuring the calibrated params reproduces exactly.
  EXPECT_EQ(measure(c.params), c.w);
}

TEST(Workloads, PinnedSizesReproduce) {
  for (const auto& wl : test_workloads()) {
    EXPECT_EQ(measure(wl.params), wl.w) << wl.name;
  }
}

TEST(Workloads, IsoLadderIsAscending) {
  const auto ws = iso_workloads();
  for (std::size_t i = 1; i < ws.size(); ++i) {
    EXPECT_LT(ws[i - 1].w, ws[i].w);
  }
}

}  // namespace
}  // namespace simdts::synthetic
