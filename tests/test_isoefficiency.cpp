#include "analysis/isoefficiency.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "synthetic/calibrate.hpp"

namespace simdts::analysis {
namespace {

std::vector<synthetic::SyntheticWorkload> small_ladder() {
  // A small deterministic ladder for tests (sizes ~1e3 to ~2e5), measured on
  // the fly so the test is self-contained.
  std::vector<synthetic::SyntheticWorkload> out;
  const synthetic::Params shapes[] = {
      {9013, 4, 0.395, 14},
      {9011, 4, 0.400, 18},
      {9013, 4, 0.388, 24},
  };
  for (const auto& p : shapes) {
    out.push_back(synthetic::SyntheticWorkload{
        "ladder", p, synthetic::measure(p)});
  }
  return out;
}

TEST(IsoGrid, RunsEveryCell) {
  const auto ladder = small_ladder();
  const std::uint32_t sizes[] = {8, 32};
  const GridResult grid = run_grid(lb::gp_static(0.75), ladder, sizes,
                                   simd::cm2_cost_model());
  ASSERT_EQ(grid.points.size(), ladder.size() * std::size(sizes));
  for (const auto& pt : grid.points) {
    EXPECT_GT(pt.w, 0u);
    EXPECT_GT(pt.efficiency, 0.0);
    EXPECT_LE(pt.efficiency, 1.0);
  }
}

TEST(IsoGrid, MeasuredWMatchesWorkloadW) {
  const auto ladder = small_ladder();
  const std::uint32_t sizes[] = {16};
  const GridResult grid = run_grid(lb::gp_dk(), ladder, sizes,
                                   simd::cm2_cost_model());
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    EXPECT_EQ(grid.points[i].w, ladder[i].w) << "conservation through the grid";
  }
}

TEST(IsoGrid, EfficiencyGrowsWithW) {
  const auto ladder = small_ladder();
  const std::uint32_t sizes[] = {64};
  const GridResult grid = run_grid(lb::gp_static(0.75), ladder, sizes,
                                   simd::cm2_cost_model());
  ASSERT_EQ(grid.points.size(), 3u);
  EXPECT_LT(grid.points[0].efficiency, grid.points[2].efficiency);
}

TEST(IsoGrid, EfficiencyFallsWithP) {
  const auto ladder = small_ladder();
  const std::uint32_t sizes[] = {8, 512};
  const GridResult grid = run_grid(lb::gp_static(0.75), ladder, sizes,
                                   simd::cm2_cost_model());
  // Same workload (the largest), growing machine: efficiency must drop.
  EXPECT_GT(grid.points[2].efficiency, grid.points[5].efficiency);
}

/// A hand-built grid cell: only P, W and E matter to curve extraction.
GridPoint grid_point(std::uint32_t p, std::uint64_t w, double efficiency) {
  return GridPoint{.p = p, .w = w, .efficiency = efficiency, .clock = {}};
}

TEST(ExtractCurves, InterpolatesBetweenBracketingPoints) {
  // Hand-built grid: P = 4 with E rising 0.4 -> 0.8 over a decade of W.
  GridResult grid;
  grid.points = {
      grid_point(4, 1000, 0.4),
      grid_point(4, 10000, 0.8),
  };
  const double targets[] = {0.6};
  const auto curves = extract_curves(grid, targets);
  ASSERT_EQ(curves.size(), 1u);
  ASSERT_EQ(curves[0].points.size(), 1u);
  const auto& pt = curves[0].points[0];
  EXPECT_FALSE(pt.extrapolated);
  // Linear in (log W, E): the midpoint of the decade.
  EXPECT_NEAR(pt.w_needed, std::sqrt(1000.0 * 10000.0), 1.0);
  EXPECT_NEAR(pt.p_log_p, 4.0 * 2.0, 1e-12);
}

TEST(ExtractCurves, MarksExtrapolatedPoints) {
  GridResult grid;
  grid.points = {
      grid_point(4, 1000, 0.4),
      grid_point(4, 10000, 0.5),
  };
  const double targets[] = {0.9};
  const auto curves = extract_curves(grid, targets);
  ASSERT_EQ(curves[0].points.size(), 1u);
  EXPECT_TRUE(curves[0].points[0].extrapolated);
  EXPECT_GT(curves[0].points[0].w_needed, 10000.0);
}

TEST(ExtractCurves, MultipleMachinesProduceOnePointEach) {
  GridResult grid;
  for (const std::uint32_t p : {4u, 16u, 64u}) {
    grid.points.push_back(grid_point(p, 1000, 0.3));
    grid.points.push_back(grid_point(p, 100000, 0.9));
  }
  const double targets[] = {0.5, 0.7};
  const auto curves = extract_curves(grid, targets);
  ASSERT_EQ(curves.size(), 2u);
  for (const auto& c : curves) {
    EXPECT_EQ(c.points.size(), 3u);
  }
  // Higher target efficiency needs more W at every machine size.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LT(curves[0].points[i].w_needed, curves[1].points[i].w_needed);
  }
}

TEST(FitPLogP, PerfectLineHasZeroDeviation) {
  IsoCurve curve;
  curve.efficiency = 0.8;
  for (const std::uint32_t p : {16u, 64u, 256u}) {
    IsoCurvePoint pt;
    pt.p = p;
    pt.p_log_p = p * std::log2(static_cast<double>(p));
    pt.w_needed = 37.0 * pt.p_log_p;
    curve.points.push_back(pt);
  }
  const LineFit fit = fit_p_log_p(curve);
  EXPECT_NEAR(fit.slope, 37.0, 1e-9);
  EXPECT_NEAR(fit.max_rel_deviation, 0.0, 1e-9);
}

TEST(FitPLogP, SuperlinearCurveShowsDeviation) {
  IsoCurve curve;
  for (const std::uint32_t p : {16u, 64u, 256u, 1024u}) {
    IsoCurvePoint pt;
    pt.p = p;
    pt.p_log_p = p * std::log2(static_cast<double>(p));
    pt.w_needed = pt.p_log_p * std::log2(static_cast<double>(p));  // P log^2 P
    curve.points.push_back(pt);
  }
  const LineFit fit = fit_p_log_p(curve);
  EXPECT_GT(fit.max_rel_deviation, 0.3);
}

TEST(FitPLogP, EmptyCurveIsZero) {
  const LineFit fit = fit_p_log_p(IsoCurve{});
  EXPECT_DOUBLE_EQ(fit.slope, 0.0);
}

}  // namespace
}  // namespace simdts::analysis
