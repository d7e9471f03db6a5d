#include "simd/machine.hpp"

#include <gtest/gtest.h>

#include <string>

#include "common/error.hpp"

namespace simdts::simd {
namespace {

TEST(Machine, RejectsZeroPes) {
  EXPECT_THROW(Machine(0, cm2_cost_model()), ConfigError);
}

TEST(Machine, RejectsMoreWorkingThanPes) {
  Machine m(8, cm2_cost_model());
  EXPECT_THROW(m.charge_expand_cycle(9), EngineError);
}

/// The what() of the EngineError a bad charge_expand_cycle throws.
std::string lane_count_error(Machine& m, std::uint32_t working,
                             std::uint32_t alive) {
  try {
    m.charge_expand_cycle(working, alive);
  } catch (const EngineError& e) {
    return e.what();
  }
  ADD_FAILURE() << "no EngineError for working=" << working
                << " alive=" << alive;
  return {};
}

TEST(Machine, LaneCountErrorNamesTheCounts) {
  Machine m(10, cm2_cost_model());
  m.charge_expand_cycle(3);
  EXPECT_EQ(lane_count_error(m, 7, 6),
            "Machine: working/alive lane counts out of range (working=7 "
            "alive=6 P=10) [scheme=- P=10 cycle=1]");
  EXPECT_EQ(lane_count_error(m, 4, 11),
            "Machine: working/alive lane counts out of range (working=4 "
            "alive=11 P=10) [scheme=- P=10 cycle=1]");
  // alive == 0 means "all P lanes".
  EXPECT_EQ(lane_count_error(m, 12, 0),
            "Machine: working/alive lane counts out of range (working=12 "
            "alive=10 P=10) [scheme=- P=10 cycle=1]");
  // A rejected charge leaves the clock untouched.
  EXPECT_EQ(m.clock().expand_cycles, 1u);
}

TEST(Machine, RejectsBadCostModel) {
  CostModel cm = cm2_cost_model();
  cm.t_expand = 0.0;
  EXPECT_THROW(Machine(8, cm), ConfigError);
  cm = cm2_cost_model();
  cm.t_lb = -1.0;
  EXPECT_THROW(Machine(8, cm), ConfigError);
}

TEST(Machine, DegradedCycleChargesIdleOnlyForSurvivors) {
  Machine m(10, cm2_cost_model());
  // 6 of 10 lanes survive, 4 of them worked: idle time covers 2 lanes.
  m.charge_expand_cycle(4, 6);
  const MachineClock& c = m.clock();
  EXPECT_DOUBLE_EQ(c.elapsed, 30.0);
  EXPECT_DOUBLE_EQ(c.calc_time, 4 * 30.0);
  EXPECT_DOUBLE_EQ(c.idle_time, 2 * 30.0);
  EXPECT_THROW(m.charge_expand_cycle(7, 6), EngineError);   // working > alive
  EXPECT_THROW(m.charge_expand_cycle(4, 11), EngineError);  // alive > P
}

TEST(Machine, RecoveryRoundAccounting) {
  Machine m(10, cm2_cost_model());
  m.charge_recovery_round();
  const MachineClock& c = m.clock();
  // Costed like an lb round, but booked in the recovery bucket.
  EXPECT_DOUBLE_EQ(c.elapsed, 13.0);
  EXPECT_DOUBLE_EQ(c.lb_time, 0.0);
  EXPECT_DOUBLE_EQ(c.recovery_time, 10 * 13.0);
  EXPECT_EQ(c.recovery_rounds, 1u);
  EXPECT_EQ(c.lb_rounds, 0u);
  // Recovery time degrades efficiency exactly like lb time.
  m.charge_expand_cycle(10);
  EXPECT_LT(m.clock().efficiency(), 1.0);
}

TEST(Machine, ExpandCycleAccounting) {
  Machine m(10, cm2_cost_model());
  m.charge_expand_cycle(7);
  const MachineClock& c = m.clock();
  EXPECT_DOUBLE_EQ(c.elapsed, 30.0);
  EXPECT_DOUBLE_EQ(c.calc_time, 7 * 30.0);
  EXPECT_DOUBLE_EQ(c.idle_time, 3 * 30.0);
  EXPECT_DOUBLE_EQ(c.lb_time, 0.0);
  EXPECT_EQ(c.expand_cycles, 1u);
  EXPECT_EQ(c.nodes_expanded, 7u);
}

TEST(Machine, LbRoundAccounting) {
  Machine m(10, cm2_cost_model());
  m.charge_lb_round();
  const MachineClock& c = m.clock();
  EXPECT_DOUBLE_EQ(c.elapsed, 13.0);
  EXPECT_DOUBLE_EQ(c.lb_time, 10 * 13.0);
  EXPECT_EQ(c.lb_rounds, 1u);
}

TEST(Machine, CalcPlusIdleEqualsPTimesCycleTime) {
  Machine m(64, cm2_cost_model());
  for (std::uint32_t w : {64u, 40u, 1u, 0u, 13u}) {
    m.charge_expand_cycle(w);
  }
  const MachineClock& c = m.clock();
  EXPECT_DOUBLE_EQ(c.calc_time + c.idle_time,
                   64.0 * static_cast<double>(c.expand_cycles) * 30.0);
}

TEST(Machine, EfficiencyMatchesPaperFormula) {
  // The paper's own arithmetic: W = 16110463, P = 8192, GP-S0.9 measured
  // N_expand = 2099 and N_lb = 172, giving E ~ 0.91 (Table 2).
  Machine m(8192, cm2_cost_model());
  const std::uint64_t w = 16110463;
  const std::uint64_t cycles = 2099;
  // Distribute the work evenly over the cycles (average ~7676 < P).
  std::uint64_t left = w;
  for (std::uint64_t i = 0; i < cycles; ++i) {
    const auto use = static_cast<std::uint32_t>(left / (cycles - i));
    m.charge_expand_cycle(use);
    left -= use;
  }
  EXPECT_EQ(left, 0u);
  for (int i = 0; i < 172; ++i) m.charge_lb_round();
  EXPECT_NEAR(m.clock().efficiency(), 0.905, 0.01);
}

TEST(Machine, EfficiencyOfIdleMachineIsOne) {
  Machine m(4, cm2_cost_model());
  EXPECT_DOUBLE_EQ(m.clock().efficiency(), 1.0);
}

TEST(Machine, FullyBusyNoLbIsEfficiencyOne) {
  Machine m(16, cm2_cost_model());
  m.charge_expand_cycle(16);
  EXPECT_DOUBLE_EQ(m.clock().efficiency(), 1.0);
}

TEST(Machine, NeighborRoundCheaperThanLbRound) {
  Machine m(16, cm2_cost_model());
  m.charge_neighbor_round();
  const double neighbor = m.clock().elapsed;
  m.reset_clock();
  m.charge_lb_round();
  EXPECT_LT(neighbor, m.clock().elapsed);
}

TEST(MachineClock, DiffAndAccumulate) {
  Machine m(8, cm2_cost_model());
  m.charge_expand_cycle(8);
  const MachineClock snap = m.clock();
  m.charge_expand_cycle(4);
  m.charge_lb_round();
  const MachineClock diff = m.clock() - snap;
  EXPECT_EQ(diff.expand_cycles, 1u);
  EXPECT_EQ(diff.lb_rounds, 1u);
  EXPECT_EQ(diff.nodes_expanded, 4u);
  EXPECT_DOUBLE_EQ(diff.elapsed, 30.0 + 13.0);

  MachineClock sum = snap;
  sum += diff;
  EXPECT_DOUBLE_EQ(sum.elapsed, m.clock().elapsed);
  EXPECT_EQ(sum.nodes_expanded, m.clock().nodes_expanded);
}

TEST(Machine, ResetClock) {
  Machine m(8, cm2_cost_model());
  m.charge_expand_cycle(8);
  m.reset_clock();
  EXPECT_DOUBLE_EQ(m.clock().elapsed, 0.0);
  EXPECT_EQ(m.clock().expand_cycles, 0u);
}

}  // namespace
}  // namespace simdts::simd
