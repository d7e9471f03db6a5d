#include "lb/engine.hpp"

#include <gtest/gtest.h>

#include <tuple>

#include "puzzle/fifteen.hpp"
#include "puzzle/instances.hpp"
#include "puzzle/workloads.hpp"
#include "queens/queens.hpp"
#include "search/serial.hpp"
#include "synthetic/tree.hpp"

namespace simdts::lb {
namespace {

using puzzle::Board;
using puzzle::FifteenPuzzle;
using search::kUnbounded;

simd::Machine make_machine(std::uint32_t p) {
  return simd::Machine(p, simd::cm2_cost_model());
}

std::vector<SchemeConfig> paper_schemes() {
  return {ngp_static(0.5), ngp_static(0.75), ngp_static(0.9),
          gp_static(0.5),  gp_static(0.75),  gp_static(0.9),
          ngp_dp(),        gp_dp(),          ngp_dk(),
          gp_dk()};
}

// ---------------------------------------------------------------------------
// Conservation: the master invariant.  For every scheme and machine size,
// the parallel search must expand exactly the nodes the serial search
// expands — transfers move nodes, never duplicate or drop them, and the
// search runs to exhaustion so there are no speedup anomalies.
// ---------------------------------------------------------------------------

using ConsParam = std::tuple<std::size_t /*scheme*/, std::uint32_t /*P*/>;

class Conservation : public ::testing::TestWithParam<ConsParam> {};

TEST_P(Conservation, PuzzleExpansionsMatchSerial) {
  const auto [scheme_idx, p] = GetParam();
  const SchemeConfig cfg = paper_schemes()[scheme_idx];

  const auto& wl = puzzle::test_workloads()[1];  // t-4k
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);

  simd::Machine machine = make_machine(p);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const RunStats rs = engine.run();

  EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded) << cfg.name();
  EXPECT_EQ(rs.solution_bound, serial.solution_bound) << cfg.name();
  EXPECT_EQ(rs.goals_found, serial.goals_found) << cfg.name();
  EXPECT_EQ(rs.iterations.size(), serial.iterations.size()) << cfg.name();
  for (std::size_t i = 0; i < rs.iterations.size(); ++i) {
    EXPECT_EQ(rs.iterations[i].nodes_expanded,
              serial.iterations[i].nodes_expanded)
        << cfg.name() << " iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SchemesAndSizes, Conservation,
    ::testing::Combine(::testing::Range<std::size_t>(0, 10),
                       ::testing::Values(1u, 2u, 16u, 64u, 256u)));

TEST(Engine, ConservationOnSyntheticTree) {
  const synthetic::Tree tree(synthetic::Params{42, 4, 0.38, 16});
  const auto serial = search::serial_dfs(tree, tree.root(), kUnbounded);
  for (const auto& cfg : paper_schemes()) {
    simd::Machine machine = make_machine(64);
    Engine<synthetic::Tree> engine(tree, machine, cfg);
    const IterationStats it = engine.run_iteration(kUnbounded);
    EXPECT_EQ(it.nodes_expanded, serial.nodes_expanded) << cfg.name();
    EXPECT_EQ(it.goals_found, 0u);
  }
}

class QueensEngine : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(QueensEngine, FindsAll92SolutionsOfEightQueens) {
  const queens::Queens q(8);
  simd::Machine machine = make_machine(GetParam());
  Engine<queens::Queens> engine(q, machine, gp_dk());
  const IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.goals_found, 92u);
  EXPECT_EQ(engine.goal_nodes().size(), 92u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, QueensEngine,
                         ::testing::Values(1u, 4u, 32u, 512u, 4096u));

// ---------------------------------------------------------------------------
// Structural properties.
// ---------------------------------------------------------------------------

TEST(Engine, SingleProcessorDegeneratesToSerialCycleCount) {
  const auto& wl = puzzle::test_workloads()[0];  // t-60
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  simd::Machine machine = make_machine(1);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.9));
  const RunStats rs = engine.run();
  // With one PE every cycle expands exactly one node and no load balancing
  // can occur (there is never an idle PE while work remains).
  EXPECT_EQ(rs.total.expand_cycles, serial.total_expanded);
  EXPECT_EQ(rs.total.lb_phases, 0u);
  EXPECT_DOUBLE_EQ(rs.efficiency(), 1.0);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  for (const auto& cfg : {gp_static(0.8), gp_dp(), ngp_dk()}) {
    simd::Machine m1 = make_machine(128);
    simd::Machine m2 = make_machine(128);
    Engine<FifteenPuzzle> e1(problem, m1, cfg);
    Engine<FifteenPuzzle> e2(problem, m2, cfg);
    const RunStats r1 = e1.run();
    const RunStats r2 = e2.run();
    EXPECT_EQ(r1.total.expand_cycles, r2.total.expand_cycles) << cfg.name();
    EXPECT_EQ(r1.total.lb_phases, r2.total.lb_phases) << cfg.name();
    EXPECT_EQ(r1.total.transfers, r2.total.transfers) << cfg.name();
    EXPECT_DOUBLE_EQ(r1.efficiency(), r2.efficiency()) << cfg.name();
  }
}

TEST(Engine, MoreProcessorsThanNodesStillTerminates) {
  // A tiny tree on a big machine: most PEs never get work.
  const queens::Queens q(4);
  simd::Machine machine = make_machine(8192);
  Engine<queens::Queens> engine(q, machine, gp_static(0.9));
  const IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.goals_found, 2u);
  EXPECT_GT(it.expand_cycles, 0u);
}

TEST(Engine, EfficiencyWithinUnitInterval) {
  const auto& wl = puzzle::test_workloads()[2];  // t-21k
  const FifteenPuzzle problem(wl.board());
  for (const auto& cfg : paper_schemes()) {
    simd::Machine machine = make_machine(256);
    Engine<FifteenPuzzle> engine(problem, machine, cfg);
    const RunStats rs = engine.run();
    EXPECT_GT(rs.efficiency(), 0.0) << cfg.name();
    EXPECT_LE(rs.efficiency(), 1.0) << cfg.name();
  }
}

TEST(Engine, ParallelCyclesAreFewerThanSerialWithEnoughWork) {
  const auto& wl = puzzle::test_workloads()[2];
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  simd::Machine machine = make_machine(256);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.75));
  const RunStats rs = engine.run();
  // Speedup: cycles must be far below W (otherwise nothing was parallel).
  EXPECT_LT(rs.total.expand_cycles, serial.total_expanded / 8);
}

TEST(Engine, TraceRecordsEveryCycle) {
  SchemeConfig cfg = gp_dk();
  cfg.record_trace = true;
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(16);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const IterationStats it =
      engine.run_iteration(problem.f_value(problem.root()));
  EXPECT_EQ(it.trace.size(), it.expand_cycles);
  for (const auto& t : it.trace) {
    EXPECT_LE(t.splittable, t.working);
    EXPECT_LE(t.working, 16u);
  }
}

TEST(Engine, TransfersOnlyHappenInLbRounds) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(64);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.7));
  const RunStats rs = engine.run();
  EXPECT_GE(rs.total.transfers, rs.total.lb_rounds);
  EXPECT_GE(rs.total.lb_rounds, rs.total.lb_phases);
  // Single-transfer static scheme: rounds == phases.
  EXPECT_EQ(rs.total.lb_rounds, rs.total.lb_phases);
}

TEST(Engine, MultipleTransfersServeMoreIdlePes) {
  const auto& wl = puzzle::test_workloads()[2];
  const FifteenPuzzle problem(wl.board());

  SchemeConfig single = gp_dp();
  single.multiple_transfers = false;
  SchemeConfig multiple = gp_dp();

  simd::Machine m1 = make_machine(128);
  simd::Machine m2 = make_machine(128);
  Engine<FifteenPuzzle> e1(problem, m1, single);
  Engine<FifteenPuzzle> e2(problem, m2, multiple);
  const RunStats r1 = e1.run();
  const RunStats r2 = e2.run();
  // With multiple transfer rounds per phase, each phase does at least as
  // many rounds as phases.
  EXPECT_EQ(r1.total.lb_rounds, r1.total.lb_phases);
  EXPECT_GE(r2.total.lb_rounds, r2.total.lb_phases);
  EXPECT_GT(r2.total.transfers, 0u);
}

TEST(Engine, FinalIterationMatchesLastEntry) {
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(8);
  Engine<FifteenPuzzle> engine(problem, machine, gp_dk());
  const RunStats rs = engine.run();
  ASSERT_FALSE(rs.iterations.empty());
  EXPECT_EQ(rs.final_iteration.nodes_expanded,
            rs.iterations.back().nodes_expanded);
  EXPECT_EQ(rs.final_iteration.bound, rs.solution_bound);
}

TEST(Engine, GoalNodesCarryTheSolutionDepth) {
  const auto& wl = puzzle::test_workloads()[0];
  const FifteenPuzzle problem(wl.board());
  simd::Machine machine = make_machine(32);
  Engine<FifteenPuzzle> engine(problem, machine, gp_static(0.75));
  const RunStats rs = engine.run();
  ASSERT_EQ(rs.goals_found, wl.goals);
  for (const auto& n : engine.goal_nodes()) {
    EXPECT_EQ(n.h, 0);
    EXPECT_EQ(n.g, rs.solution_bound);
  }
}

TEST(Engine, BusyPolicyNonEmptyAblation) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  SchemeConfig cfg = gp_static(0.8);
  cfg.busy = BusyPolicy::kNonEmpty;
  simd::Machine machine = make_machine(64);
  Engine<FifteenPuzzle> engine(problem, machine, cfg);
  const RunStats rs = engine.run();
  const auto serial = search::serial_ida(problem);
  EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded);
}

TEST(Engine, SplitStrategiesAllConserveWork) {
  const auto& wl = puzzle::test_workloads()[1];
  const FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);
  for (const auto strat :
       {search::SplitStrategy::kBottomNode, search::SplitStrategy::kHalf,
        search::SplitStrategy::kTopNode}) {
    SchemeConfig cfg = gp_static(0.75);
    cfg.split = strat;
    simd::Machine machine = make_machine(64);
    Engine<FifteenPuzzle> engine(problem, machine, cfg);
    const RunStats rs = engine.run();
    EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded)
        << to_string(strat);
  }
}

}  // namespace
}  // namespace simdts::lb
