// Fault injection and lost-work recovery (docs/robustness.md).
//
// The contract under test: a seeded FaultPlan replays bit-identically for
// any host thread count, killed PEs' work is re-donated without loss or
// duplication (the conservation invariant), dropped lb messages waste cost
// but never lose subtrees, and with no plan armed the fault hooks are
// invisible — bit-identical results to an engine that has never heard of
// faults.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <set>
#include <type_traits>
#include <vector>

#include "common/error.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "runtime/sweep.hpp"
#include "search/serial.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "synthetic/workloads.hpp"
#include "vec/expand.hpp"

namespace simdts::fault {
namespace {

using search::kUnbounded;

// ---------------------------------------------------------------------------
// FaultPlan construction and validation.
// ---------------------------------------------------------------------------

TEST(FaultPlan, SortsEventsByCycleStably) {
  const FaultPlan plan({{50, FaultKind::kKillPe, 3, 0},
                        {10, FaultKind::kKillPe, 1, 0},
                        {50, FaultKind::kRevivePe, 1, 0},
                        {20, FaultKind::kDropMessages, 0, 4}});
  ASSERT_EQ(plan.events().size(), 4u);
  EXPECT_EQ(plan.events()[0].cycle, 10u);
  EXPECT_EQ(plan.events()[1].cycle, 20u);
  // Same-cycle events keep their given order (kill before revive).
  EXPECT_EQ(plan.events()[2].kind, FaultKind::kKillPe);
  EXPECT_EQ(plan.events()[3].kind, FaultKind::kRevivePe);
}

TEST(FaultPlan, RandomKillsIsDeterministicAndInRange) {
  const FaultPlan a = FaultPlan::random_kills(1234, 64, 5, 10, 100);
  const FaultPlan b = FaultPlan::random_kills(1234, 64, 5, 10, 100);
  EXPECT_EQ(a, b);  // same seed, same plan — across platforms too
  const FaultPlan c = FaultPlan::random_kills(1235, 64, 5, 10, 100);
  EXPECT_NE(a.events(), c.events());

  std::set<std::uint32_t> pes;
  for (const auto& e : a.events()) {
    EXPECT_EQ(e.kind, FaultKind::kKillPe);
    EXPECT_GE(e.cycle, 10u);
    EXPECT_LE(e.cycle, 100u);
    EXPECT_LT(e.pe, 64u);
    pes.insert(e.pe);
  }
  EXPECT_EQ(pes.size(), 5u);  // distinct PEs
  EXPECT_NO_THROW(a.validate(64));
}

TEST(FaultPlan, ValidateRejectsBadPlans) {
  EXPECT_THROW(FaultPlan({{0, FaultKind::kKillPe, 1, 0}}).validate(4),
               ConfigError);  // cycle 0 never fires
  EXPECT_THROW(FaultPlan({{5, FaultKind::kKillPe, 4, 0}}).validate(4),
               ConfigError);  // pe out of range
  EXPECT_THROW(FaultPlan({{5, FaultKind::kDropMessages, 0, 0}}).validate(4),
               ConfigError);  // dropping zero messages is meaningless
  // Killing every PE can never complete a search.
  EXPECT_THROW(FaultPlan({{5, FaultKind::kKillPe, 0, 0},
                          {6, FaultKind::kKillPe, 1, 0}})
                   .validate(2),
               ConfigError);
  // ... unless one is revived in between.
  EXPECT_NO_THROW(FaultPlan({{5, FaultKind::kKillPe, 0, 0},
                             {6, FaultKind::kRevivePe, 0, 0},
                             {7, FaultKind::kKillPe, 1, 0}})
                      .validate(2));
}

TEST(FaultPlan, RandomKillsRejectsBadArguments) {
  EXPECT_THROW(FaultPlan::random_kills(1, 0, 0, 1, 2), ConfigError);
  EXPECT_THROW(FaultPlan::random_kills(1, 4, 4, 1, 2), ConfigError);
  EXPECT_THROW(FaultPlan::random_kills(1, 4, 1, 0, 2), ConfigError);
  EXPECT_THROW(FaultPlan::random_kills(1, 4, 1, 9, 2), ConfigError);
}

// ---------------------------------------------------------------------------
// Conservation under faults: a degraded run explores exactly the fault-free
// tree — same expansions, same goals — and journals every recovered node.
// ---------------------------------------------------------------------------

TEST(FaultRecovery, PuzzleConservationUnderKills) {
  const auto& wl = puzzle::test_workloads()[1];  // t-4k
  const puzzle::FifteenPuzzle problem(wl.board());
  const auto serial = search::serial_ida(problem);

  for (const auto& cfg : {lb::gp_static(0.9), lb::gp_dk(), lb::ngp_dp()}) {
    const FaultPlan plan = FaultPlan::random_kills(77, 64, 9, 5, 60);
    simd::Machine machine(64, simd::cm2_cost_model());
    lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine, cfg);
    engine.arm_faults(&plan);
    const lb::RunStats rs = engine.run();

    EXPECT_EQ(rs.total.nodes_expanded, serial.total_expanded) << cfg.name();
    EXPECT_EQ(rs.solution_bound, serial.solution_bound) << cfg.name();
    EXPECT_EQ(rs.goals_found, serial.goals_found) << cfg.name();
    EXPECT_EQ(rs.total.pes_killed, 9u) << cfg.name();
    EXPECT_EQ(engine.alive(), 64u - 9u) << cfg.name();

    // The journal accounts for every re-donated node.
    std::uint64_t journaled = 0;
    for (const auto& rec : engine.recovery_journal()) journaled += rec.nodes;
    EXPECT_EQ(journaled, rs.total.nodes_recovered) << cfg.name();
  }
}

TEST(FaultRecovery, SyntheticConservationWithKillsRevivesAndDrops) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  const auto serial = search::serial_dfs(tree, tree.root(), kUnbounded);

  const FaultPlan plan({{4, FaultKind::kDropMessages, 0, 6},
                        {6, FaultKind::kKillPe, 3, 0},
                        {9, FaultKind::kKillPe, 17, 0},
                        {14, FaultKind::kRevivePe, 3, 0},
                        {20, FaultKind::kDropMessages, 0, 3},
                        {25, FaultKind::kKillPe, 11, 0}});
  for (const auto& cfg : {lb::gp_static(0.9), lb::gp_dp(), lb::ngp_dk()}) {
    simd::Machine machine(32, simd::cm2_cost_model());
    lb::Engine<synthetic::Tree> engine(tree, machine, cfg);
    engine.arm_faults(&plan);
    const lb::IterationStats it = engine.run_iteration(kUnbounded);

    EXPECT_EQ(it.nodes_expanded, serial.nodes_expanded) << cfg.name();
    EXPECT_EQ(it.goals_found, 0u) << cfg.name();
    EXPECT_EQ(it.pes_killed, 3u) << cfg.name();
    EXPECT_EQ(it.pes_revived, 1u) << cfg.name();
    EXPECT_EQ(engine.alive(), 30u) << cfg.name();
  }
}

TEST(FaultRecovery, DroppedMessagesAreCountedAndWasteCost) {
  // A drop-heavy plan on a scheme that balances eagerly: messages must be
  // recorded as dropped, the work must still all get done, and the wasted
  // rounds must cost simulated lb time (same accounting as useful rounds).
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  const auto serial = search::serial_dfs(tree, tree.root(), kUnbounded);
  const FaultPlan plan({{3, FaultKind::kDropMessages, 0, 20}});
  simd::Machine machine(32, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  engine.arm_faults(&plan);
  const lb::IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.nodes_expanded, serial.nodes_expanded);
  EXPECT_GT(it.messages_dropped, 0u);
  EXPECT_LE(it.messages_dropped, 20u);
}

TEST(FaultRecovery, RecoveryIsCostedOnTheMachineClock) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  const FaultPlan plan = FaultPlan::random_kills(5, 32, 6, 4, 30);
  simd::Machine machine(32, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  engine.arm_faults(&plan);
  const lb::IterationStats it = engine.run_iteration(kUnbounded);
  if (it.nodes_recovered > 0) {
    EXPECT_GT(it.recovery_rounds, 0u);
    EXPECT_GT(it.clock.recovery_time, 0.0);
    EXPECT_EQ(it.clock.recovery_rounds, it.recovery_rounds);
    // Recovery time must depress efficiency relative to an undisturbed run.
    simd::Machine clean_machine(32, simd::cm2_cost_model());
    lb::Engine<synthetic::Tree> clean(tree, clean_machine,
                                      lb::gp_static(0.9));
    const lb::IterationStats base = clean.run_iteration(kUnbounded);
    EXPECT_NE(it.clock.elapsed, base.clock.elapsed);
  }
}

// ---------------------------------------------------------------------------
// Determinism: fault runs are bit-identical across sweep thread counts.
// ---------------------------------------------------------------------------

TEST(FaultDeterminism, IdenticalAcrossSweepThreads) {
  // A small sweep of fault runs (distinct seeds per slot) must produce the
  // same slot-indexed results for 1, 2 and 8 host sweep threads.
  const synthetic::Tree tree(synthetic::Params{9011, 4, 0.400, 18});
  const std::size_t n = 6;

  auto sweep = [&](unsigned threads) {
    return runtime::sweep_map<lb::RunStats>(
        n,
        [&](std::size_t i) {
          const FaultPlan plan =
              FaultPlan::random_kills(100 + i, 32, 4, 3, 30);
          simd::Machine machine(32, simd::cm2_cost_model());
          lb::Engine<synthetic::Tree> engine(tree, machine,
                                             lb::gp_static(0.9));
          engine.arm_faults(&plan);
          return engine.run();
        },
        threads);
  };

  const auto serial = sweep(1);
  for (const unsigned threads : {2u, 8u}) {
    const auto parallel = sweep(threads);
    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(parallel[i], serial[i])
          << "slot " << i << " at " << threads << " sweep threads";
    }
  }
}

// ---------------------------------------------------------------------------
// The unarmed contract: no plan (or an empty plan) leaves the engine
// bit-identical to one that never saw the fault subsystem.
// ---------------------------------------------------------------------------

TEST(FaultTransparency, EmptyPlanIsBitIdenticalToUnarmed) {
  const auto& wl = puzzle::test_workloads()[1];
  const puzzle::FifteenPuzzle problem(wl.board());
  const FaultPlan empty;
  for (const auto& cfg : {lb::gp_static(0.9), lb::gp_dp(), lb::ngp_dk()}) {
    simd::Machine m1(64, simd::cm2_cost_model());
    lb::Engine<puzzle::FifteenPuzzle> unarmed(problem, m1, cfg);
    const lb::RunStats a = unarmed.run();

    simd::Machine m2(64, simd::cm2_cost_model());
    lb::Engine<puzzle::FifteenPuzzle> armed(problem, m2, cfg);
    armed.arm_faults(&empty);
    const lb::RunStats b = armed.run();

    EXPECT_EQ(a, b) << cfg.name();
    EXPECT_EQ(m1.clock(), m2.clock()) << cfg.name();
  }

  // The synthetic tree at P = 1024 under GP-S^0.90: the word step, the
  // summary-hopping lb walk over 16 plane words, and every fault-checking
  // branch taken each cycle with no event ever firing — on the scalar loop
  // (RowStep<Tree> has no kernel) and on the tree's own word kernel where
  // the CPU has AVX-512.
  const synthetic::SyntheticWorkload& syn = synthetic::test_workloads()[2];
  const auto expect_transparent = [&](const auto& tree, bool kernel) {
    using Tree = std::remove_cvref_t<decltype(tree)>;
    simd::Machine m1(1024, simd::cm2_cost_model());
    lb::Engine<Tree> unarmed(tree, m1, lb::gp_static(0.9));
    ASSERT_EQ(unarmed.step(), lb::ExpandStep::kWord);
    ASSERT_EQ(unarmed.uses_kernel(), kernel);
    const lb::RunStats a = unarmed.run();

    simd::Machine m2(1024, simd::cm2_cost_model());
    lb::Engine<Tree> armed(tree, m2, lb::gp_static(0.9));
    armed.arm_faults(&empty);
    const lb::RunStats b = armed.run();

    EXPECT_EQ(a.total.nodes_expanded, syn.w);
    EXPECT_GT(a.total.lb_phases, 0u);
    EXPECT_EQ(a, b);
    EXPECT_EQ(m1.clock(), m2.clock());
  };
  expect_transparent(oracle::RowStep<synthetic::Tree>(syn.params), false);
  expect_transparent(synthetic::Tree(syn.params),
                     vec::host_isa() == vec::Isa::kAvx512);
}

TEST(FaultTransparency, FaultCountersZeroWithoutAPlan) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  simd::Machine machine(32, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  const lb::IterationStats it = engine.run_iteration(kUnbounded);
  EXPECT_EQ(it.pes_killed, 0u);
  EXPECT_EQ(it.nodes_recovered, 0u);
  EXPECT_EQ(it.messages_dropped, 0u);
  EXPECT_EQ(it.clock.recovery_rounds, 0u);
  EXPECT_DOUBLE_EQ(it.clock.recovery_time, 0.0);
}

// ---------------------------------------------------------------------------
// Failure edges: killing everything, and the watchdog.
// ---------------------------------------------------------------------------

TEST(FaultEdge, ArmRejectsPlanTargetingMissingPes) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  simd::Machine machine(8, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  const FaultPlan plan({{5, FaultKind::kKillPe, 8, 0}});
  EXPECT_THROW(engine.arm_faults(&plan), ConfigError);
}

TEST(FaultEdge, ArmRejectsPlanKillingEveryPe) {
  // A plan that ever has every PE dead at once can never complete a search;
  // it is rejected statically at arm time (the engine keeps a runtime
  // FaultError check as defense-in-depth behind the same invariant).
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  simd::Machine machine(2, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  const FaultPlan plan({{2, FaultKind::kKillPe, 0, 0},
                        {3, FaultKind::kRevivePe, 0, 0},
                        {4, FaultKind::kKillPe, 0, 0},
                        {5, FaultKind::kKillPe, 1, 0}});
  EXPECT_THROW(engine.arm_faults(&plan), ConfigError);
}

TEST(FaultEdge, WatchdogThrowsTypedTimeout) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 14});
  simd::Machine machine(4, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> engine(tree, machine, lb::gp_static(0.9));
  engine.set_cycle_budget(10);
  try {
    (void)engine.run_iteration(kUnbounded);
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_EQ(e.cycles(), 10u);
    EXPECT_EQ(e.budget(), 10u);
  }
  // A generous budget does not fire.
  simd::Machine m2(4, simd::cm2_cost_model());
  lb::Engine<synthetic::Tree> ok(tree, m2, lb::gp_static(0.9));
  ok.set_cycle_budget(1u << 30);
  EXPECT_NO_THROW((void)ok.run_iteration(kUnbounded));
}

}  // namespace
}  // namespace simdts::fault
