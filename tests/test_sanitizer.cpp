// SimdSan's mutation-test suite: each determinism discipline is deliberately
// broken behind a test-only hook and the test asserts the sanitizer fires
// with the *right* diagnostic (SanitizerError::invariant()), not merely that
// something threw.  A detector you have never seen detect is indistinguishable
// from a detector that is wired to nothing.
//
// The file compiles in both build flavors.  In a default build only the
// compiled-in flag is checked here — the symbol-level zero-cost proof is the
// lint.sanitizer_zero_cost ctest (nm over libsimdts.a), which runs in both
// build flavors.
#include "sanitizer/sanitizer.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

#ifdef SIMDTS_SANITIZE
#include <cstdint>
#include <utility>

#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "lb/engine.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "puzzle/workloads.hpp"
#include "search/compact_stack.hpp"
#include "search/work_stack.hpp"
#include "simd/bitplane.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"
#endif

namespace simdts {
namespace {

TEST(Sanitizer, CompiledInFlagMatchesBuild) {
#ifdef SIMDTS_SANITIZE
  EXPECT_TRUE(san::kCompiledIn);
#else
  // The zero-overhead contract of the default build: the flag is the only
  // thing this TU may see of the sanitizer (symbols are checked by
  // lint.sanitizer_zero_cost).
  EXPECT_FALSE(san::kCompiledIn);
#endif
}

TEST(Sanitizer, ErrorCarriesInvariantTag) {
  const SanitizerError e("tail-bits", "plane has bits past size()");
  EXPECT_EQ(e.invariant(), "tail-bits");
  EXPECT_STREQ(e.what(), "[sanitizer:tail-bits] plane has bits past size()");
}

#ifdef SIMDTS_SANITIZE

/// Clears every mutation hook and re-arms the sanitizer on scope exit, so a
/// failing test cannot leak a broken-on-purpose configuration into the next.
struct MutationGuard {
  MutationGuard() { san::mutation().reset(); }
  ~MutationGuard() {
    san::mutation().reset();
    san::set_armed(true);
  }
};

/// Runs `fn` and asserts it throws SanitizerError naming `invariant`.
template <typename Fn>
void expect_fires(const char* invariant, Fn&& fn) {
  try {
    std::forward<Fn>(fn)();
    FAIL() << "expected SanitizerError(" << invariant << "), nothing thrown";
  } catch (const SanitizerError& e) {
    EXPECT_EQ(e.invariant(), invariant) << "wrong diagnostic: " << e.what();
  }
}

/// synthetic::Tree behind a wrapper without expand_row(): the same tree on
/// the word step's expand() row source.
using ExpandTree = oracle::ExpandOnly<synthetic::Tree>;
/// synthetic::Tree behind a wrapper with expand_row() but no kernel: the
/// word step's scalar loop at every P.
using ScalarTree = oracle::RowStep<synthetic::Tree>;

/// Whether the host runs the synthetic-tree kernel (AVX-512 only).
bool tree_kernel_runs() { return vec::host_isa() == vec::Isa::kAvx512; }

/// A moderate synthetic-tree run that exercises expansion, lb phases and
/// (with a plan) the kill/recovery path — the scenario every engine-level
/// mutation test perturbs.  `Problem` picks the word step's row source:
/// ScalarTree takes its scalar loop, ExpandTree its expand() output, and
/// each mutation test runs both; the Tree itself takes its word kernel at
/// P >= 64 where the CPU has AVX-512 (the scalar loop elsewhere).
template <typename Problem = ScalarTree>
lb::RunStats run_synthetic(std::uint32_t p,
                           const fault::FaultPlan* plan = nullptr) {
  const Problem tree(synthetic::Params{9013, 4, 0.395, 14});
  simd::Machine machine(p, simd::cm2_cost_model());
  lb::Engine<Problem> engine(tree, machine, lb::gp_static(0.9));
  EXPECT_EQ(engine.uses_kernel(), vec::kHasKernel<Problem> && p >= 64 &&
                                      tree_kernel_runs());
  if (plan != nullptr) engine.arm_faults(plan);
  return engine.run();
}

/// The same scenario on the word step through the 15-puzzle kernel (P >= 64,
/// Manhattan), so every engine mutation is also seen through the kernel's
/// gather/scatter.
lb::RunStats run_batched_puzzle(std::uint32_t p,
                                const fault::FaultPlan* plan = nullptr) {
  const puzzle::FifteenPuzzle problem(puzzle::test_workloads()[2].board());
  simd::Machine machine(p, simd::cm2_cost_model());
  lb::Engine<puzzle::FifteenPuzzle> engine(problem, machine,
                                           lb::gp_static(0.9));
  EXPECT_TRUE(engine.uses_kernel());
  if (plan != nullptr) engine.arm_faults(plan);
  return engine.run();
}

#define SKIP_WITHOUT_AVX2()                                              \
  if (vec::host_isa() < vec::Isa::kAvx2) {                               \
    GTEST_SKIP() << "host CPU lacks AVX2/BMI2: no kernel path to test";  \
  }

// ---------------------------------------------------------------------------
// Positive control: armed, unmutated runs pass every check and the checks
// never change simulated results.
// ---------------------------------------------------------------------------

TEST(Sanitizer, CleanRunPassesAllChecksArmedAndDisarmed) {
  MutationGuard guard;
  // Arming the checks must change no simulated result: the whole RunStats
  // of an armed run equals the disarmed run's, on every row source.
  const auto armed_equals_disarmed = [](auto run) {
    san::set_armed(true);
    const lb::RunStats armed = run();
    san::set_armed(false);
    const lb::RunStats disarmed = run();
    san::set_armed(true);
    EXPECT_EQ(armed, disarmed);
    return armed;
  };
  const lb::RunStats row =
      armed_equals_disarmed([] { return run_synthetic(64); });
  const lb::RunStats expand =
      armed_equals_disarmed([] { return run_synthetic<ExpandTree>(64); });
  EXPECT_EQ(expand, row);
  if (vec::host_isa() >= vec::Isa::kAvx2) {
    armed_equals_disarmed([] { return run_batched_puzzle(64); });
  }
  // The tree's own word kernel (the scalar loop without AVX-512).
  EXPECT_EQ(armed_equals_disarmed(
                [] { return run_synthetic<synthetic::Tree>(64); }),
            row);
}

TEST(Sanitizer, CleanBatchedPuzzleRunPassesAllChecks) {
  SKIP_WITHOUT_AVX2();
  MutationGuard guard;
  const fault::FaultPlan plan({{2, fault::FaultKind::kKillPe, 0, 0}});
  EXPECT_NO_THROW(run_batched_puzzle(64));
  EXPECT_NO_THROW(run_batched_puzzle(100, &plan));
}

TEST(Sanitizer, CleanFaultRunPassesAllChecks) {
  MutationGuard guard;
  const fault::FaultPlan plan =
      fault::FaultPlan::random_kills(77, 64, 9, 5, 60);
  EXPECT_NO_THROW(run_synthetic(64, &plan));
  EXPECT_NO_THROW(run_synthetic<ExpandTree>(64, &plan));
}

// ---------------------------------------------------------------------------
// Mutation tests: one per invariant.
// ---------------------------------------------------------------------------

TEST(SanitizerMutation, ExpandingADeadLaneTripsDeadLane) {
  MutationGuard guard;
  san::mutation().expand_dead_lane = true;
  const fault::FaultPlan plan({{2, fault::FaultKind::kKillPe, 0, 0}});
  // With the dead mask ignored, lane 0 re-enters the active set the cycle
  // after its kill; the shadow plane catches the expansion read.
  expect_fires("dead-lane", [&] { run_synthetic(64, &plan); });
  expect_fires("dead-lane", [&] { run_synthetic<ExpandTree>(64, &plan); });
}

TEST(SanitizerMutation, DonationFromADeadLaneTripsDeadLane) {
  MutationGuard guard;
  san::mutation().donate_from_dead = true;
  const fault::FaultPlan plan({{2, fault::FaultKind::kKillPe, 0, 0}});
  expect_fires("dead-lane", [&] { run_synthetic(64, &plan); });
  expect_fires("dead-lane", [&] { run_synthetic<ExpandTree>(64, &plan); });
}

TEST(SanitizerMutation, DuplicateMatchPairTripsDoubleDonation) {
  MutationGuard guard;
  san::mutation().duplicate_match_pair = true;
  // Fires at the first rendezvous round that matches two or more pairs.
  expect_fires("double-donation", [] { run_synthetic(64); });
  expect_fires("double-donation", [] { run_synthetic<ExpandTree>(64); });
}

TEST(SanitizerMutation, CorruptedTailTripsTailBits) {
  MutationGuard guard;
  san::mutation().corrupt_tail = true;
  // P=100 leaves 28 invalid tail bits in the last word for the mutation to
  // flip (at P%64==0 there is no tail and the mutation is a no-op).
  expect_fires("tail-bits", [] { run_synthetic(100); });
  expect_fires("tail-bits", [] { run_synthetic<ExpandTree>(100); });
}

TEST(SanitizerMutation, DroppedCensusDeltaTripsCensusDivergence) {
  MutationGuard guard;
  // Zeroes the walk's splittable delta before the cycle's fold.
  san::mutation().drop_census_delta = true;
  expect_fires("census-divergence", [] { run_synthetic(64); });
  expect_fires("census-divergence", [] { run_synthetic<ExpandTree>(64); });
}

// The engine mutations again, on the word step through the kernel.

TEST(SanitizerMutation, ExpandingADeadLaneTripsDeadLaneBatched) {
  SKIP_WITHOUT_AVX2();
  MutationGuard guard;
  san::mutation().expand_dead_lane = true;
  const fault::FaultPlan plan({{2, fault::FaultKind::kKillPe, 0, 0}});
  expect_fires("dead-lane", [&] { run_batched_puzzle(64, &plan); });
  expect_fires("dead-lane",
               [&] { run_synthetic<synthetic::Tree>(64, &plan); });
}

TEST(SanitizerMutation, CorruptedTailTripsTailBitsBatched) {
  SKIP_WITHOUT_AVX2();
  MutationGuard guard;
  san::mutation().corrupt_tail = true;
  expect_fires("tail-bits", [] { run_batched_puzzle(100); });
  expect_fires("tail-bits", [] { run_synthetic<synthetic::Tree>(100); });
}

TEST(SanitizerMutation, DroppedCensusDeltaTripsCensusDivergenceBatched) {
  SKIP_WITHOUT_AVX2();
  MutationGuard guard;
  san::mutation().drop_census_delta = true;
  expect_fires("census-divergence", [] { run_batched_puzzle(64); });
  expect_fires("census-divergence",
               [] { run_synthetic<synthetic::Tree>(64); });
}

/// One run on the word step over stack `StackT`, for the row-commit
/// mutations; `kernel` says whether it must take a word kernel.
template <typename Problem, typename StackT>
void run_word(const Problem& problem, std::uint32_t p, bool kernel) {
  simd::Machine machine(p, simd::cm2_cost_model());
  lb::Engine<Problem, StackT> engine(problem, machine, lb::gp_static(0.9));
  EXPECT_EQ(engine.uses_kernel(), kernel);
  engine.run();
}

/// The word step's settle commits (Lanes::settle_word, which commits every
/// lane's last slot group) on every shape, over the stacks `StackOf`
/// picks: a four-slot tree (one group), a nine-slot tree (the group loop
/// commits the earlier groups) and the linear-conflict 15-puzzle (no
/// kernel), each inside one flag word and across three.  The trees run
/// three times: on the scalar loop (ScalarTree), on the expand() row source
/// (ExpandTree) and through the tree kernel where the CPU has AVX-512.
template <template <typename> typename StackOf>
void expect_overcommit_fires() {
  const synthetic::Params narrow{9013, 4, 0.395, 14};
  const synthetic::Params wide{9013, 9, 1.5 / 9, 12};
  const puzzle::FifteenPuzzle puzzle(puzzle::test_workloads()[2].board(),
                                     puzzle::Heuristic::kLinearConflict);
  for (const std::uint32_t p : {64u, 130u}) {
    for (const synthetic::Params& params : {narrow, wide}) {
      expect_fires("row-commit", [&] {
        run_word<ScalarTree, StackOf<ScalarTree>>(ScalarTree(params), p,
                                                  false);
      });
      expect_fires("row-commit", [&] {
        run_word<ExpandTree, StackOf<ExpandTree>>(ExpandTree(params), p,
                                                  false);
      });
      expect_fires("row-commit", [&] {
        run_word<synthetic::Tree, StackOf<synthetic::Tree>>(
            synthetic::Tree(params), p, tree_kernel_runs());
      });
    }
    expect_fires("row-commit", [&] {
      run_word<puzzle::FifteenPuzzle, StackOf<puzzle::FifteenPuzzle>>(
          puzzle, p, false);
    });
  }
}

template <typename P>
using WorkStackOf = search::WorkStack<typename P::Node>;
template <typename P>
using CompactStackOf = search::CompactStack<P>;

TEST(SanitizerMutation, OvercommittedRowTripsRowCommit) {
  MutationGuard guard;
  // The word step commits five children into its four-slot top row, from
  // every row source.
  san::mutation().overcommit_row = true;
  expect_fires("row-commit", [] { run_synthetic(64); });
  expect_fires("row-commit", [] { run_synthetic<ExpandTree>(64); });
  expect_overcommit_fires<WorkStackOf>();
}

TEST(SanitizerMutation, OvercommittedRowTripsRowCommitCompact) {
  MutationGuard guard;
  // The same mutation on CompactStack lanes: commit() checks the count
  // before it encodes a single record from the staging row.
  san::mutation().overcommit_row = true;
  expect_overcommit_fires<CompactStackOf>();
}

TEST(SanitizerMutation, OvercommittedRowTripsRowCommitBatched) {
  SKIP_WITHOUT_AVX2();
  MutationGuard guard;
  san::mutation().overcommit_row = true;
  expect_fires("row-commit", [] { run_batched_puzzle(64); });
}

TEST(SanitizerMutation, UnsortedFaultPlanTripsPlanOrder) {
  MutationGuard guard;
  san::mutation().skip_plan_sort = true;
  expect_fires("plan-order", [] {
    const fault::FaultPlan plan({{50, fault::FaultKind::kKillPe, 3, 0},
                                 {10, fault::FaultKind::kKillPe, 1, 0}});
    (void)plan;  // unreachable: the ctor's order verification throws
  });
}

// ---------------------------------------------------------------------------
// Direct checks on the primitive detectors.
// ---------------------------------------------------------------------------

TEST(SanitizerPrimitives, StackUnderflowIsCaught) {
  MutationGuard guard;
  search::WorkStack<int> stack;
  expect_fires("stack-underflow", [&] { stack.pop(); });
  expect_fires("stack-underflow", [&] { stack.take_bottom(); });
  stack.push(7);
  EXPECT_EQ(stack.pop(), 7);  // a legal pop stays legal
}

TEST(SanitizerPrimitives, RowCommitNeedsAReservedRowOfFour) {
  MutationGuard guard;
  search::WorkStack<int> stack;
  // No top_row() reservation pending.
  expect_fires("row-commit", [&] { stack.commit(0); });
  (void)stack.top_row();
  expect_fires("row-commit", [&] { stack.commit(5); });
  EXPECT_NO_THROW(stack.commit(4));  // a full row is legal
  EXPECT_EQ(stack.size(), 4u);
  // A commit consumes its reservation.
  expect_fires("row-commit", [&] { stack.commit(1); });
}

TEST(SanitizerPrimitives, CompactRowCommitNeedsAReservedRowOfFour) {
  MutationGuard guard;
  const synthetic::Tree tree(synthetic::Params{42, 4, 0.9, 12});
  search::CompactStack<synthetic::Tree> stack;
  stack.bind(tree);
  stack.push(tree.root());
  const synthetic::Tree::Node root = stack.pop();
  // No top_row() reservation pending.
  expect_fires("row-commit", [&] { stack.commit(0); });
  search::NextBound nb;
  const std::uint32_t k = tree.expand_row(root, 0, stack.top_row(), nb, 0);
  ASSERT_GT(k, 0u);
  expect_fires("row-commit", [&] { stack.commit(5); });
  EXPECT_NO_THROW(stack.commit(k));
  EXPECT_EQ(stack.size(), k);
  // A commit consumes its reservation.
  expect_fires("row-commit", [&] { stack.commit(1); });
}

TEST(SanitizerPrimitives, LaneBoundsAreCaught) {
  MutationGuard guard;
  simd::BitPlane plane(10);
  expect_fires("lane-bounds", [&] { (void)plane.test(10); });
  expect_fires("lane-bounds", [&] { plane.set(10); });
  EXPECT_NO_THROW(plane.set(9));
}

TEST(SanitizerPrimitives, DisarmedChecksNeverFire) {
  MutationGuard guard;
  san::set_armed(false);
  search::WorkStack<int> stack;
  EXPECT_NO_THROW((void)stack.size());
  simd::BitPlane plane(10);
  EXPECT_NO_THROW((void)plane.test(10));  // out of range, but disarmed
  const std::uint64_t cycles[] = {50, 10};
  EXPECT_NO_THROW(san::verify_plan_cycles(cycles, 2));
}

TEST(SanitizerPrimitives, DeadLaneShadowTracksKillAndRevive) {
  MutationGuard guard;
  san::DeadLaneShadow shadow;
  shadow.resize(8);
  EXPECT_NO_THROW(shadow.check_alive(3, "expand"));
  shadow.mark_dead(3);
  expect_fires("dead-lane", [&] { shadow.check_alive(3, "expand"); });
  shadow.mark_alive(3);
  EXPECT_NO_THROW(shadow.check_alive(3, "expand"));
}

#endif  // SIMDTS_SANITIZE

}  // namespace
}  // namespace simdts
