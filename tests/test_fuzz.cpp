// Randomized property sweep: arbitrary scheme configurations on arbitrary
// small trees must always conserve work, terminate, keep the metric
// identities, and give identical results on every row source of the word
// step (the scalar expand_row loop, the tree kernel, and expand() output).
// The "random" draws are deterministic (seed-indexed), so a failure
// reproduces exactly.
#include <gtest/gtest.h>

#include "lb/engine.hpp"
#include "mimd/engine.hpp"
#include "search/serial.hpp"
#include "simd/cost_model.hpp"
#include "step_wrappers.hpp"
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"

namespace simdts {
namespace {

std::uint64_t mix(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xFF51AFD7ED558CCDULL;
  x ^= x >> 33;
  x *= 0xC4CEB9FE1A85EC53ULL;
  x ^= x >> 33;
  return x;
}

lb::SchemeConfig random_config(std::uint64_t seed) {
  lb::SchemeConfig cfg;
  const std::uint64_t h = mix(seed);
  cfg.match = static_cast<lb::MatchScheme>(h % 3);
  cfg.trigger = static_cast<lb::TriggerKind>((h >> 8) % 5);
  cfg.static_x = 0.3 + 0.65 * static_cast<double>((h >> 16) & 0xFF) / 255.0;
  cfg.multiple_transfers = ((h >> 24) & 1) != 0;
  cfg.max_pairs_per_round = ((h >> 25) & 3) == 0 ? 1 : 0;
  cfg.transfer = ((h >> 27) & 3) == 0
                     ? lb::TransferPolicy::kGiveOneNodeEach
                     : lb::TransferPolicy::kSplit;
  cfg.split = static_cast<search::SplitStrategy>((h >> 29) % 3);
  cfg.busy = ((h >> 31) & 1) != 0 ? lb::BusyPolicy::kNonEmpty
                                  : lb::BusyPolicy::kSplittable;
  cfg.record_trace = ((h >> 32) & 1) != 0;
  return cfg;
}

synthetic::Params random_tree(std::uint64_t seed) {
  const std::uint64_t h = mix(seed ^ 0xABCDEF);
  synthetic::Params params;
  params.seed = h;
  params.max_children = 2 + (h >> 8) % 3;           // 2..4
  params.fertility =
      0.30 + 0.25 * static_cast<double>((h >> 16) & 0xFF) / 255.0;
  params.max_depth = static_cast<std::uint16_t>(8 + (h >> 24) % 10);
  return params;
}

class FuzzSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSweep, EngineConservesAndTerminates) {
  const std::uint64_t seed = GetParam();
  const synthetic::Params tree_params = random_tree(seed);
  const synthetic::Tree tree(tree_params);
  const auto serial =
      search::serial_dfs(tree, tree.root(), search::kUnbounded);

  for (int variant = 0; variant < 4; ++variant) {
    const lb::SchemeConfig cfg = random_config(seed * 7 + variant);
    // Any P in 1..256, so partial flag words (P < 64, P not a multiple of
    // 64) are drawn as well as whole ones.
    const auto p = static_cast<std::uint32_t>(1 + mix(seed + variant) % 256);
    // The word step's scalar loop: RowStep<Tree> has no kernel at any P.
    simd::Machine machine(p, simd::cm2_cost_model());
    const oracle::RowStep<synthetic::Tree> scalar_tree(tree_params);
    lb::Engine<oracle::RowStep<synthetic::Tree>> engine(scalar_tree, machine,
                                                        cfg);
    ASSERT_FALSE(engine.uses_kernel());
    const lb::IterationStats it = engine.run_iteration(search::kUnbounded);

    ASSERT_EQ(it.nodes_expanded, serial.nodes_expanded)
        << "seed=" << seed << " cfg=" << cfg.name() << " P=" << p;
    // The kernel axis: the tree itself takes its word kernel at P >= 64
    // where the CPU has AVX-512, and must reproduce every result.
    simd::Machine kernel_machine(p, simd::cm2_cost_model());
    lb::Engine<synthetic::Tree> kernel_engine(tree, kernel_machine, cfg);
    ASSERT_EQ(kernel_engine.uses_kernel(),
              p >= 64 && vec::host_isa() == vec::Isa::kAvx512);
    EXPECT_EQ(kernel_engine.run_iteration(search::kUnbounded), it)
        << "seed=" << seed << " cfg=" << cfg.name() << " P=" << p;
    // The row-source axis: the same config on the expand() row source (a
    // wrapper without expand_row) must reproduce every result.
    simd::Machine expand_machine(p, simd::cm2_cost_model());
    const oracle::ExpandOnly<synthetic::Tree> expand_tree(tree_params);
    lb::Engine<oracle::ExpandOnly<synthetic::Tree>> expand_engine(
        expand_tree, expand_machine, cfg);
    EXPECT_EQ(expand_engine.run_iteration(search::kUnbounded), it)
        << "seed=" << seed << " cfg=" << cfg.name() << " P=" << p;
    EXPECT_GE(it.lb_rounds, it.lb_phases);
    EXPECT_GE(it.transfers, it.lb_rounds > 0 ? 1u : 0u);
    EXPECT_GT(it.efficiency(), 0.0);
    EXPECT_LE(it.efficiency(), 1.0);
    if (cfg.record_trace) {
      EXPECT_EQ(it.trace.size(), it.expand_cycles);
    }
    // Accounting identity: T_calc + T_idle = P * cycles * t_expand.
    EXPECT_DOUBLE_EQ(
        it.clock.calc_time + it.clock.idle_time,
        static_cast<double>(p) * static_cast<double>(it.expand_cycles) *
            machine.cost().t_expand);
  }
}

TEST_P(FuzzSweep, MimdConservesAndTerminates) {
  const std::uint64_t seed = GetParam();
  const synthetic::Tree tree(random_tree(seed));
  const auto serial =
      search::serial_dfs(tree, tree.root(), search::kUnbounded);

  const std::uint64_t h = mix(seed ^ 0x51EA1);
  mimd::MimdConfig cfg;
  cfg.policy = static_cast<mimd::StealPolicy>(h % 3);
  cfg.latency = 1 + (h >> 8) % 6;
  cfg.seed = h;
  const auto p = static_cast<std::uint32_t>(1 + (h >> 16) % 256);  // 1..256
  mimd::MimdEngine<synthetic::Tree> engine(tree, p, cfg);
  const mimd::MimdStats stats = engine.run_iteration(search::kUnbounded);
  ASSERT_EQ(stats.nodes_expanded, serial.nodes_expanded)
      << "seed=" << seed << " policy=" << mimd::to_string(cfg.policy)
      << " P=" << p << " lat=" << cfg.latency;
  EXPECT_GE(stats.steps, serial.nodes_expanded / p);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSweep,
                         ::testing::Range<std::uint64_t>(1, 25));

}  // namespace
}  // namespace simdts
