// Micro-benchmarks of the substrate primitives (google-benchmark).
//
// These are not paper experiments; they document the cost of the pieces the
// simulation is built from — node expansion, scans, matching — so that the
// simulated cost model's ratio (t_lb / t_expand) can be put in context with
// the emulator's actual host-side costs.
#include <benchmark/benchmark.h>

#include <random>
#include <vector>

#include "lb/matching.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "search/work_stack.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/scan.hpp"
#include "synthetic/tree.hpp"

namespace {

using namespace simdts;

/// Random busy/idle occupancy (complementary, like a live machine) as byte
/// planes plus their packed equivalents.
struct Occupancy {
  std::vector<std::uint8_t> busy;
  std::vector<std::uint8_t> idle;
  simd::BitPlane busy_plane;
  simd::BitPlane idle_plane;
};

Occupancy make_occupancy(std::size_t p, std::uint32_t seed,
                         unsigned busy_of_10) {
  Occupancy o;
  std::mt19937 rng(seed);
  o.busy.resize(p);
  o.idle.resize(p);
  o.busy_plane.assign(p, false);
  o.idle_plane.assign(p, false);
  for (std::size_t i = 0; i < p; ++i) {
    o.busy[i] = (rng() % 10) < busy_of_10;
    o.idle[i] = !o.busy[i];
    o.busy_plane.set(i, o.busy[i] != 0);
    o.idle_plane.set(i, o.idle[i] != 0);
  }
  return o;
}

void BM_PuzzleExpand(benchmark::State& state) {
  const puzzle::FifteenPuzzle problem(puzzle::random_walk(7, 80));
  std::vector<puzzle::FifteenPuzzle::Node> frontier{problem.root()};
  std::vector<puzzle::FifteenPuzzle::Node> children;
  search::NextBound nb;
  std::size_t i = 0;
  std::uint64_t expanded = 0;
  for (auto _ : state) {
    children.clear();
    problem.expand(frontier[i], search::kUnbounded, children, nb);
    benchmark::DoNotOptimize(children.data());
    for (const auto& c : children) {
      if (frontier.size() < 4096) frontier.push_back(c);
    }
    i = (i + 1) % frontier.size();
    ++expanded;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(expanded));
}
BENCHMARK(BM_PuzzleExpand);

void BM_PuzzleManhattanFull(benchmark::State& state) {
  const puzzle::Board b = puzzle::random_walk(11, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puzzle::manhattan(b));
  }
}
BENCHMARK(BM_PuzzleManhattanFull);

void BM_PuzzleLinearConflict(benchmark::State& state) {
  const puzzle::Board b = puzzle::random_walk(11, 60);
  for (auto _ : state) {
    benchmark::DoNotOptimize(puzzle::linear_conflict(b));
  }
}
BENCHMARK(BM_PuzzleLinearConflict);

void BM_SyntheticExpand(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  std::vector<synthetic::Tree::Node> frontier{tree.root()};
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  std::size_t i = 0;
  for (auto _ : state) {
    children.clear();
    tree.expand(frontier[i], search::kUnbounded, children, nb);
    benchmark::DoNotOptimize(children.data());
    for (const auto& c : children) {
      if (frontier.size() < 4096) frontier.push_back(c);
    }
    i = (i + 1) % frontier.size();
  }
}
BENCHMARK(BM_SyntheticExpand);

void BM_InclusiveScan(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint32_t> in(n, 1);
  std::vector<std::uint32_t> out(n);
  for (auto _ : state) {
    simd::inclusive_scan<std::uint32_t>(in, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_InclusiveScan)->Arg(1 << 10)->Arg(1 << 13)->Arg(1 << 16);

void BM_Rendezvous(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 99, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::rendezvous(o.busy, o.idle, 17));
  }
}
BENCHMARK(BM_Rendezvous)->Arg(1 << 10)->Arg(1 << 13);

void BM_RendezvousBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 99, 7);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    simd::rendezvous_into(o.busy_plane, o.idle_plane, 17,
                          static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_RendezvousBitPlane)->Arg(1 << 10)->Arg(1 << 13);

void BM_GpMatchPhase(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 42, 8);
  lb::Matcher matcher(lb::MatchScheme::kGP);
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.match(o.busy, o.idle));
  }
}
BENCHMARK(BM_GpMatchPhase)->Arg(1 << 13);

void BM_GpMatchPhaseBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 42, 8);
  lb::Matcher matcher(lb::MatchScheme::kGP);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    matcher.match_into(o.busy_plane, o.idle_plane,
                       static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_GpMatchPhaseBitPlane)->Arg(1 << 13);

// --- Bit-plane substrate vs byte-plane scalar reference -------------------
// The engine's per-cycle bookkeeping is census (how many PEs are busy),
// enumeration (sum-scan the idle plane into compacted indices), and ring
// pairing.  Each packed kernel is benchmarked against the byte kernel it
// displaced, on the same occupancy.

void BM_CensusBytes(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 7, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::count_set(o.busy));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CensusBytes)->Arg(1 << 10)->Arg(1 << 14);

void BM_CensusBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 7, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::count_set(o.busy_plane));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CensusBitPlane)->Arg(1 << 10)->Arg(1 << 14);

// Second arg: busy lanes out of 10, so the enumerated idle plane ranges
// from sparse (busy=9 -> 10% idle) to dense (busy=1 -> 90% idle).  The
// packed kernel is a branch-free byte-table expansion whose cost must not
// depend on occupancy; the byte kernel's per-lane branch does.
void BM_EnumerateBytes(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto busy = static_cast<unsigned>(state.range(1));
  const Occupancy o = make_occupancy(p, 13, busy);
  std::vector<std::uint32_t> ranks(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::enumerate(o.idle, ranks));
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_EnumerateBytes)
    ->Args({1 << 10, 7})
    ->Args({1 << 14, 9})
    ->Args({1 << 14, 7})
    ->Args({1 << 14, 1});

void BM_EnumerateBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const auto busy = static_cast<unsigned>(state.range(1));
  const Occupancy o = make_occupancy(p, 13, busy);
  std::vector<std::uint32_t> ranks(p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(simd::enumerate(o.idle_plane, ranks));
    benchmark::DoNotOptimize(ranks.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_EnumerateBitPlane)
    ->Args({1 << 10, 7})
    ->Args({1 << 14, 9})
    ->Args({1 << 14, 7})
    ->Args({1 << 14, 1});

void BM_NeighborPairsBytes(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 21, 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(lb::neighbor_pairs(o.busy, o.idle));
  }
}
BENCHMARK(BM_NeighborPairsBytes)->Arg(1 << 13);

void BM_NeighborPairsBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 21, 5);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    lb::neighbor_pairs_into(o.busy_plane, o.idle_plane, pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_NeighborPairsBitPlane)->Arg(1 << 13);

// Batched child staging: the old per-child push path (clear + push_back per
// node) vs the flat staging buffer + run-append the expansion loop now uses.
// Read these two as a parity check, not a race: both variants spend their
// time inside tree.expand, and the staging difference is a handful of
// memory-bound node copies per expansion, so they time within noise of each
// other (~1.0x).  The batched path is shipped because the single run-append
// amortizes the stack's bounds/ownership checks and is the shape the
// engine's batched 15-puzzle step scatters from — not because this
// microbenchmark shows a win.
void BM_ChildStagingPerNode(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  search::WorkStack<synthetic::Tree::Node> stack;
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  stack.push(tree.root());
  for (auto _ : state) {
    if (stack.empty()) stack.push(tree.root());
    const auto n = stack.pop();
    children.clear();
    tree.expand(n, search::kUnbounded, children, nb);
    for (const auto& c : children) {
      if (stack.size() < (1u << 11)) stack.push(c);
    }
    benchmark::DoNotOptimize(stack.size());
  }
}
BENCHMARK(BM_ChildStagingPerNode);

void BM_ChildStagingBatched(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{5, 4, 0.38, 30});
  search::WorkStack<synthetic::Tree::Node> stack;
  std::vector<synthetic::Tree::Node> children;
  search::NextBound nb;
  stack.push(tree.root());
  for (auto _ : state) {
    if (stack.empty()) stack.push(tree.root());
    const auto n = stack.pop();
    const std::size_t staged = children.size();
    tree.expand(n, search::kUnbounded, children, nb);
    const std::size_t added = children.size() - staged;
    if (added != 0 && stack.size() + added <= (1u << 11)) {
      stack.append(children.data() + staged, added);
    }
    children.resize(staged);
    benchmark::DoNotOptimize(stack.size());
  }
}
BENCHMARK(BM_ChildStagingBatched);

}  // namespace

BENCHMARK_MAIN();
