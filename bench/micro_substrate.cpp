// Micro-benchmarks of the substrate primitives (google-benchmark).
//
// These are not paper experiments; they document the cost of the pieces the
// simulation is built from — node expansion, matching — so that the
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
#include "simd/summary.hpp"
#include "synthetic/tree.hpp"

namespace {

using namespace simdts;

/// Busy/idle occupancy (disjoint, like a live machine) as packed planes
/// plus the summaries the shipped lb kernels hop by.
struct Occupancy {
  simd::BitPlane busy;
  simd::BitPlane idle;
  simd::SummaryPlane busy_summary;
  simd::SummaryPlane idle_summary;

  explicit Occupancy(std::size_t p) : busy(p), idle(p) {
    busy_summary.assign_for_lanes(p);
    idle_summary.assign_for_lanes(p);
  }

  void summarize() {
    busy_summary.rebuild(busy);
    idle_summary.rebuild(idle);
  }
};

/// Dense occupancy: each lane busy with probability busy_of_10 / 10, idle
/// otherwise.
Occupancy make_occupancy(std::size_t p, std::uint32_t seed,
                         unsigned busy_of_10) {
  Occupancy o(p);
  std::mt19937 rng(seed);
  for (std::size_t i = 0; i < p; ++i) {
    const bool busy = (rng() % 10) < busy_of_10;
    o.busy.set(i, busy);
    o.idle.set(i, !busy);
  }
  o.summarize();
  return o;
}

/// Sparse occupancy: 1024 busy and 1024 idle lanes scattered over P (busy
/// wins collisions, so the sets stay disjoint) — the mega-P case the
/// summary hop is for.
Occupancy make_sparse_occupancy(std::size_t p) {
  Occupancy o(p);
  for (std::uint32_t i = 0; i < 1024; ++i) {
    o.busy.set(synthetic::Tree::hash2(0xB05B, i) % p, true);
    o.idle.set(synthetic::Tree::hash2(0x1D1E, i) % p, true);
  }
  for (std::size_t w = 0; w < o.idle.words().size(); ++w) {
    o.idle.words()[w] &= ~o.busy.words()[w];
  }
  o.summarize();
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

// --- Load-balancing kernels ------------------------------------------------
// The engine's lb phase runs one of these per round: the GP matcher (the
// summary-hopping rendezvous plus the pointer advance) or the ring pairing
// of the Frye baseline.  All run on the dense occupancy of a loaded machine,
// plus the census every cycle takes.

void BM_RendezvousBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 99, 7);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    simd::rendezvous_into(o.busy, o.busy_summary, o.idle, o.idle_summary, 17,
                          static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_RendezvousBitPlane)->Arg(1 << 10)->Arg(1 << 13);

void BM_GpMatchPhaseBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 42, 8);
  lb::Matcher matcher(lb::MatchScheme::kGP);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    matcher.match_into(o.busy, o.busy_summary, o.idle, o.idle_summary,
                       static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_GpMatchPhaseBitPlane)->Arg(1 << 13);

void BM_NeighborPairsBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 21, 5);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    lb::neighbor_pairs_into(o.busy, o.busy_summary, o.idle, pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_NeighborPairsBitPlane)->Arg(1 << 13);

void BM_CensusBitPlane(benchmark::State& state) {
  const auto p = static_cast<std::size_t>(state.range(0));
  const Occupancy o = make_occupancy(p, 7, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(o.busy.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(p));
}
BENCHMARK(BM_CensusBitPlane)->Arg(1 << 10)->Arg(1 << 14);

// Flat vs hierarchical rendezvous on a sparse P = 2^20 plane (1024 busy,
// 1024 idle): the flat walk loads all 16384 words of each plane, the
// summary walk hops between the ~2000 occupied ones.  Read the pair as the
// size of the summary's win at mega-P.
void BM_SparseMegaRendezvousFlat(benchmark::State& state) {
  const Occupancy o = make_sparse_occupancy(std::size_t{1} << 20);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    simd::rendezvous_into(o.busy, o.idle, simd::kNoPe,
                          static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_SparseMegaRendezvousFlat);

void BM_SparseMegaRendezvousHierarchical(benchmark::State& state) {
  const Occupancy o = make_sparse_occupancy(std::size_t{1} << 20);
  std::vector<simd::Pair> pairs;
  for (auto _ : state) {
    simd::rendezvous_into(o.busy, o.busy_summary, o.idle, o.idle_summary,
                          simd::kNoPe, static_cast<std::size_t>(-1), pairs);
    benchmark::DoNotOptimize(pairs.data());
  }
}
BENCHMARK(BM_SparseMegaRendezvousHierarchical);

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
