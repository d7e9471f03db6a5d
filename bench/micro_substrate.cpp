// Micro-benchmarks of the substrate primitives (google-benchmark).
//
// These are not paper experiments; they document the cost of the pieces the
// simulation is built from — node expansion (per node and batched),
// matching — so that the simulated cost model's ratio (t_lb / t_expand) can
// be put in context with the emulator's actual host-side costs.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdint>
#include <random>
#include <vector>

#include "lb/matching.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/heuristic.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/summary.hpp"
#include "synthetic/tree.hpp"
#include "vec/expand.hpp"

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

/// Skips the benchmark (and says why) when the host CPU cannot run the
/// kernel build `isa`; returns whether it can.
bool host_runs(benchmark::State& state, vec::Isa isa) {
  if (vec::host_isa() >= isa) return true;
  state.SkipWithError(isa == vec::Isa::kAvx512
                          ? "host CPU lacks AVX-512 F/DQ/VL/BW"
                          : "host CPU lacks AVX2/BMI2");
  return false;
}

// One batched 15-puzzle kernel call over a full flag word (64 nodes into
// 64 scratch rows), the batched step's expansion cost without its gather:
// sec_per_node reads as the kernel's time per node.  The argument is the
// build: 1 AVX2, 2 AVX-512 (vec::Isa).
void BM_FifteenKernel(benchmark::State& state) {
  const auto isa = static_cast<vec::Isa>(state.range(0));
  if (!host_runs(state, isa)) return;
  const puzzle::FifteenPuzzle problem(puzzle::random_walk(7, 80));
  const search::Bound bound = problem.f_value(problem.root()) + 6;
  // A breadth-first frontier within the bound: mixed blanks, lasts and
  // take/prune outcomes.
  std::vector<puzzle::FifteenPuzzle::Node> nodes{problem.root()};
  search::NextBound nb;
  for (std::size_t i = 0; i < nodes.size() && nodes.size() < 64; ++i) {
    const puzzle::FifteenPuzzle::Node n = nodes[i];
    problem.expand(n, bound, nodes, nb);
  }
  nodes.resize(64);
  std::vector<std::array<puzzle::FifteenPuzzle::Node, 4>> kids(64);
  std::vector<std::array<puzzle::FifteenPuzzle::Node, 4>*> rows;
  for (auto& row : kids) rows.push_back(&row);
  std::vector<std::uint32_t> counts(64);
  for (auto _ : state) {
    search::NextBound next;
    vec::expand_group(isa, problem, nodes.data(), 64, bound, rows.data(),
                      counts.data(), next, 0);
    benchmark::DoNotOptimize(kids.data());
    benchmark::DoNotOptimize(next);
  }
  state.counters["sec_per_node"] = benchmark::Counter(
      64, benchmark::Counter::kIsIterationInvariantRate |
              benchmark::Counter::kInvert);
}
BENCHMARK(BM_FifteenKernel)
    ->Arg(static_cast<int>(vec::Isa::kAvx2))
    ->Arg(static_cast<int>(vec::Isa::kAvx512));

/// The benchmark trees' batch: a breadth-first frontier past the root of a
/// four-slot tree, 64 nodes of mixed climates and child counts.
std::vector<synthetic::Tree::Node> tree_frontier(const synthetic::Tree& tree) {
  std::vector<synthetic::Tree::Node> nodes{tree.root()};
  search::NextBound nb;
  for (std::size_t i = 0; i < nodes.size() && nodes.size() < 64 + i; ++i) {
    const synthetic::Tree::Node n = nodes[i];
    tree.expand(n, search::kUnbounded, nodes, nb);
  }
  nodes.erase(nodes.begin(), nodes.end() - 64);
  return nodes;
}

// The word step's scalar group loop, the counterpart of BM_TreeKernel: one
// expand_row() call per node over a full flag word (64 synthetic-tree nodes
// into 64 scratch rows; four child slots, so one group), without the
// gather.  sec_per_node reads as the loop's time per node.
void BM_TreeWordKernel(benchmark::State& state) {
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 40});
  const std::vector<synthetic::Tree::Node> nodes = tree_frontier(tree);
  std::vector<std::array<synthetic::Tree::Node, 4>> kids(64);
  std::vector<std::array<synthetic::Tree::Node, 4>*> rows;
  for (auto& row : kids) rows.push_back(&row);
  std::vector<std::uint32_t> counts(64);
  for (auto _ : state) {
    search::NextBound next;
    for (std::uint32_t first = 0; first < tree.child_slots(); first += 4) {
      for (std::size_t j = 0; j < 64; ++j) {
        counts[j] = tree.expand_row(nodes[j], search::kUnbounded, *rows[j],
                                    next, first);
      }
    }
    benchmark::DoNotOptimize(kids.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.counters["sec_per_node"] = benchmark::Counter(
      64, benchmark::Counter::kIsIterationInvariantRate |
              benchmark::Counter::kInvert);
}
BENCHMARK(BM_TreeWordKernel);

// The same word through the synthetic-tree kernel (AVX-512 only): one
// expand_group() call over the 64 nodes.  sec_per_node reads as the
// kernel's time per node, to set against BM_TreeWordKernel's.
void BM_TreeKernel(benchmark::State& state) {
  if (!host_runs(state, vec::Isa::kAvx512)) return;
  const synthetic::Tree tree(synthetic::Params{9013, 4, 0.395, 40});
  const std::vector<synthetic::Tree::Node> nodes = tree_frontier(tree);
  std::vector<std::array<synthetic::Tree::Node, 4>> kids(64);
  std::vector<std::array<synthetic::Tree::Node, 4>*> rows;
  for (auto& row : kids) rows.push_back(&row);
  std::vector<std::uint32_t> counts(64);
  for (auto _ : state) {
    search::NextBound next;
    vec::expand_group(vec::Isa::kAvx512, tree, nodes.data(), 64,
                      search::kUnbounded, rows.data(), counts.data(), next,
                      0);
    benchmark::DoNotOptimize(kids.data());
    benchmark::DoNotOptimize(counts.data());
    benchmark::ClobberMemory();
  }
  state.counters["sec_per_node"] = benchmark::Counter(
      64, benchmark::Counter::kIsIterationInvariantRate |
              benchmark::Counter::kInvert);
}
BENCHMARK(BM_TreeKernel);

}  // namespace

BENCHMARK_MAIN();
