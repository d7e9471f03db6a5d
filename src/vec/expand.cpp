// The batched 15-puzzle kernel (see vec/expand.hpp for the contract and the
// selection rule).
//
// Two phases.  The *candidate phase* is pure branch-free lane arithmetic
// over struct-of-arrays copies of the batch: every potential child of every
// node is computed unconditionally into move-major arrays (`cand[move][lane]`)
// — the transpose of expand()'s predicated staging writes.  The *emission
// phase* walks the candidates per node in move order and advances a write
// cursor by the take predicate, exactly like expand()'s staging loop.  The
// candidate phase carries all the work (board arithmetic, heuristic deltas,
// bound tests) and vectorizes because no lane ever branches.
//
// Bit-exactness with FifteenPuzzle::expand():
//  - Tile distances come from the coordinate formula
//    |row(pos) - row(t)| + |col(pos) - col(t)|, which equals expand()'s
//    table lookup for every real tile (the goal cell of tile t is cell t;
//    the moved tile is never the blank on a legal move).
//  - NextBound is a pure min, so observing the batch's minimum pruned f once
//    equals observing every pruned f individually.
#include "vec/expand.hpp"

#include "puzzle/board.hpp"

// The kernel is compiled for AVX2/BMI2 function by function, so the library
// keeps its default target flags everywhere else.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define VEC_X86 1
#define VEC_TARGET_AVX2 __attribute__((target("avx2,bmi2")))
#else
#define VEC_X86 0
#define VEC_TARGET_AVX2
#endif

namespace simdts::vec {

namespace {

/// Batch width: one flag word of lanes.
constexpr std::uint32_t kBatchLanes = 64;

/// Vector width the batch is padded to (AVX2's 4x64-bit lanes), so the
/// candidate loops run full-width with no scalar remainder.
constexpr std::uint32_t kPadLanes = 4;

constexpr std::uint32_t padded_count(std::uint32_t count) {
  return (count + (kPadLanes - 1)) & ~(kPadLanes - 1);
}

/// Struct-of-arrays copy of one batch.  The packed nibble boards stay packed
/// (moves are shift/mask arithmetic on the u64 directly); the byte fields
/// widen all the way to u64 so every value in the candidate loop has the
/// same width — GCC's vectorizer refuses loops that mix 64-bit board words
/// with narrower metadata ("no vectype"), and a type-homogeneous u64 loop
/// compiles to 4-wide AVX2 (vpsrlvq/vpsllvq for the nibble shifts).  Pad
/// lanes hold copies of the last real node; their results are never emitted.
struct FifteenBatchSoA {
  alignas(32) std::uint64_t board[kBatchLanes];
  alignas(32) std::uint64_t blank[kBatchLanes];
  alignas(32) std::uint64_t g[kBatchLanes];
  alignas(32) std::uint64_t h[kBatchLanes];
  /// inverse(last), or kNoMove at the root.
  alignas(32) std::uint64_t skip[kBatchLanes];

  void load(const puzzle::FifteenPuzzle::Node* nodes, std::uint32_t count) {
    for (std::uint32_t j = 0; j < count; ++j) {
      board[j] = nodes[j].board;
      blank[j] = nodes[j].blank;
      g[j] = nodes[j].g;
      h[j] = nodes[j].h;
      skip[j] = nodes[j].last == puzzle::kNoMove
                    ? puzzle::kNoMove
                    : static_cast<std::uint64_t>(puzzle::inverse(
                          static_cast<puzzle::Move>(nodes[j].last)));
    }
    for (std::uint32_t j = count; j < padded_count(count); ++j) {
      board[j] = board[count - 1];
      blank[j] = blank[count - 1];
      g[j] = g[count - 1];
      h[j] = h[count - 1];
      skip[j] = skip[count - 1];
    }
  }
};

/// |x - y| for u64 lanes via the sign-propagation trick — pure bit ops, no
/// compare/branch, so the vectorizer never bails on it.
inline std::uint64_t absdiff(std::uint64_t x, std::uint64_t y) {
  const std::uint64_t d = x - y;
  const std::uint64_t m = std::uint64_t{0} - (d >> 63);  // 0 or all-ones
  return (d ^ m) - m;
}

/// Candidate phase for one move direction, all lanes at once.  kMove follows
/// puzzle::Move: 0 up, 1 down, 2 left, 3 right (the blank moves).  Illegal
/// lanes compute a self-move (shift amounts stay in range, no UB) whose
/// candidate is discarded by take = 0.
///
/// Every value in the loop is u64 — legality masks, coordinates, f-values —
/// for the vectorizer's sake (see FifteenBatchSoA).  Selects are explicit
/// 0/1-mask arithmetic (never multiplies: AVX2 has no vpmullq).  All
/// quantities are small and non-negative (g, h < 255; hh >= 0 since h
/// includes the moved tile's d_from), so u64 and i32 arithmetic agree.
template <int kMove>
VEC_TARGET_AVX2 void fifteen_candidates(
    const FifteenBatchSoA& s, std::uint32_t padded, search::Bound bound,
    std::uint64_t* cand_board, std::uint64_t* cand_blank,
    std::uint64_t* cand_h, std::uint64_t* take, std::uint64_t* pruned_min) {
  const auto bound64 = static_cast<std::uint64_t>(bound);
  constexpr auto kUnb64 = static_cast<std::uint64_t>(search::kUnbounded);
  for (std::uint32_t j = 0; j < padded; ++j) {
    const std::uint64_t b = s.blank[j];
    const std::uint64_t board = s.board[j];
    std::uint64_t legal;  // 0 or 1
    std::uint64_t tsafe;  // legal ? move target : b (self-move)
    if constexpr (kMove == 0) {          // up: row > 0
      legal = static_cast<std::uint64_t>(b >= puzzle::kSide);
      tsafe = b - (legal << 2);
    } else if constexpr (kMove == 1) {   // down: row < 3
      legal = static_cast<std::uint64_t>(b < 3 * puzzle::kSide);
      tsafe = b + (legal << 2);
    } else if constexpr (kMove == 2) {   // left: col > 0
      legal = static_cast<std::uint64_t>((b & 3) != 0);
      tsafe = b - legal;
    } else {                             // right: col < 3
      legal = static_cast<std::uint64_t>((b & 3) != 3);
      tsafe = b + legal;
    }
    const std::uint64_t from_sh = tsafe << 2;
    const std::uint64_t tile = (board >> from_sh) & 0xF;
    // Clear the source nibble by XOR-ing the tile back out (the blank's
    // destination nibble is already 0): `board & ~(0xF << sh)` computes the
    // same value, but GCC will not vectorize a constant shifted by a
    // variable amount (`0xFULL << sh` reports "no vectype"), while
    // variable << variable lowers to vpsllvq.
    const std::uint64_t nb = (board ^ (tile << from_sh)) | (tile << (b << 2));
    // Manhattan delta of the slid tile: goal cell of tile t is cell t.
    const std::uint64_t trow = tile >> 2;
    const std::uint64_t tcol = tile & 3;
    const std::uint64_t d_from =
        absdiff(tsafe >> 2, trow) + absdiff(tsafe & 3, tcol);
    const std::uint64_t d_to = absdiff(b >> 2, trow) + absdiff(b & 3, tcol);
    const std::uint64_t hh = s.h[j] + d_to - d_from;
    const std::uint64_t f = s.g[j] + 1 + hh;
    const std::uint64_t ok =
        legal & static_cast<std::uint64_t>(s.skip[j] != kMove);
    const std::uint64_t within = static_cast<std::uint64_t>(f <= bound64);
    take[j] = ok & within;
    // Pruned f (mask select): candidates cut by the bound feed NextBound.
    const std::uint64_t pmask = std::uint64_t{0} - (ok & (within ^ 1));
    const std::uint64_t pf = (f & pmask) | (kUnb64 & ~pmask);
    const std::uint64_t pm = pruned_min[j];
    const std::uint64_t lmask =
        std::uint64_t{0} - static_cast<std::uint64_t>(pf < pm);
    pruned_min[j] = (pf & lmask) | (pm & ~lmask);
    cand_board[j] = nb;
    cand_blank[j] = tsafe;
    cand_h[j] = hh;
  }
}

}  // namespace

bool cpu_has_avx2() noexcept {
#if VEC_X86
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("bmi2");
  }();
  return has;
#else
  return false;
#endif
}

bool batch_applies(const puzzle::FifteenPuzzle& p,
                   std::uint32_t pes) noexcept {
  return p.heuristic() == puzzle::Heuristic::kManhattan &&
         pes >= kMinBatchPes && cpu_has_avx2();
}

// SIMDLINT-REGION(lockstep)
VEC_TARGET_AVX2 void expand_fifteen(
    const puzzle::FifteenPuzzle::Node* nodes, std::uint32_t count,
    search::Bound bound, std::vector<puzzle::FifteenPuzzle::Node>& out,
    std::uint32_t* child_counts, search::NextBound& next) {
  using Node = puzzle::FifteenPuzzle::Node;
  FifteenBatchSoA soa;
  soa.load(nodes, count);
  const std::uint32_t padded = padded_count(count);

  alignas(32) std::uint64_t cand_board[4][kBatchLanes];
  alignas(32) std::uint64_t cand_blank[4][kBatchLanes];
  alignas(32) std::uint64_t cand_h[4][kBatchLanes];
  alignas(32) std::uint64_t take[4][kBatchLanes];
  alignas(32) std::uint64_t pruned_min[kBatchLanes];
  for (std::uint32_t j = 0; j < padded; ++j) {
    pruned_min[j] = static_cast<std::uint64_t>(search::kUnbounded);
  }

  fifteen_candidates<0>(soa, padded, bound, cand_board[0], cand_blank[0],
                        cand_h[0], take[0], pruned_min);
  fifteen_candidates<1>(soa, padded, bound, cand_board[1], cand_blank[1],
                        cand_h[1], take[1], pruned_min);
  fifteen_candidates<2>(soa, padded, bound, cand_board[2], cand_blank[2],
                        cand_h[2], take[2], pruned_min);
  fifteen_candidates<3>(soa, padded, bound, cand_board[3], cand_blank[3],
                        cand_h[3], take[3], pruned_min);

  // NextBound is a min: one observation of the batch minimum equals
  // expand()'s per-candidate observations.  Pad lanes are excluded.
  std::uint64_t m = static_cast<std::uint64_t>(search::kUnbounded);
  for (std::uint32_t j = 0; j < count; ++j) {
    if (pruned_min[j] < m) m = pruned_min[j];
  }
  next.observe(static_cast<search::Bound>(m));

  const std::size_t base = out.size();
  // SIMDLINT-EFFECT-OK(allocates) `out` is the caller's persistent-capacity
  out.resize(base + static_cast<std::size_t>(count) * 4);
  Node* const dst = out.data() + base;  // staging buffer; growth amortizes.
  std::size_t k = 0;
  for (std::uint32_t j = 0; j < count; ++j) {
    const std::size_t start = k;
    const auto g1 = static_cast<std::uint8_t>(soa.g[j] + 1);
    for (std::uint32_t mv = 0; mv < 4; ++mv) {
      Node child{};
      child.board = cand_board[mv][j];
      child.blank = static_cast<std::uint8_t>(cand_blank[mv][j]);
      child.g = g1;
      child.h = static_cast<std::uint8_t>(cand_h[mv][j]);
      child.last = static_cast<std::uint8_t>(mv);
      dst[k] = child;
      k += take[mv][j];
    }
    child_counts[j] = static_cast<std::uint32_t>(k - start);
  }
  // SIMDLINT-EFFECT-OK(allocates) shrinking resize: capacity is retained
  out.resize(base + k);
}

}  // namespace simdts::vec
