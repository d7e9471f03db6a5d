// The batched 15-puzzle kernel (see vec/expand.hpp for the contract and the
// kernel rule).
//
// Two phases.  The *candidate phase* is pure branch-free lane arithmetic
// over struct-of-arrays copies of the batch: every potential child of every
// node is computed unconditionally into move-major arrays (`cand[move][lane]`)
// — the transpose of expand_row()'s predicated row writes.  Each candidate
// is two packed words, the board and the child's byte fields
// (`blank | g<<8 | h<<16 | last<<24`, Node's layout past the board).  The
// *emission phase* walks the candidates per node in move order, storing each
// as one 16-byte Node into the node's four-slot row (the caller's: a lane's
// stack top in the engine) and advancing a write cursor by the take
// predicate, exactly like expand_row()'s row loop.  The candidate phase
// carries all the work (board arithmetic, heuristic deltas, bound tests) and
// vectorizes because no lane ever branches.
//
// Bit-exactness with FifteenPuzzle::expand_row():
//  - A move slides one tile one cell along one axis, so its Manhattan term
//    (the goal cell of tile t is cell t) changes by exactly +1 or -1, which
//    one compare decides.  That equals expand_row()'s table difference
//    d(t, blank) - d(t, target) for every real tile (the moved tile is never
//    the blank on a legal move).
//  - NextBound is a pure min, so observing the batch's minimum pruned f once
//    equals observing every pruned f individually.
#include "vec/expand.hpp"

#include <bit>
#include <cstddef>
#include <cstring>

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

using Node = puzzle::FifteenPuzzle::Node;

// The emission phase stores a child as {board word, meta word}: the meta
// word's low four bytes are blank, g, h, last in Node's byte order, and its
// high four bytes land in Node's padding as zeros (as a value-initialized
// Node has them).
static_assert(std::endian::native == std::endian::little);
static_assert(sizeof(Node) == 16 && offsetof(Node, board) == 0 &&
              offsetof(Node, blank) == 8 && offsetof(Node, g) == 9 &&
              offsetof(Node, h) == 10 && offsetof(Node, last) == 11);

/// Candidate phase for one move direction, all lanes at once.  kMove follows
/// puzzle::Move: 0 up, 1 down, 2 left, 3 right (the blank moves).  Illegal
/// lanes compute a self-move (shift amounts stay in range, no UB) whose
/// candidate is discarded by take = 0.  A candidate is its board word and
/// its meta word (see the layout asserts above); g and h are cut to a byte
/// as expand()'s uint8_t fields cut them.
///
/// Every value in the loop is u64 — legality masks, coordinates, f-values —
/// for the vectorizer's sake (see FifteenBatchSoA).  Selects are explicit
/// 0/1-mask arithmetic (never multiplies: AVX2 has no vpmullq).  All
/// quantities are small and non-negative on a legal move (g, h < 255;
/// hh >= 0 since h includes the moved tile's distance of at least 1), so
/// u64 and i32 arithmetic agree; an illegal lane's values are never used.
template <int kMove>
VEC_TARGET_AVX2 void fifteen_candidates(
    const FifteenBatchSoA& s, std::uint32_t padded, search::Bound bound,
    std::uint64_t* cand_board, std::uint64_t* cand_meta, std::uint64_t* take,
    std::uint64_t* pruned_min) {
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
    // Manhattan step of the slid tile: +1 (away = 1) when its goal row or
    // column lies strictly behind the blank's in the direction of the
    // slide, -1 otherwise.
    std::uint64_t away;  // 0 or 1
    if constexpr (kMove == 0) {
      away = static_cast<std::uint64_t>((tile >> 2) < (b >> 2));
    } else if constexpr (kMove == 1) {
      away = static_cast<std::uint64_t>((tile >> 2) > (b >> 2));
    } else if constexpr (kMove == 2) {
      away = static_cast<std::uint64_t>((tile & 3) < (b & 3));
    } else {
      away = static_cast<std::uint64_t>((tile & 3) > (b & 3));
    }
    const std::uint64_t hh = s.h[j] - 1 + (away << 1);
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
    cand_meta[j] = tsafe | (((s.g[j] + 1) & 0xFF) << 8) | ((hh & 0xFF) << 16) |
                   (static_cast<std::uint64_t>(kMove) << 24);
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
VEC_TARGET_AVX2 void expand_fifteen(const Node* nodes, std::uint32_t count,
                                    search::Bound bound,
                                    std::array<Node, 4>* const* rows,
                                    std::uint32_t* child_counts,
                                    search::NextBound& next) {
  FifteenBatchSoA soa;
  soa.load(nodes, count);
  const std::uint32_t padded = padded_count(count);

  alignas(32) std::uint64_t cand_board[4][kBatchLanes];
  alignas(32) std::uint64_t cand_meta[4][kBatchLanes];
  alignas(32) std::uint64_t take[4][kBatchLanes];
  alignas(32) std::uint64_t pruned_min[kBatchLanes];
  for (std::uint32_t j = 0; j < padded; ++j) {
    pruned_min[j] = static_cast<std::uint64_t>(search::kUnbounded);
  }

  fifteen_candidates<0>(soa, padded, bound, cand_board[0], cand_meta[0],
                        take[0], pruned_min);
  fifteen_candidates<1>(soa, padded, bound, cand_board[1], cand_meta[1],
                        take[1], pruned_min);
  fifteen_candidates<2>(soa, padded, bound, cand_board[2], cand_meta[2],
                        take[2], pruned_min);
  fifteen_candidates<3>(soa, padded, bound, cand_board[3], cand_meta[3],
                        take[3], pruned_min);

  // NextBound is a min: one observation of the batch minimum equals
  // expand()'s per-candidate observations.  Pad lanes are excluded.
  std::uint64_t m = static_cast<std::uint64_t>(search::kUnbounded);
  for (std::uint32_t j = 0; j < count; ++j) {
    if (pruned_min[j] < m) m = pruned_min[j];
  }
  next.observe(static_cast<search::Bound>(m));

  // Emission: slot k <= mv, so every store stays inside the node's row; a
  // rejected candidate is overwritten by the next one (or left as dead
  // storage past the count).
  for (std::uint32_t j = 0; j < count; ++j) {
    Node* const row = rows[j]->data();
    std::uint32_t k = 0;
    for (std::uint32_t mv = 0; mv < 4; ++mv) {
      const std::uint64_t words[2] = {cand_board[mv][j], cand_meta[mv][j]};
      std::memcpy(static_cast<void*>(row + k), words, sizeof words);
      k += static_cast<std::uint32_t>(take[mv][j]);
    }
    child_counts[j] = k;
  }
}

}  // namespace simdts::vec
