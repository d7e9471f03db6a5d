// The word kernels (see vec/expand.hpp for the contract and the kernel
// rule).
//
// Both kernels run in three phases.  The *load phase* copies the batch into
// struct-of-arrays form, every field widened to u64.  The *candidate phase*
// is pure branch-free lane arithmetic over those arrays: every potential
// child of every node is computed unconditionally into slot-major arrays
// (`cand[slot][lane]`) — the transpose of expand_row()'s predicated row
// writes.  Each candidate is two packed words, the child's first eight
// bytes and the rest of its fields (the layout asserts below pin the
// packing).  The *emission phase* walks the candidates per node in slot
// order, storing each as one 16-byte Node into the node's four-slot row
// (the caller's: a lane's stack top in the engine) and advancing a write
// cursor by the take predicate, exactly like expand_row()'s row loop.  The
// candidate phase carries the work (board arithmetic and heuristic deltas,
// or the child hashes) and vectorizes because no lane ever branches.
//
// One source, several builds: each kernel body is an always-inline function
// with no target attribute, and each build is a thin wrapper with one.  The
// body inlines into the wrapper before vectorization, so each build's loops
// run at its own width (4 u64 lanes on AVX2, 8 on AVX-512); the batch is
// padded to that width, so the loops run full-width with no scalar
// remainder.
//
// Bit-exactness with FifteenPuzzle::expand_row():
//  - A move slides one tile one cell along one axis, so its Manhattan term
//    (the goal cell of tile t is cell t) changes by exactly +1 or -1, which
//    one compare decides.  That equals expand_row()'s table difference
//    d(t, blank) - d(t, target) for every real tile (the moved tile is never
//    the blank on a legal move).
//  - NextBound is a pure min, so observing the batch's minimum pruned f once
//    equals observing every pruned f individually.
// Bit-exactness with synthetic::Tree::expand_row(): the kernel calls the
// tree's own child_hash(), drift_climate() and existence_threshold(); a
// leaf's threshold is zeroed, so it takes no slot, and a slot at or past
// max_children is never taken.
#include "vec/expand.hpp"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstring>

#include "puzzle/board.hpp"

// The kernels are compiled per instruction set function by function, so
// the library keeps its default target flags everywhere else.  AVX-512DQ
// brings the 64-bit lane multiply (vpmullq) the tree hash needs, VL and BW
// the EVEX forms of the narrower compares and blends.
#if defined(__GNUC__) && (defined(__x86_64__) || defined(__i386__))
#define VEC_X86 1
#define VEC_TARGET_AVX2 __attribute__((target("avx2,bmi2")))
#define VEC_TARGET_AVX512 \
  __attribute__((target("avx2,bmi2,avx512f,avx512dq,avx512vl,avx512bw")))
#else
#define VEC_X86 0
#define VEC_TARGET_AVX2
#define VEC_TARGET_AVX512
#endif

#if defined(__GNUC__)
#define VEC_BODY [[gnu::always_inline]] inline
#else
#define VEC_BODY inline
#endif

namespace simdts::vec {

namespace {

/// Batch width: one flag word of lanes.
constexpr std::uint32_t kBatchLanes = 64;

/// u64 lanes per vector of each build: the batch is padded to a multiple.
constexpr std::uint32_t kAvx2Lanes = 4;
constexpr std::uint32_t kAvx512Lanes = 8;

template <std::uint32_t kPad>
constexpr std::uint32_t padded_count(std::uint32_t count) {
  return (count + (kPad - 1)) & ~(kPad - 1);
}

using Node = puzzle::FifteenPuzzle::Node;
using TreeNode = synthetic::Tree::Node;

/// Stores candidate {w0, w1} of `cand` as one 16-byte node at `slot` and
/// returns the next write cursor: `slot + take`.
template <typename N>
VEC_BODY N* emit(N* slot, std::uint64_t w0, std::uint64_t w1,
                 std::uint64_t take) {
  const std::uint64_t words[2] = {w0, w1};
  std::memcpy(static_cast<void*>(slot), words, sizeof words);
  return slot + take;
}

// --- 15-puzzle ---------------------------------------------------------------

/// Struct-of-arrays copy of one batch.  The packed nibble boards stay packed
/// (moves are shift/mask arithmetic on the u64 directly); the byte fields
/// widen all the way to u64 so every value in the candidate loop has the
/// same width — GCC's vectorizer refuses loops that mix 64-bit board words
/// with narrower metadata ("no vectype"), and a type-homogeneous u64 loop
/// compiles to full-width vectors (vpsrlvq/vpsllvq for the nibble shifts).
/// Pad lanes hold copies of the last real node; their results are never
/// emitted.
struct FifteenBatchSoA {
  alignas(64) std::uint64_t board[kBatchLanes];
  alignas(64) std::uint64_t blank[kBatchLanes];
  alignas(64) std::uint64_t g[kBatchLanes];
  alignas(64) std::uint64_t h[kBatchLanes];
  /// inverse(last), or kNoMove at the root.
  alignas(64) std::uint64_t skip[kBatchLanes];

  template <std::uint32_t kPad>
  VEC_BODY void load(const Node* nodes, std::uint32_t count) {
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
    for (std::uint32_t j = count; j < padded_count<kPad>(count); ++j) {
      board[j] = board[count - 1];
      blank[j] = blank[count - 1];
      g[j] = g[count - 1];
      h[j] = h[count - 1];
      skip[j] = skip[count - 1];
    }
  }
};

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
VEC_BODY void fifteen_candidates(const FifteenBatchSoA& s,
                                 std::uint32_t padded, search::Bound bound,
                                 std::uint64_t* cand_board,
                                 std::uint64_t* cand_meta, std::uint64_t* take,
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

/// The 15-puzzle kernel, padded to kPad lanes (the build's vector width).
template <std::uint32_t kPad>
VEC_BODY void expand_fifteen(const Node* nodes, std::uint32_t count,
                             search::Bound bound,
                             std::array<Node, 4>* const* rows,
                             std::uint32_t* child_counts,
                             search::NextBound& next) {
  FifteenBatchSoA soa;
  soa.load<kPad>(nodes, count);
  const std::uint32_t padded = padded_count<kPad>(count);

  alignas(64) std::uint64_t cand_board[4][kBatchLanes];
  alignas(64) std::uint64_t cand_meta[4][kBatchLanes];
  alignas(64) std::uint64_t take[4][kBatchLanes];
  alignas(64) std::uint64_t pruned_min[kBatchLanes];
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
    Node* cursor = row;
    for (std::uint32_t mv = 0; mv < 4; ++mv) {
      cursor = emit(cursor, cand_board[mv][j], cand_meta[mv][j], take[mv][j]);
    }
    child_counts[j] = static_cast<std::uint32_t>(cursor - row);
  }
}

// SIMDLINT-REGION(lockstep)
VEC_TARGET_AVX2 void expand_fifteen_avx2(const Node* nodes,
                                         std::uint32_t count,
                                         search::Bound bound,
                                         std::array<Node, 4>* const* rows,
                                         std::uint32_t* child_counts,
                                         search::NextBound& next) {
  expand_fifteen<kAvx2Lanes>(nodes, count, bound, rows, child_counts, next);
}

// SIMDLINT-REGION(lockstep)
VEC_TARGET_AVX512 void expand_fifteen_avx512(const Node* nodes,
                                             std::uint32_t count,
                                             search::Bound bound,
                                             std::array<Node, 4>* const* rows,
                                             std::uint32_t* child_counts,
                                             search::NextBound& next) {
  expand_fifteen<kAvx512Lanes>(nodes, count, bound, rows, child_counts, next);
}

// --- synthetic trees ---------------------------------------------------------

// A tree child is stored as {id, meta}: the meta word's low four bytes are
// depth and climate in Node's order, its high four bytes Node's padding.
static_assert(sizeof(TreeNode) == 16 && offsetof(TreeNode, id) == 0 &&
              offsetof(TreeNode, depth) == 8 &&
              offsetof(TreeNode, climate) == 10);

/// Struct-of-arrays copy of one batch, padded like FifteenBatchSoA.
struct TreeBatchSoA {
  alignas(64) std::uint64_t id[kBatchLanes];
  /// The children's depth, depth + 1 (a leaf's wraps harmlessly: it takes
  /// no slot).
  alignas(64) std::uint64_t child_depth[kBatchLanes];
  alignas(64) std::uint64_t climate[kBatchLanes];
  /// existence_threshold(climate), or 0 for a leaf.
  alignas(64) std::uint64_t thr[kBatchLanes];

  template <std::uint32_t kPad>
  VEC_BODY void load(const synthetic::Tree& t, const TreeNode* nodes,
                     std::uint32_t count) {
    const std::uint16_t max_depth = t.params().max_depth;
    for (std::uint32_t j = 0; j < count; ++j) {
      id[j] = nodes[j].id;
      child_depth[j] = static_cast<std::uint16_t>(nodes[j].depth + 1);
      climate[j] = nodes[j].climate;
      const std::uint64_t inner =
          std::uint64_t{0} -
          static_cast<std::uint64_t>(nodes[j].depth < max_depth);
      thr[j] = t.existence_threshold(nodes[j].climate) & inner;
    }
    for (std::uint32_t j = count; j < padded_count<kPad>(count); ++j) {
      id[j] = id[count - 1];
      child_depth[j] = child_depth[count - 1];
      climate[j] = climate[count - 1];
      thr[j] = thr[count - 1];
    }
  }
};

/// The tree kernel for slot group `first`, padded to kPad lanes.  All four
/// slots' candidates are computed for every lane; a slot past max_children
/// gets take = 0.
template <std::uint32_t kPad>
VEC_BODY void expand_tree(const synthetic::Tree& t, const TreeNode* nodes,
                          std::uint32_t count,
                          std::array<TreeNode, 4>* const* rows,
                          std::uint32_t* child_counts, std::uint32_t first) {
  TreeBatchSoA soa;
  soa.load<kPad>(t, nodes, count);
  const std::uint32_t padded = padded_count<kPad>(count);
  const std::uint32_t slots = std::min(t.child_slots() - first, 4u);

  alignas(64) std::uint64_t cand_id[4][kBatchLanes];
  alignas(64) std::uint64_t cand_meta[4][kBatchLanes];
  alignas(64) std::uint64_t take[4][kBatchLanes];
  const std::uint64_t open[4] = {0u < slots, 1u < slots, 2u < slots,
                                 3u < slots};
  // Lanes outside, slots inside: the unrolled slot loop loads each lane's
  // fields once and shares the hash's id product across the four slots
  // (measured about 10% faster per node than slots outside).
  for (std::uint32_t j = 0; j < padded; ++j) {
    for (std::uint32_t k = 0; k < 4; ++k) {
      const std::uint64_t h = synthetic::Tree::child_hash(soa.id[j], first + k);
      const std::uint16_t climate = synthetic::Tree::drift_climate(
          static_cast<std::uint16_t>(soa.climate[j]), h);
      cand_id[k][j] = h;
      cand_meta[k][j] =
          soa.child_depth[j] | (static_cast<std::uint64_t>(climate) << 16);
      take[k][j] = open[k] & static_cast<std::uint64_t>((h >> 11) < soa.thr[j]);
    }
  }

  for (std::uint32_t j = 0; j < count; ++j) {
    TreeNode* const row = rows[j]->data();
    TreeNode* cursor = row;
    for (std::uint32_t k = 0; k < 4; ++k) {
      cursor = emit(cursor, cand_id[k][j], cand_meta[k][j], take[k][j]);
    }
    child_counts[j] = static_cast<std::uint32_t>(cursor - row);
  }
}

// SIMDLINT-REGION(lockstep)
VEC_TARGET_AVX512 void expand_tree_avx512(
    const synthetic::Tree& t, const TreeNode* nodes, std::uint32_t count,
    std::array<TreeNode, 4>* const* rows, std::uint32_t* child_counts,
    std::uint32_t first) {
  expand_tree<kAvx512Lanes>(t, nodes, count, rows, child_counts, first);
}

/// The scalar loop, for an Isa the kernel has no build for: one
/// expand_row() call per node, as the engine's word step makes without a
/// kernel.
template <typename P>
void expand_row_loop(const P& p, const typename P::Node* nodes,
                     std::uint32_t count, search::Bound bound,
                     std::array<typename P::Node, 4>* const* rows,
                     std::uint32_t* child_counts, search::NextBound& next,
                     std::uint32_t first) {
  for (std::uint32_t j = 0; j < count; ++j) {
    child_counts[j] = p.expand_row(nodes[j], bound, *rows[j], next, first);
  }
}

}  // namespace

Isa host_isa() noexcept {
#if VEC_X86
  static const Isa isa = [] {
    __builtin_cpu_init();
    if (!__builtin_cpu_supports("avx2") || !__builtin_cpu_supports("bmi2")) {
      return Isa::kNone;
    }
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512dq") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512bw")) {
      return Isa::kAvx512;
    }
    return Isa::kAvx2;
  }();
  return isa;
#else
  return Isa::kNone;
#endif
}

Isa kernel_rule(const puzzle::FifteenPuzzle& p, std::uint32_t pes,
                Isa cpu) noexcept {
  if (p.heuristic() != puzzle::Heuristic::kManhattan || pes < kMinBatchPes) {
    return Isa::kNone;
  }
  return cpu;
}

Isa kernel_rule(const synthetic::Tree& /*t*/, std::uint32_t pes,
                Isa cpu) noexcept {
  return pes >= kMinBatchPes && cpu == Isa::kAvx512 ? Isa::kAvx512
                                                     : Isa::kNone;
}

// SIMDLINT-REGION(lockstep)
void expand_group(Isa isa, const puzzle::FifteenPuzzle& p, const Node* nodes,
                  std::uint32_t count, search::Bound bound,
                  std::array<Node, 4>* const* rows,
                  std::uint32_t* child_counts, search::NextBound& next,
                  std::uint32_t first) {
  if (p.heuristic() != puzzle::Heuristic::kManhattan) isa = Isa::kNone;
  switch (isa) {
    case Isa::kAvx512:
      expand_fifteen_avx512(nodes, count, bound, rows, child_counts, next);
      return;
    case Isa::kAvx2:
      expand_fifteen_avx2(nodes, count, bound, rows, child_counts, next);
      return;
    case Isa::kNone:
      break;
  }
  expand_row_loop(p, nodes, count, bound, rows, child_counts, next, first);
}

// SIMDLINT-REGION(lockstep)
void expand_group(Isa isa, const synthetic::Tree& t, const TreeNode* nodes,
                  std::uint32_t count, search::Bound bound,
                  std::array<TreeNode, 4>* const* rows,
                  std::uint32_t* child_counts, search::NextBound& next,
                  std::uint32_t first) {
  if (isa == Isa::kAvx512) {
    expand_tree_avx512(t, nodes, count, rows, child_counts, first);
    return;
  }
  expand_row_loop(t, nodes, count, bound, rows, child_counts, next, first);
}

}  // namespace simdts::vec
