// Deterministic synthetic unstructured trees.
//
// The isoefficiency experiments (Figures 4 and 7) need a dense grid of
// problem sizes W far beyond what a handful of 15-puzzle instances provides.
// This domain generates irregular trees whose entire shape is a pure function
// of a 64-bit seed: each node's child set is decided by hashing (node id,
// child slot), so any processor can expand any node with no shared state —
// the same property that makes the 15-puzzle SIMD-friendly.
//
// Shape: every node has up to `max_children` potential children; child i
// exists with probability fertility * climate, where the climate is a value
// in [0.5, 1.5] that drifts along each root-to-leaf path (children inherit a
// hash-perturbed copy of the parent's climate).  The drift correlates
// fertility within subtrees, producing persistent bushy and sparse regions —
// the "highly irregular" trees the paper targets — rather than noise that
// averages out.  Growth is supercritical on average (mean branching > 1) and
// capped by `max_depth`, so W is controlled by depth and seed; see
// synthetic/calibrate.hpp.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "search/problem.hpp"

namespace simdts::synthetic {

struct Params {
  std::uint64_t seed = 1;
  std::uint32_t max_children = 4;
  /// Base per-child existence probability (mean branching factor is
  /// max_children * fertility at neutral climate).
  double fertility = 0.30;
  std::uint16_t max_depth = 40;

  friend bool operator==(const Params&, const Params&) = default;
};

class Tree {
 public:
  struct Node {
    std::uint64_t id;
    std::uint16_t depth;
    /// Climate state; fertility multiplier is 0.5 + climate / 65536.
    std::uint16_t climate;

    friend bool operator==(const Node&, const Node&) = default;
  };

  explicit Tree(Params params) : params_(params) {}

  [[nodiscard]] Node root() const {
    return Node{hash2(params_.seed, 0x526F6F74), 0, 1u << 15};
  }

  /// Exhaustive search: the bound is ignored and `next` never set (a single
  /// "iteration" visits the whole tree).  Children come in slot order, four
  /// slots at a time from expand_row().
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    search::expand_rows(*this, n, bound, out, next);
  }

  /// One child slot per potential child (search::RowTreeProblem).
  [[nodiscard]] std::uint32_t child_slots() const {
    return params_.max_children;
  }

  /// expand()'s children of `n` from slots [first, first + 4), compacted
  /// in slot order into row[0..k); returns k.  Emission is branchless:
  /// every slot's candidate is written at the cursor, which advances by the
  /// existence predicate.  The per-slot coin flips are ~fertility-biased and
  /// uncorrelated, so a conditional store would mispredict on a large
  /// fraction of slots; in the engine's hot loop that misprediction chain
  /// costs more than the occasional discarded node.
  // SIMDLINT-REGION(lockstep)
  std::uint32_t expand_row(const Node& n, search::Bound /*bound*/,
                           std::array<Node, 4>& row,
                           search::NextBound& /*next*/,
                           std::uint32_t first) const {
    if (n.depth >= params_.max_depth) return 0;  // a leaf
    // Counted from zero and capped at four, so the compiler unrolls the
    // loop; a loop from `first` to min(first + 4, max_children) stays rolled
    // and cost fig4-sweep's wall a few percent.
    const std::uint32_t slots = std::min(params_.max_children - first, 4u);
    const std::uint64_t thr = existence_threshold(n.climate);
    const auto depth = static_cast<std::uint16_t>(n.depth + 1);
    // Locals, so the row stores cannot force reloads through `n`.
    const std::uint64_t id = n.id;
    const std::uint16_t climate = n.climate;
    std::uint32_t k = 0;
    for (std::uint32_t j = 0; j < slots; ++j) {
      const std::uint64_t h = hash2(id, 0x4348494C44ULL + first + j);
      row[k] = Node{h, depth, drift_climate(climate, h)};
      k += static_cast<std::uint32_t>((h >> 11) < thr);
    }
    return k;
  }

  [[nodiscard]] bool is_goal(const Node&) const { return false; }
  [[nodiscard]] search::Bound f_value(const Node&) const { return 0; }

  /// Delta codec (search::DeltaTreeProblem): a child is its parent plus the
  /// child-slot index, because the whole tree shape is the pure hash of
  /// (parent id, slot).  The hash is not invertible, so encoding searches the
  /// (at most max_children <= 255) slots for the one whose hash matches;
  /// there is no undo_delta — compact stacks backtrack by replaying the
  /// delta path from the stored base node.
  [[nodiscard]] std::uint8_t encode_delta(const Node& parent,
                                          const Node& child) const {
    for (std::uint32_t i = 0; i < params_.max_children; ++i) {
      if (hash2(parent.id, 0x4348494C44ULL + i) == child.id) {
        return static_cast<std::uint8_t>(i);
      }
    }
    return 0;  // unreachable for children actually emitted by expand()
  }

  /// Recomputes slot `delta`'s child with exactly expand()'s arithmetic.
  [[nodiscard]] Node decode_delta(const Node& n, std::uint8_t delta) const {
    const std::uint64_t h = hash2(n.id, 0x4348494C44ULL + delta);
    return Node{h, static_cast<std::uint16_t>(n.depth + 1),
                drift_climate(n.climate, h)};
  }

  [[nodiscard]] const Params& params() const { return params_; }

  /// Stateless 64-bit mix of (a, b) — the only source of tree shape.
  [[nodiscard]] static std::uint64_t hash2(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a * 0x9E3779B97F4A7C15ULL + b + 0x2545F4914F6CDD1DULL;
    x ^= x >> 30;
    x *= 0xBF58476D1CE4E5B9ULL;
    x ^= x >> 27;
    x *= 0x94D049BB133111EBULL;
    x ^= x >> 31;
    return x;
  }

  /// Maps a hash to [0, 1).  Slot existence is defined as
  /// `normalized(h) < p`; expand_row() evaluates it in integers
  /// (existence_threshold).
  [[nodiscard]] static double normalized(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  /// The existence probability p of a child of a node with `climate`, as
  /// an integer threshold on the top 53 hash bits: `(h >> 11) < thr`
  /// exactly when `normalized(h) < p`.  Both `h >> 11` (< 2^53) and the
  /// scaling by 2^53 are exact in double, and for an integer x, x < s
  /// exactly when x < ceil(s).  p >= 1 gives 2^53 (every slot), p <= 0 and
  /// NaN give 0 (none), so the conversion never leaves uint64's range.
  [[nodiscard]] std::uint64_t existence_threshold(
      std::uint16_t climate) const {
    const double p =
        params_.fertility * (0.5 + static_cast<double>(climate) * 0x1.0p-16);
    const double scaled = p * 0x1.0p53;
    if (scaled >= 0x1.0p53) return std::uint64_t{1} << 53;
    if (!(scaled > 0.0)) return 0;
    return static_cast<std::uint64_t>(std::ceil(scaled));
  }

 private:
  /// Random-walk step of the climate, clamped to the uint16 range.  Shared
  /// by expand_row() and decode_delta(), which must agree bit for bit.
  [[nodiscard]] static std::uint16_t drift_climate(std::uint16_t climate,
                                                   std::uint64_t h) {
    const auto delta = static_cast<std::int32_t>((h >> 40) % 8192) - 4096;
    std::int32_t next = static_cast<std::int32_t>(climate) + delta;
    if (next < 0) next = 0;
    if (next > 0xFFFF) next = 0xFFFF;
    return static_cast<std::uint16_t>(next);
  }

  Params params_;
};

static_assert(search::TreeProblem<Tree>);
static_assert(search::DeltaTreeProblem<Tree>);
static_assert(search::RowTreeProblem<Tree>);

}  // namespace simdts::synthetic
