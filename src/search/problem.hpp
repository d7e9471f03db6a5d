// The tree-search problem interface.
//
// A problem supplies a root node and a successor-generator (Section 2 of the
// paper).  Search is depth-first with an optional cost bound: expand() must
// append only children whose f-value is within `bound`, and report the
// minimum f-value among the children it pruned (the standard IDA* next-
// threshold computation; domains without costs ignore the bound).
//
// Node types must be cheap to copy — they are moved between PE stacks during
// load balancing, and a stack entry *is* a node (each node on a stack stands
// for the entire unexplored subtree below it).
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <vector>

namespace simdts::search {

/// Cost bound for one iterative-deepening iteration.
using Bound = std::int32_t;
inline constexpr Bound kUnbounded = std::numeric_limits<Bound>::max();

/// Tracks the smallest f-value that exceeded the current bound; it becomes
/// the next iteration's threshold.
class NextBound {
 public:
  void observe(Bound f) noexcept {
    if (f < min_) min_ = f;
  }
  void merge(const NextBound& o) noexcept { observe(o.min_); }
  [[nodiscard]] bool has_value() const noexcept { return min_ != kUnbounded; }
  [[nodiscard]] Bound value() const noexcept { return min_; }

 private:
  Bound min_ = kUnbounded;
};

template <typename P>
concept TreeProblem = requires(const P& p, const typename P::Node& n,
                               std::vector<typename P::Node>& out,
                               Bound bound, NextBound& next) {
  typename P::Node;
  { p.root() } -> std::same_as<typename P::Node>;
  { p.expand(n, bound, out, next) } -> std::same_as<void>;
  { p.is_goal(n) } -> std::convertible_to<bool>;
  { p.f_value(n) } -> std::convertible_to<Bound>;
};

/// Optional fixed-row extension of TreeProblem: a domain whose nodes have
/// at most four children can write them into a caller-owned row of four
/// slots instead of appending to a vector.  The engine's row step passes
/// the four slots above the lane's stack top (WorkStack::top_row) and then
/// advances the stack's size by the returned count (WorkStack::commit), so
/// the children are written in place with no copy and no branch on how many
/// a node had.
///
/// Contract:
///  - expand_row(n, bound, row, next) returns k <= 4 and writes into
///    row[0..k) exactly the children — bit for bit, in the same order — that
///    expand(n, bound, ...) appends, with the same effect on `next`.
///  - The row may be stack memory: its initial contents are indeterminate
///    (never read), and `n` is the caller's copy, never inside the row.
///    Slots row[k..4) are dead on return (a rejected candidate or older
///    data) and may hold anything.
///  - row_fits() says whether that holds for every node of this instance; a
///    domain whose branching depends on its parameters (synthetic::Tree with
///    more than four child slots) returns false and is expanded through
///    expand() alone.
template <typename P>
concept RowTreeProblem =
    TreeProblem<P> &&
    requires(const P& p, const typename P::Node& n, Bound bound,
             std::array<typename P::Node, 4>& row, NextBound& next) {
      { p.row_fits() } -> std::convertible_to<bool>;
      { p.expand_row(n, bound, row, next) } -> std::same_as<std::uint32_t>;
    };

/// Optional delta-codec extension of TreeProblem: a child node is
/// representable as its parent plus a one-byte delta (a move index / child
/// ordinal), so a work stack can store deltas instead of full Node copies and
/// materialize on pop (search::CompactStack).
///
/// Contract:
///  - decode_delta(parent, d) must reproduce — BIT-EXACTLY, every field —
///    the child that expand(parent, ...) would emit for that move/slot.
///    CompactStack feeds decoded nodes straight back into expand() and
///    is_goal(), so any divergence changes the searched tree.
///  - encode_delta(parent, child) inverts it: for every child emitted by
///    expand(parent, ...), decode_delta(parent, encode_delta(parent, child))
///    == child.
template <typename P>
concept DeltaTreeProblem =
    TreeProblem<P> &&
    requires(const P& p, const typename P::Node& parent,
             const typename P::Node& child, std::uint8_t delta) {
      { p.encode_delta(parent, child) } -> std::same_as<std::uint8_t>;
      { p.decode_delta(parent, delta) } -> std::same_as<typename P::Node>;
    };

/// Optional O(1)-backtrack refinement of DeltaTreeProblem: undo_delta
/// reconstructs the parent from a child, the delta that created the child,
/// and the delta that created the parent (`parent_delta`; only consulted
/// when the parent is not a stored base node, i.e. the caller always has it
/// from the delta path).  Must satisfy
///   undo_delta(decode_delta(parent, d), d, <parent's delta>) == parent.
/// Domains without an inverse (e.g. hash-generated trees) simply omit it;
/// CompactStack then backtracks by replaying the delta path from the stored
/// base node.
template <typename P>
concept UndoDeltaProblem =
    DeltaTreeProblem<P> &&
    requires(const P& p, const typename P::Node& child, std::uint8_t delta,
             std::uint8_t parent_delta) {
      { p.undo_delta(child, delta, parent_delta) }
          -> std::same_as<typename P::Node>;
    };

}  // namespace simdts::search
