// The tree-search problem interface.
//
// A problem supplies a root node and a successor-generator (Section 2 of the
// paper).  Search is depth-first with an optional cost bound: expand() must
// append only children whose f-value is within `bound`, and report the
// minimum f-value among the children it pruned (the standard IDA* next-
// threshold computation; domains without costs ignore the bound).  expand()
// is all a domain needs: the parallel engine's word step expands such a
// node once into a staging vector and copies its children onto the lane's
// stack four at a time.  expand_row() (RowTreeProblem) is the fast path it
// takes when a domain has it, writing the children in place, and every
// bundled domain does.
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

/// Optional fixed-row extension of TreeProblem, and the engine's fast path
/// (expand() is the minimum every domain provides).  A domain numbers the
/// candidate children of a node by *child slots* 0..child_slots()-1 and
/// writes the children of any four consecutive slots into a caller-owned
/// row of four.  The engine's word step pops a flag word's lanes, then runs
/// the slot groups in order, the group loop outside the node loop: for each
/// group it calls expand_row once per popped node, into the four slots
/// above that lane's stack top (WorkStack::top_row), and advances the stack
/// by the returned count (commit) before the lane's next group, so children
/// are written in place with no copy and no branch on how many a node had.
/// Calls for different nodes interleave (node j's group 1 after node k's
/// group 0), so expand_row must depend on its arguments only.
///
/// Contract:
///  - child_slots() is the instance's slot count, the same for every node.
///    A domain with at most four children per node makes it a
///    `static constexpr` 4, so the engine's loop over groups folds away.
///    Callers pass only first < child_slots().
///  - expand_row(n, bound, row, next, first) writes into row[0..k) the
///    children from slots [first, first + 4), in slot order, and returns
///    k <= 4.  Concatenating the rows of first = 0, 4, 8, ... <
///    child_slots() gives exactly expand(n, bound, ...)'s output, bit for
///    bit and in order, with the same effect on `next`; expand_rows()
///    below builds expand() that way, so a domain holds one copy of its
///    child arithmetic.
///  - The row may be stack memory: its initial contents are indeterminate
///    (never read), and `n` is the caller's copy, never inside the row.
///    Slots row[k..4) are dead on return (a rejected candidate or older
///    data) and may hold anything.
template <typename P>
concept RowTreeProblem =
    TreeProblem<P> &&
    requires(const P& p, const typename P::Node& n, Bound bound,
             std::array<typename P::Node, 4>& row, NextBound& next,
             std::uint32_t first) {
      { p.child_slots() } -> std::convertible_to<std::uint32_t>;
      { p.expand_row(n, bound, row, next, first) }
          -> std::same_as<std::uint32_t>;
    };

/// expand() of a domain with expand_row(): appends the rows of every slot
/// group to `out`, in slot order.  A domain's expand() is this one call.
template <typename P>
void expand_rows(const P& p, const typename P::Node& n, Bound bound,
                 std::vector<typename P::Node>& out, NextBound& next) {
  const typename P::Node parent = n;  // `n` may be an element of `out`
  std::array<typename P::Node, 4> row{};
  for (std::uint32_t first = 0; first < p.child_slots(); first += 4) {
    const std::uint32_t k = p.expand_row(parent, bound, row, next, first);
    out.insert(out.end(), row.begin(), row.begin() + k);
  }
}

/// Optional delta-codec extension of TreeProblem: a child node is
/// representable as its parent plus a one-byte delta (a move index / child
/// ordinal), so a work stack can store deltas instead of full Node copies and
/// materialize on pop (search::CompactStack).
///
/// Contract:
///  - decode_delta(parent, d) must reproduce — BIT-EXACTLY, every field —
///    the child that expand(parent, ...) would emit for that move/slot.
///    CompactStack hands decoded nodes straight back to the engine's
///    expansion and is_goal(), so any divergence changes the searched tree.
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
