// Work-splitting strategies (the paper's "alpha-splitting mechanism").
//
// When a busy processor donates work, its stack is split into two non-empty
// parts.  The quality of the split — how close to half of the remaining
// subtree the donated part represents — drives the number of load-balancing
// phases needed (Appendix A: at most V(P) * log_{1/(1-alpha)} W transfers).
//
// Strategies:
//   kBottomNode  donate the single node at the bottom of the stack (the
//                shallowest alternative, hence the largest subtree).  This is
//                what the paper used for the 15-puzzle and "appears to
//                provide a reasonable alpha-splitting mechanism".
//   kHalf        donate every other node (stratified half split, the classic
//                MIMD stack split of Rao & Kumar); donates nodes from all
//                depths.
//   kTopNode     donate the single node at the top (the deepest alternative,
//                i.e. the smallest subtree) — a deliberately poor splitter
//                used by the sensitivity ablation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace simdts::search {

enum class SplitStrategy : std::uint8_t {
  kBottomNode,
  kHalf,
  kTopNode,
};

/// Name for reports.
[[nodiscard]] const char* to_string(SplitStrategy s);

/// Splits `donor` — a WorkStack or a CompactStack — in place, appending the
/// donated nodes to `out` in bottom-to-top order.  `out` is the caller's
/// reusable buffer (receive() empties it again and keeps its capacity), so
/// a steady stream of transfers allocates nothing.  Preconditions:
/// donor.splittable().  Postconditions: neither part is empty, the parts are
/// disjoint, and their union is the original stack.
template <typename Stack, typename Node>
void split(Stack& donor, SplitStrategy strategy, std::vector<Node>& out) {
  switch (strategy) {
    case SplitStrategy::kBottomNode:
      out.push_back(donor.take_bottom());
      break;
    case SplitStrategy::kTopNode:
      out.push_back(donor.pop());
      break;
    case SplitStrategy::kHalf: {
      // Keep stack indices 1, 3, 5, ...; donate 0, 2, 4, ...  Donating from
      // every depth keeps both halves representative of the whole stack.
      // The whole stack is drained after the caller's content, the kept
      // nodes are pushed back bottom first, and the donated ones are
      // compacted in place.  (A CompactStack's kept nodes thereby become
      // self-contained segments, giving up their delta encoding — the
      // documented memory trade-off of this strategy.)
      const std::size_t base = out.size();
      donor.drain_into(out);
      std::size_t donated = base;
      for (std::size_t i = base; i < out.size(); ++i) {
        if ((i - base) % 2 == 0) {
          out[donated++] = out[i];
        } else {
          donor.push(out[i]);
        }
      }
      out.resize(donated);
      break;
    }
  }
}

/// Moves the donated nodes onto `receiver`, preserving bottom-to-top order
/// so that depth-first order is maintained on the receiving side, and
/// leaves `donated` empty with its capacity kept.  (A CompactStack makes
/// each received node a segment base, so received work is self-contained on
/// the new owner.)
template <typename Stack, typename Node>
void receive(Stack& receiver, std::vector<Node>& donated) {
  for (const Node& n : donated) receiver.push(n);
  donated.clear();
}

}  // namespace simdts::search
