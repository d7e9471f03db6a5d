// The 15-puzzle as a TreeProblem for IDA*.
//
// Search nodes carry the packed board plus cached blank position, path cost
// g, heuristic value h, and the last blank move (so the inverse move is never
// generated — the standard 15-puzzle branching reduction, giving trees of
// branching factor ~2.13).  With the Manhattan heuristic, h is maintained
// incrementally in O(1) per move.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "puzzle/board.hpp"
#include "puzzle/heuristic.hpp"
#include "search/problem.hpp"

namespace simdts::puzzle {

class FifteenPuzzle {
 public:
  struct Node {
    std::uint64_t board;  ///< packed tiles
    std::uint8_t blank;   ///< blank position, cached
    std::uint8_t g;       ///< moves from the start configuration
    std::uint8_t h;       ///< heuristic value, maintained incrementally
    std::uint8_t last;    ///< last blank move (kNoMove at the root)

    friend bool operator==(const Node&, const Node&) = default;
  };

  explicit FifteenPuzzle(Board start,
                         Heuristic heuristic = Heuristic::kManhattan)
      : start_(start), heuristic_(heuristic) {}

  [[nodiscard]] Node root() const {
    Node n{};
    n.board = start_.packed();
    n.blank = static_cast<std::uint8_t>(start_.blank_position());
    n.g = 0;
    n.h = static_cast<std::uint8_t>(evaluate(start_, heuristic_));
    n.last = kNoMove;
    return n;
  }

  /// Generates children with f = g + h <= bound; prunes the inverse of the
  /// last move; records the minimum pruned f in `next`.  One expand_row()
  /// call, which holds the move arithmetic.
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    search::expand_rows(*this, n, bound, out, next);
  }

  /// A node has at most four moves: one row of four child slots
  /// (search::RowTreeProblem), so the engine's loop over slot groups folds
  /// to one call.
  [[nodiscard]] static constexpr std::uint32_t child_slots() { return 4; }

  /// expand()'s children of `n` in row[0..k), k returned (`first` is always
  /// 0: there is one slot group).  This is the hot path of every
  /// experiment, so moves are applied with direct nibble arithmetic on the
  /// packed board, and every legal move writes its child at a cursor that
  /// advances by the bound predicate: no data-dependent branch on the bound
  /// test.
  // SIMDLINT-REGION(lockstep)
  std::uint32_t expand_row(const Node& n, search::Bound bound,
                           std::array<Node, 4>& row, search::NextBound& next,
                           std::uint32_t /*first*/) const {
    const int blank = n.blank;
    const int blank_row = row_of(blank);
    const int blank_col = col_of(blank);
    const std::uint8_t skip =
        n.last == kNoMove
            ? kNoMove
            : static_cast<std::uint8_t>(inverse(static_cast<Move>(n.last)));
    std::uint32_t k = 0;

    auto try_move = [&](Move m, bool legal, int target) {
      if (!legal || static_cast<std::uint8_t>(m) == skip) return;
      const Node child = child_of(n, target, static_cast<std::uint8_t>(m));
      const auto f = static_cast<search::Bound>(child.g) + child.h;
      const bool take = f <= bound;
      row[k] = child;
      k += static_cast<std::uint32_t>(take);
      if (!take) next.observe(f);
    };

    try_move(Move::kUp, blank_row > 0, blank - kSide);
    try_move(Move::kDown, blank_row < kSide - 1, blank + kSide);
    try_move(Move::kLeft, blank_col > 0, blank - 1);
    try_move(Move::kRight, blank_col < kSide - 1, blank + 1);
    return k;
  }

  [[nodiscard]] bool is_goal(const Node& n) const { return n.h == 0; }
  [[nodiscard]] search::Bound f_value(const Node& n) const {
    return static_cast<search::Bound>(n.g) + n.h;
  }

  /// Delta codec (search::DeltaTreeProblem): a child is its parent plus the
  /// blank move that produced it, so compact stacks store one byte per entry
  /// instead of a 16-byte Node.  The move is already cached in Node::last.
  [[nodiscard]] std::uint8_t encode_delta(const Node& /*parent*/,
                                          const Node& child) const {
    return child.last;
  }

  /// Re-applies move `delta` to `n` through the child_of() that
  /// expand_row() uses, so the decoded child is bit-identical to the one
  /// expand() emitted (the CompactStack correctness contract).
  [[nodiscard]] Node decode_delta(const Node& n, std::uint8_t delta) const {
    return child_of(n, n.blank + move_offset(static_cast<Move>(delta)),
                    delta);
  }

  /// Inverse of decode_delta (search::UndoDeltaProblem): reconstructs the
  /// parent from a child in O(1), giving compact stacks constant-time
  /// backtracking.  `parent_delta` restores the parent's own `last` field
  /// (the caller has it from the delta path; never needed for base nodes,
  /// which are stored whole).
  [[nodiscard]] Node undo_delta(const Node& c, std::uint8_t delta,
                                std::uint8_t parent_delta) const {
    const auto m = static_cast<Move>(delta);
    const int pb = c.blank - move_offset(m);  // where the blank came from
    const std::uint64_t t = tile_at(c.board, pb);  // the slid tile
    Node p{};
    p.board = slide(c.board, pb, c.blank);
    p.blank = static_cast<std::uint8_t>(pb);
    p.g = static_cast<std::uint8_t>(c.g - 1);
    if (heuristic_ == Heuristic::kManhattan) {
      p.h = static_cast<std::uint8_t>(
          c.h - manhattan_delta(static_cast<std::uint8_t>(t), c.blank, pb));
    } else {
      p.h = static_cast<std::uint8_t>(evaluate(Board(p.board), heuristic_));
    }
    p.last = parent_delta;
    return p;
  }

  [[nodiscard]] const Board& start() const { return start_; }
  [[nodiscard]] Heuristic heuristic() const { return heuristic_; }

  /// Reconstructs a Board from a node (for printing and verification).
  [[nodiscard]] static Board board_of(const Node& n) {
    return Board(n.board);
  }

 private:
  /// The tile on square `pos` of a packed board.
  [[nodiscard]] static constexpr std::uint64_t tile_at(std::uint64_t board,
                                                       int pos) {
    return (board >> (4 * pos)) & 0xF;
  }

  /// `board` with the tile on square `from` slid onto the blank at `to`.
  [[nodiscard]] static constexpr std::uint64_t slide(std::uint64_t board,
                                                     int from, int to) {
    return (board & ~(0xFULL << (4 * from))) |
           (tile_at(board, from) << (4 * to));
  }

  /// The child of `n` whose blank moved to `target` by move `m`: the one
  /// copy of the child arithmetic (expand_row, decode_delta).  With the
  /// Manhattan heuristic h is updated by the slid tile's delta.
  [[nodiscard]] Node child_of(const Node& n, int target,
                              std::uint8_t m) const {
    const int blank = n.blank;
    const std::uint64_t t = tile_at(n.board, target);
    Node child{};
    child.board = slide(n.board, target, blank);
    child.blank = static_cast<std::uint8_t>(target);
    child.g = static_cast<std::uint8_t>(n.g + 1);
    if (heuristic_ == Heuristic::kManhattan) {
      child.h = static_cast<std::uint8_t>(
          n.h + manhattan_delta(static_cast<std::uint8_t>(t), target, blank));
    } else {
      child.h = static_cast<std::uint8_t>(
          evaluate(Board(child.board), heuristic_));
    }
    child.last = m;
    return child;
  }

  /// Displacement of the blank for each move, matching expand_row()'s
  /// targets.
  [[nodiscard]] static constexpr int move_offset(Move m) {
    switch (m) {
      case Move::kUp:
        return -kSide;
      case Move::kDown:
        return kSide;
      case Move::kLeft:
        return -1;
      case Move::kRight:
        return 1;
    }
    return 0;
  }

  Board start_;
  Heuristic heuristic_;
};

static_assert(sizeof(FifteenPuzzle::Node) == 16,
              "puzzle nodes should stay two words");
static_assert(search::TreeProblem<FifteenPuzzle>);
static_assert(search::DeltaTreeProblem<FifteenPuzzle>);
static_assert(search::UndoDeltaProblem<FifteenPuzzle>);
static_assert(search::RowTreeProblem<FifteenPuzzle>);

}  // namespace simdts::puzzle
