// Admissible heuristics for the 15-puzzle.
//
// Manhattan distance is the heuristic Korf used for IDA* and what the
// paper's implementation is based on; it supports an O(1) incremental update
// per move, which is what keeps a node expansion cheap.  Linear conflict is
// provided as an extension (strictly stronger, still admissible); it is
// recomputed from scratch, so it trades node count for per-node cost.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

#include "puzzle/board.hpp"

namespace simdts::puzzle {

enum class Heuristic : std::uint8_t {
  kManhattan,
  kLinearConflict,  ///< Manhattan + 2 per linear conflict
};

/// kTileDistance[t][pos]: Manhattan distance of tile t at position pos from
/// its home (position t); a zero row for the blank.  Defined here, not out of
/// line, so every expansion's incremental update inlines to two loads.
inline constexpr auto kTileDistance = [] {
  std::array<std::array<std::int8_t, kCells>, kCells> d{};
  for (int t = 1; t < kCells; ++t) {
    for (int pos = 0; pos < kCells; ++pos) {
      d[static_cast<std::size_t>(t)][static_cast<std::size_t>(pos)] =
          static_cast<std::int8_t>(manhattan_between(pos, t));
    }
  }
  return d;
}();

/// Manhattan distance of tile `t` when sitting at position `pos` (0 for the
/// blank: it does not count toward the heuristic).
[[nodiscard]] inline int tile_distance(std::uint8_t t, int pos) {
  return kTileDistance[t][static_cast<std::size_t>(pos)];
}

/// Sum of tile distances for a whole board.
[[nodiscard]] int manhattan(const Board& board);

/// Change in Manhattan distance when tile `t` slides from `from` to `to`.
[[nodiscard]] inline int manhattan_delta(std::uint8_t t, int from, int to) {
  return tile_distance(t, to) - tile_distance(t, from);
}

/// Manhattan + linear conflict (Hansson, Mayer & Yung): two tiles in their
/// goal row (or column) that must pass each other add 2 moves each pair.
[[nodiscard]] int linear_conflict(const Board& board);

/// Evaluates the chosen heuristic on a board.
[[nodiscard]] int evaluate(const Board& board, Heuristic h);

}  // namespace simdts::puzzle
