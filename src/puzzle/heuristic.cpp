#include "puzzle/heuristic.hpp"

#include <array>

namespace simdts::puzzle {

namespace {

/// Conflicts within one line (row or column).  `tiles` are the tile values
/// at the line's four cells in order; `goal_cell[t]` is tile t's goal cell
/// within this line (-1: tile does not belong to this line).  Returns the
/// minimum number of tiles that must leave the line to resolve all pairwise
/// conflicts (Hansson, Mayer & Yung) — counting raw pairs would overestimate
/// and break admissibility, so tiles are removed greedily by conflict degree.
int line_conflicts(const std::array<std::uint8_t, kSide>& tiles,
                   const std::array<std::int8_t, kCells>& goal_cell) {
  // degree[i]: with how many other in-line tiles cell i's tile conflicts.
  std::array<int, kSide> degree{};
  auto conflicts = [&](int i, int j) {
    const std::uint8_t a = tiles[static_cast<std::size_t>(i)];
    const std::uint8_t b = tiles[static_cast<std::size_t>(j)];
    if (a == 0 || b == 0 || goal_cell[a] < 0 || goal_cell[b] < 0) return false;
    return goal_cell[a] > goal_cell[b];  // reversed goal order => must pass
  };
  bool conflict_matrix[kSide][kSide] = {};
  for (int i = 0; i < kSide; ++i) {
    for (int j = i + 1; j < kSide; ++j) {
      if (conflicts(i, j)) {
        conflict_matrix[i][j] = conflict_matrix[j][i] = true;
        ++degree[static_cast<std::size_t>(i)];
        ++degree[static_cast<std::size_t>(j)];
      }
    }
  }
  int removed = 0;
  for (;;) {
    int best = -1;
    for (int i = 0; i < kSide; ++i) {
      if (degree[static_cast<std::size_t>(i)] > 0 &&
          (best < 0 || degree[static_cast<std::size_t>(i)] >
                           degree[static_cast<std::size_t>(best)])) {
        best = i;
      }
    }
    if (best < 0) break;
    for (int j = 0; j < kSide; ++j) {
      if (conflict_matrix[best][j]) {
        conflict_matrix[best][j] = conflict_matrix[j][best] = false;
        --degree[static_cast<std::size_t>(j)];
      }
    }
    degree[static_cast<std::size_t>(best)] = 0;
    ++removed;
  }
  return removed;
}

}  // namespace

int manhattan(const Board& board) {
  int h = 0;
  for (int pos = 0; pos < kCells; ++pos) {
    h += tile_distance(board.tile(pos), pos);
  }
  return h;
}

int linear_conflict(const Board& board) {
  int conflicts = 0;
  for (int r = 0; r < kSide; ++r) {
    std::array<std::uint8_t, kSide> line{};
    std::array<std::int8_t, kCells> goal_cell{};
    goal_cell.fill(-1);
    for (int c = 0; c < kSide; ++c) {
      line[static_cast<std::size_t>(c)] = board.tile(r * kSide + c);
    }
    for (int t = 1; t < kCells; ++t) {
      if (row_of(t) == r) goal_cell[static_cast<std::size_t>(t)] =
          static_cast<std::int8_t>(col_of(t));
    }
    conflicts += line_conflicts(line, goal_cell);
  }
  for (int c = 0; c < kSide; ++c) {
    std::array<std::uint8_t, kSide> line{};
    std::array<std::int8_t, kCells> goal_cell{};
    goal_cell.fill(-1);
    for (int r = 0; r < kSide; ++r) {
      line[static_cast<std::size_t>(r)] = board.tile(r * kSide + c);
    }
    for (int t = 1; t < kCells; ++t) {
      if (col_of(t) == c) goal_cell[static_cast<std::size_t>(t)] =
          static_cast<std::int8_t>(row_of(t));
    }
    conflicts += line_conflicts(line, goal_cell);
  }
  return manhattan(board) + 2 * conflicts;
}

int evaluate(const Board& board, Heuristic h) {
  switch (h) {
    case Heuristic::kManhattan:
      return manhattan(board);
    case Heuristic::kLinearConflict:
      return linear_conflict(board);
  }
  return manhattan(board);
}

}  // namespace simdts::puzzle
