#include "puzzle/board.hpp"

#include <sstream>

#include "common/error.hpp"
#include "fault/fault.hpp"

namespace simdts::puzzle {

Board Board::from_tiles(const std::array<std::uint8_t, kCells>& tiles) {
  std::uint32_t seen = 0;
  std::uint64_t packed = 0;
  for (int pos = 0; pos < kCells; ++pos) {
    const std::uint8_t t = tiles[static_cast<std::size_t>(pos)];
    if (t >= kCells || (seen & (1u << t)) != 0) {
      throw ConfigError("Board: tiles must be a permutation of 0..15",
                        "tile=" + std::to_string(t) + " pos=" +
                            std::to_string(pos));
    }
    seen |= 1u << t;
    packed |= static_cast<std::uint64_t>(t) << (4 * pos);
  }
  return Board(packed);
}

int Board::blank_position() const {
  for (int pos = 0; pos < kCells; ++pos) {
    if (tile(pos) == 0) return pos;
  }
  throw InvariantError("Board: no blank tile", to_string());
}

std::array<std::uint8_t, kCells> Board::tiles() const {
  std::array<std::uint8_t, kCells> out{};
  for (int pos = 0; pos < kCells; ++pos) {
    out[static_cast<std::size_t>(pos)] = tile(pos);
  }
  return out;
}

std::optional<Board> Board::apply(Move m, int& blank,
                                  std::uint8_t* moved_tile) const {
  int target = -1;
  switch (m) {
    case Move::kUp:
      if (row_of(blank) == 0) return std::nullopt;
      target = blank - kSide;
      break;
    case Move::kDown:
      if (row_of(blank) == kSide - 1) return std::nullopt;
      target = blank + kSide;
      break;
    case Move::kLeft:
      if (col_of(blank) == 0) return std::nullopt;
      target = blank - 1;
      break;
    case Move::kRight:
      if (col_of(blank) == kSide - 1) return std::nullopt;
      target = blank + 1;
      break;
  }
  const std::uint64_t t = (packed_ >> (4 * target)) & 0xF;
  if (moved_tile != nullptr) *moved_tile = static_cast<std::uint8_t>(t);
  // Clear the moved tile's nibble and write it at the old blank position
  // (the blank nibble is 0, so only one nibble needs setting).
  std::uint64_t packed = packed_ & ~(0xFULL << (4 * target));
  packed |= t << (4 * blank);
  blank = target;
  return Board(packed);
}

int Board::permutation_parity() const {
  // Parity via cycle decomposition of position -> tile.
  std::array<bool, kCells> visited{};
  int transpositions = 0;
  for (int start = 0; start < kCells; ++start) {
    if (visited[static_cast<std::size_t>(start)]) continue;
    int len = 0;
    int pos = start;
    while (!visited[static_cast<std::size_t>(pos)]) {
      visited[static_cast<std::size_t>(pos)] = true;
      pos = tile(pos);
      ++len;
    }
    transpositions += len - 1;
  }
  return transpositions % 2;
}

bool Board::solvable() const {
  const int blank = blank_position();
  const int blank_dist = manhattan_between(blank, 0);
  return permutation_parity() == blank_dist % 2;
}

std::string Board::to_string() const {
  std::ostringstream os;
  for (int r = 0; r < kSide; ++r) {
    for (int c = 0; c < kSide; ++c) {
      const int t = tile(r * kSide + c);
      if (c > 0) os << ' ';
      if (t == 0) {
        os << "  .";
      } else {
        os << (t < 10 ? "  " : " ") << t;
      }
    }
    os << '\n';
  }
  return os.str();
}

Board random_walk(std::uint64_t seed, int steps) {
  std::uint64_t state = seed ^ 0xD1B54A32D192ED03ULL;
  Board board = Board::goal();
  int blank = 0;
  std::uint8_t last = kNoMove;
  int done = 0;
  while (done < steps) {
    const auto m = static_cast<Move>(fault::splitmix64(state) & 3);
    if (last != kNoMove && m == inverse(static_cast<Move>(last))) continue;
    int b = blank;
    const auto next = board.apply(m, b);
    if (!next.has_value()) continue;
    board = *next;
    blank = b;
    last = static_cast<std::uint8_t>(m);
    ++done;
  }
  return board;
}

}  // namespace simdts::puzzle
