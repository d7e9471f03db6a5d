// N-queens as a TreeProblem.
//
// A second, structurally different domain for the generic search API: no
// heuristic, no cost bound, goal nodes at a fixed depth, and solution
// *counting* instead of shortest paths.  Used by the examples as the
// "bring your own problem" walkthrough and by the tests as an independent
// check that the parallel engine conserves work on a domain it was not
// tuned for (N=8 must always find exactly 92 solutions, on any scheme and
// any machine size).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "search/problem.hpp"

namespace simdts::queens {

class Queens {
 public:
  struct Node {
    std::uint32_t cols;   ///< columns already occupied
    std::uint32_t diag1;  ///< "/" diagonals, pre-shifted to the current row
    std::uint32_t diag2;  ///< "\" diagonals, pre-shifted
    std::uint8_t row;     ///< next row to fill

    friend bool operator==(const Node&, const Node&) = default;
  };

  explicit Queens(int n);

  [[nodiscard]] Node root() const { return Node{0, 0, 0, 0}; }

  /// Children: one queen in each free column of the next row, lowest
  /// column first.
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    search::expand_rows(*this, n, bound, out, next);
  }

  /// One child slot per column (search::RowTreeProblem).
  [[nodiscard]] std::uint32_t child_slots() const { return n_; }

  /// expand()'s children of `n` with the queen in columns [first,
  /// first + 4), in row[0..k), k returned.
  // SIMDLINT-REGION(lockstep)
  std::uint32_t expand_row(const Node& n, search::Bound /*bound*/,
                           std::array<Node, 4>& row,
                           search::NextBound& /*next*/,
                           std::uint32_t first) const {
    if (n.row >= n_) return 0;
    std::uint32_t free =
        full_ & ~(n.cols | n.diag1 | n.diag2) & (0xFu << first);
    std::uint32_t k = 0;
    while (free != 0) {
      const std::uint32_t bit = free & (0u - free);
      free ^= bit;
      row[k++] = Node{n.cols | bit, ((n.diag1 | bit) << 1) & full_,
                      (n.diag2 | bit) >> 1,
                      static_cast<std::uint8_t>(n.row + 1)};
    }
    return k;
  }

  [[nodiscard]] bool is_goal(const Node& n) const { return n.row == n_; }
  [[nodiscard]] search::Bound f_value(const Node&) const { return 0; }

  [[nodiscard]] int n() const { return n_; }

  /// The known solution count for board size n (1 <= n <= 15), for tests.
  [[nodiscard]] static std::uint64_t known_solutions(int n);

 private:
  int n_;
  std::uint32_t full_;
};

static_assert(search::RowTreeProblem<Queens>);

}  // namespace simdts::queens
