// Symmetric TSP as a TreeProblem, for depth-first branch-and-bound.
//
// The paper lists Depth-First Branch and Bound alongside IDA* as the tree
// search algorithms its load balancing targets (Section 2).  IDA* fixes the
// cost bound per iteration; DFBB instead *tightens* the bound whenever a
// better complete solution is found.  This domain provides the optimization
// problem for that mode: tours over n <= 16 cities with deterministic
// seeded distances, and an admissible lower bound (cost so far + the sum of
// each unvisited city's cheapest incident edge, and the cheapest way back
// to the start).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

#include "search/problem.hpp"

namespace simdts::tsp {

inline constexpr int kMaxCities = 16;

class Tsp {
 public:
  struct Node {
    std::uint16_t visited;  ///< bitmask of visited cities
    std::uint8_t last;      ///< current city
    std::uint8_t count;     ///< number of visited cities
    std::int32_t cost;      ///< tour cost so far (closed-tour cost at goal)

    friend bool operator==(const Node&, const Node&) = default;
  };

  /// Random symmetric instance: distances uniform in [1, max_distance],
  /// deterministic in the seed.  Tours start and end at city 0.
  Tsp(int n, std::uint64_t seed, std::int32_t max_distance = 100);

  /// An instance from an explicit distance matrix (row-major, n x n;
  /// must be symmetric with zero diagonal).
  Tsp(int n, const std::vector<std::int32_t>& distances);

  [[nodiscard]] Node root() const { return Node{1, 0, 1, 0}; }

  /// Children: unvisited next cities whose lower bound fits the bound, in
  /// city order; a node that has visited everyone closes the tour back to
  /// city 0 and becomes a goal carrying the full tour cost.
  void expand(const Node& n, search::Bound bound, std::vector<Node>& out,
              search::NextBound& next) const {
    search::expand_rows(*this, n, bound, out, next);
  }

  /// One child slot per city (search::RowTreeProblem).
  [[nodiscard]] std::uint32_t child_slots() const { return n_; }

  /// expand()'s children of `n` with next city in [first, first + 4), in
  /// row[0..k), k returned; the pruned ones' f-values go to `next`.
  // SIMDLINT-REGION(lockstep)
  std::uint32_t expand_row(const Node& n, search::Bound bound,
                           std::array<Node, 4>& row, search::NextBound& next,
                           std::uint32_t first) const {
    if (n.count == n_) return 0;  // goals are not expanded
    const int last = std::min(static_cast<int>(first) + 4, n_);
    std::uint32_t k = 0;
    for (int c = static_cast<int>(first); c < last; ++c) {
      const std::uint16_t bit = static_cast<std::uint16_t>(1u << c);
      if ((n.visited & bit) != 0) continue;
      Node child{static_cast<std::uint16_t>(n.visited | bit),
                 static_cast<std::uint8_t>(c),
                 static_cast<std::uint8_t>(n.count + 1),
                 n.cost + distance(n.last, c)};
      if (child.count == n_) child.cost += distance(c, 0);  // close the tour
      const search::Bound f = f_value(child);
      if (f <= bound) {
        row[k++] = child;
      } else {
        next.observe(f);
      }
    }
    return k;
  }

  [[nodiscard]] bool is_goal(const Node& n) const { return n.count == n_; }

  /// Admissible f: cost so far plus, for every unvisited city and for the
  /// pending return to 0, the cheapest incident edge (half-matching bound).
  [[nodiscard]] search::Bound f_value(const Node& n) const {
    if (n.count == n_) return n.cost;
    std::int32_t lb = n.cost + min_edge_[n.last] / 2;
    for (int c = 0; c < n_; ++c) {
      if ((n.visited & (1u << c)) == 0) lb += min_edge_[c];
    }
    lb += min_edge_[0] / 2;
    return lb;
  }

  [[nodiscard]] int size() const { return n_; }
  [[nodiscard]] std::int32_t distance(int a, int b) const {
    return dist_[static_cast<std::size_t>(a) * kMaxCities +
                 static_cast<std::size_t>(b)];
  }

  /// Exact optimal closed-tour cost by exhaustive permutation (n <= 12) —
  /// the test oracle.
  [[nodiscard]] std::int32_t brute_force_optimal() const;

 private:
  void finish_setup();

  int n_;
  std::array<std::int32_t, kMaxCities * kMaxCities> dist_{};
  std::array<std::int32_t, kMaxCities> min_edge_{};
};

static_assert(search::RowTreeProblem<Tsp>);

}  // namespace simdts::tsp
