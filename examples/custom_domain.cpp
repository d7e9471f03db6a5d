// Bring your own search problem: this walkthrough defines a new domain from
// scratch — subset-sum over a fixed item list — plugs it into the generic
// TreeProblem interface, and runs it through both the serial reference
// search and the parallel SIMD engine.  It also exercises the bundled
// N-queens domain for comparison.
//
// The TreeProblem contract (see src/search/problem.hpp) is the minimum:
//   - Node: cheap-to-copy value type (it *is* the unit of load balancing)
//   - root(): the initial node
//   - expand(node, bound, out, next): append children within the bound
//   - is_goal(node) / f_value(node)
// SubsetSum stops there, so the engine's word step expands each popped
// node once through expand() and copies the children onto the PE's stack
// four at a time.  The fast path is search::RowTreeProblem: child_slots()
// and expand_row(node, bound, row, next, first), which writes the children
// of child slots [first, first + 4) into a row of four, straight onto a
// PE's stack, with no copy.  Queens below implements it, with expand() as
// the one-line search::expand_rows() over it.
#include <cstdint>
#include <iostream>
#include <vector>

#include "lb/engine.hpp"
#include "queens/queens.hpp"
#include "search/serial.hpp"

namespace {

using simdts::search::Bound;
using simdts::search::NextBound;

/// Subset-sum: count the subsets of `items` summing exactly to `target`.
/// The tree branches on include/exclude per item, pruned by the remaining
/// achievable range — an irregular tree, just like the paper wants.
class SubsetSum {
 public:
  struct Node {
    std::uint32_t index;  ///< next item to decide
    std::int64_t sum;     ///< sum of included items so far
  };

  SubsetSum(std::vector<std::int64_t> items, std::int64_t target)
      : items_(std::move(items)), target_(target) {
    suffix_pos_.resize(items_.size() + 1, 0);
    suffix_neg_.resize(items_.size() + 1, 0);
    for (std::size_t i = items_.size(); i-- > 0;) {
      suffix_pos_[i] =
          suffix_pos_[i + 1] + std::max<std::int64_t>(0, items_[i]);
      suffix_neg_[i] =
          suffix_neg_[i + 1] + std::min<std::int64_t>(0, items_[i]);
    }
  }

  [[nodiscard]] Node root() const { return Node{0, 0}; }

  void expand(const Node& n, Bound /*bound*/, std::vector<Node>& out,
              NextBound& /*next*/) const {
    if (n.index >= items_.size()) return;
    // Prune subtrees that cannot reach the target any more.
    for (const std::int64_t pick : {std::int64_t{0}, items_[n.index]}) {
      const std::int64_t sum = n.sum + pick;
      const std::int64_t hi = sum + suffix_pos_[n.index + 1];
      const std::int64_t lo = sum + suffix_neg_[n.index + 1];
      if (target_ < lo || target_ > hi) continue;
      out.push_back(Node{n.index + 1, sum});
    }
  }

  [[nodiscard]] bool is_goal(const Node& n) const {
    return n.index == items_.size() && n.sum == target_;
  }
  [[nodiscard]] Bound f_value(const Node&) const { return 0; }

 private:
  std::vector<std::int64_t> items_;
  std::int64_t target_;
  std::vector<std::int64_t> suffix_pos_;
  std::vector<std::int64_t> suffix_neg_;
};

static_assert(simdts::search::TreeProblem<SubsetSum>);

}  // namespace

int main() {
  using namespace simdts;

  // A mildly adversarial instance: 28 pseudo-random items.
  std::vector<std::int64_t> items;
  std::uint64_t s = 0x9E3779B97F4A7C15ULL;
  for (int i = 0; i < 28; ++i) {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    items.push_back(static_cast<std::int64_t>(s % 4001) - 2000);
  }
  const std::int64_t target = items[0] + items[5] + items[9] + items[17];
  const SubsetSum problem(items, target);

  const auto serial =
      search::serial_dfs(problem, problem.root(), search::kUnbounded);
  std::cout << "subset-sum serial: " << serial.nodes_expanded
            << " nodes, " << serial.goals_found << " subsets hit the target\n";

  simd::Machine machine(1024, simd::cm2_cost_model());
  lb::Engine<SubsetSum> engine(problem, machine, lb::gp_dk());
  const lb::IterationStats it = engine.run_iteration(search::kUnbounded);
  std::cout << "subset-sum parallel (P = 1024, GP-DK): "
            << summarize(it) << '\n';

  const bool ok_subset = it.nodes_expanded == serial.nodes_expanded &&
                         it.goals_found == serial.goals_found;
  std::cout << (ok_subset ? "OK: custom domain conserved through the engine\n"
                          : "MISMATCH in the custom domain!\n");

  // The same three-line recipe on the bundled N-queens domain.
  const queens::Queens q(10);
  simd::Machine m2(1024, simd::cm2_cost_model());
  lb::Engine<queens::Queens> qe(q, m2, lb::gp_dk());
  const lb::IterationStats qit = qe.run_iteration(search::kUnbounded);
  std::cout << "10-queens parallel: " << qit.goals_found
            << " solutions (expected "
            << queens::Queens::known_solutions(10) << "), E = "
            << qit.efficiency() << '\n';

  const bool ok_queens =
      qit.goals_found == queens::Queens::known_solutions(10);
  return ok_subset && ok_queens ? 0 : 1;
}
