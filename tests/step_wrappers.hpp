// Forwarding wrappers that pin an Engine to one row source.
//
// lb::Engine has one expansion step, the word step; its row source comes
// from the problem's type: a word kernel where the type has one
// (vec::kHasKernel) and vec::kernel_rule picks a build, else expand_row()
// for a type that has it (search::RowTreeProblem), else the node's
// expand() output, staged once per pop.  Wrapping a domain in a type that
// forwards only part of its interface makes the engine take a chosen
// source while it searches exactly the same tree, which is what the
// step-equivalence oracles compare against.
//  - ExpandOnly<P> forwards expand() but not expand_row(): the expand()
//    row source, the reference the oracles compare the others to.
//  - RowStep<P> forwards expand_row() too but has no kernel: the word step's
//    scalar loop, even at machine sizes where the inner type would take the
//    kernel.
// Both forward the delta codec when the inner type has one, so the oracles
// cover CompactStack as well.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "search/problem.hpp"

namespace simdts::oracle {

template <search::TreeProblem Inner>
struct ExpandOnly {
  using Node = typename Inner::Node;

  template <typename... Args>
  explicit ExpandOnly(Args&&... args) : inner(std::forward<Args>(args)...) {}

  [[nodiscard]] Node root() const { return inner.root(); }
  void expand(const Node& n, search::Bound b, std::vector<Node>& out,
              search::NextBound& nb) const {
    inner.expand(n, b, out, nb);
  }
  [[nodiscard]] bool is_goal(const Node& n) const { return inner.is_goal(n); }
  [[nodiscard]] search::Bound f_value(const Node& n) const {
    return inner.f_value(n);
  }

  [[nodiscard]] std::uint8_t encode_delta(const Node& parent,
                                          const Node& child) const
    requires search::DeltaTreeProblem<Inner>
  {
    return inner.encode_delta(parent, child);
  }
  [[nodiscard]] Node decode_delta(const Node& n, std::uint8_t d) const
    requires search::DeltaTreeProblem<Inner>
  {
    return inner.decode_delta(n, d);
  }
  [[nodiscard]] Node undo_delta(const Node& c, std::uint8_t d,
                                std::uint8_t parent_d) const
    requires search::UndoDeltaProblem<Inner>
  {
    return inner.undo_delta(c, d, parent_d);
  }

  Inner inner;
};

template <search::RowTreeProblem Inner>
struct RowStep : ExpandOnly<Inner> {
  using Node = typename Inner::Node;
  using ExpandOnly<Inner>::ExpandOnly;

  [[nodiscard]] std::uint32_t child_slots() const {
    return this->inner.child_slots();
  }
  std::uint32_t expand_row(const Node& n, search::Bound b,
                           std::array<Node, 4>& row, search::NextBound& nb,
                           std::uint32_t first) const {
    return this->inner.expand_row(n, b, row, nb, first);
  }
};

}  // namespace simdts::oracle
