// Forwarding wrappers that pin an Engine to one expansion path.
//
// lb::Engine picks its step from the problem's type (lb::ExpandStep): the
// word step for a type with expand_row() (search::RowTreeProblem), which
// runs a word kernel where the type has one (vec::kHasKernel) and
// vec::kernel_rule picks a build, and the vector step for every other
// TreeProblem.  Wrapping a domain in a type that forwards only part of its
// interface makes the engine take a chosen path while it searches exactly
// the same tree, which is what the step-equivalence oracles compare against.
//  - VectorStep<P> forwards expand() but not expand_row(): the vector step.
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
struct VectorStep {
  using Node = typename Inner::Node;

  template <typename... Args>
  explicit VectorStep(Args&&... args) : inner(std::forward<Args>(args)...) {}

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
struct RowStep : VectorStep<Inner> {
  using Node = typename Inner::Node;
  using VectorStep<Inner>::VectorStep;

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
