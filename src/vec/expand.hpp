// The word kernels: batched expansion inside the engine's word step.
//
// The engine's word step pops a whole flag word's active lanes (at most 64
// nodes), notes each lane's top row, and expands the popped nodes one group
// of four child slots at a time.  For a domain without a kernel a group is
// one expand_row() call per node; for a domain with one (kHasKernel) it can
// instead be one expand_group() call: the kernel loads the nodes into
// struct-of-arrays form, computes every child slot of every node as
// branch-free u64 lane arithmetic, then fills node j's row with the same
// row contract as expand_row() (search::RowTreeProblem).  The engine passes
// each lane's top_row(), so the children are written straight onto a
// WorkStack, and into the staging row a CompactStack encodes on commit().
//
// Two kernels, each compiled from one source per instruction set (Isa) with
// a function-level target attribute; the rest of the library keeps its
// default flags, so no floating-point code generation changes elsewhere:
//  - the 15-puzzle under the Manhattan heuristic (one group of four moves),
//    built for AVX2/BMI2 and for AVX-512 (8 u64 lanes per instruction);
//  - synthetic trees of any max_children (one call per slot group), built
//    for AVX-512 only: its hash needs two 64-bit multiplies per slot, which
//    AVX-512DQ has and AVX2 lacks (docs/performance.md, "AVX-512 kernels",
//    gives the AVX2 build's measurements and why it is not shipped).
//
// kernel_rule picks the build once, at the engine's construction, from the
// problem, the machine size and the CPU's widest Isa (host_isa(), detected
// once per process).  A kernel runs only where all of these hold:
//  - the problem type has one (kHasKernel);
//  - for the 15-puzzle, the heuristic is Manhattan (linear conflict
//    re-evaluates whole boards);
//  - P >= kMinBatchPes (a kernel loads and pads its struct-of-arrays copy
//    per call, which costs more than the scalar loop when a word holds a
//    few active lanes, as in the tiny solves of a small machine; the tree
//    kernel loses only below P = 16, so any cutoff from 16 to 64 serves
//    trees and they share the 15-puzzle's: docs/performance.md, "The tree
//    kernel's cutoff, measured");
//  - the CPU runs a build of that kernel: AVX2/BMI2 or AVX-512 for the
//    15-puzzle (the widest wins), AVX-512 for trees.
//
// Contract, pinned end to end by tests/test_vector_backend.cpp: node j's
// child row holds, in its first child_counts[j] slots, exactly the children
// that expand_row(nodes[j], bound, row, next, first) writes, in the same
// order, and the NextBound outcome equals that of `count` expand_row()
// calls.  The kernels do the same integer arithmetic as expand_row() (the
// tree threshold is expand_row()'s own existence_threshold()) — only the
// schedule changes — so the engine's results do not depend on the choice.
#pragma once

#include <array>
#include <cstdint>

#include "puzzle/fifteen.hpp"
#include "search/problem.hpp"
#include "synthetic/tree.hpp"

namespace simdts::vec {

/// The instruction sets the kernels are built for, narrowest first; each
/// includes the ones before it.
enum class Isa : std::uint8_t {
  kNone,    ///< no kernel build: the word step's scalar loop
  kAvx2,    ///< AVX2 + BMI2
  kAvx512,  ///< AVX-512 F/DQ/VL/BW, plus AVX2 + BMI2
};

/// The widest Isa the host CPU executes, detected once per process (kNone
/// off x86 or without GCC/Clang builtins).
[[nodiscard]] Isa host_isa() noexcept;

/// True for the problem types expand_group() can expand.
template <typename P>
inline constexpr bool kHasKernel = false;
template <>
inline constexpr bool kHasKernel<puzzle::FifteenPuzzle> = true;
template <>
inline constexpr bool kHasKernel<synthetic::Tree> = true;

/// Smallest machine the word step runs a kernel on.
inline constexpr std::uint32_t kMinBatchPes = 64;

/// The kernel rule: the build the word step of an engine of `pes` lanes
/// over the problem runs on a CPU whose widest Isa is `cpu`, or Isa::kNone
/// for the scalar expand_row() loop.  A pure function, so every branch is
/// testable on any host; the engine passes host_isa().
[[nodiscard]] Isa kernel_rule(const puzzle::FifteenPuzzle& p,
                              std::uint32_t pes, Isa cpu) noexcept;
[[nodiscard]] Isa kernel_rule(const synthetic::Tree& t, std::uint32_t pes,
                              Isa cpu) noexcept;

/// The engine's kernel hook: expands slot group `first` of `count` (at
/// most 64) popped nodes with `bound` through the `isa` build, which the
/// CPU must run (`isa <= host_isa()`).  Where the kernel has no `isa` build
/// for the problem (Isa::kNone, AVX2 for a tree, a 15-puzzle heuristic
/// other than Manhattan) the call runs one expand_row() per node instead,
/// so the rows are the same whatever the Isa.  Node j's
/// children, compacted in slot order, land in
/// `(*rows[j])[0..child_counts[j])`; the row's other slots are dead (a
/// rejected candidate or older data: the caller keeps only the count — see
/// WorkStack::commit).  A row may be any four writable slots, stack memory
/// included, but no row may overlap `nodes` or another row.  Pruned
/// f-values are observed in `next`.  `rows` and `child_counts` hold at
/// least `count` entries.
void expand_group(Isa isa, const puzzle::FifteenPuzzle& p,
                  const puzzle::FifteenPuzzle::Node* nodes,
                  std::uint32_t count, search::Bound bound,
                  std::array<puzzle::FifteenPuzzle::Node, 4>* const* rows,
                  std::uint32_t* child_counts, search::NextBound& next,
                  std::uint32_t first);
void expand_group(Isa isa, const synthetic::Tree& t,
                  const synthetic::Tree::Node* nodes, std::uint32_t count,
                  search::Bound bound,
                  std::array<synthetic::Tree::Node, 4>* const* rows,
                  std::uint32_t* child_counts, search::NextBound& next,
                  std::uint32_t first);

}  // namespace simdts::vec
