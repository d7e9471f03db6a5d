// Batched 15-puzzle expansion: the kernel inside the engine's word step.
//
// The engine's word step pops a whole flag word's active lanes (at most 64
// nodes), notes each lane's top row, and expands the popped nodes one group
// of four child slots at a time.  For a domain without a kernel a group is
// one expand_row() call per node; for the 15-puzzle under the Manhattan
// heuristic it can instead be one expand_fifteen() call: the kernel
// computes all four moves of every node as branch-free u64 lane arithmetic
// (AVX2-wide), then fills node j's row with the same row contract as
// expand_row() (search::RowTreeProblem).  The 15-puzzle has one group, and
// the engine passes each lane's top_row(), so the children are written
// straight onto a WorkStack, and into the staging row a CompactStack
// encodes on commit().
//
// batch_applies picks the kernel once, at the engine's construction, and
// the word step runs it on every cycle when all of these hold:
//  - the problem has a kernel (kHasKernel — only puzzle::FifteenPuzzle);
//  - its heuristic is Manhattan (linear conflict re-evaluates whole boards);
//  - P >= kMinBatchPes (the kernel loads and pads its struct-of-arrays copy
//    per call, which costs more than the scalar loop when a word holds a
//    few active lanes, as in the tiny solves of a small machine);
//  - the host CPU has AVX2 and BMI2 (the kernel is compiled for them with a
//    function-level target attribute; the rest of the library keeps its
//    default flags, so no floating-point code generation changes).
//
// Contract, pinned end to end by tests/test_vector_backend.cpp: node j's
// child row holds, in its first child_counts[j] slots, exactly the children
// that FifteenPuzzle::expand_row() writes for node j (and expand() emits),
// in the same order, and the NextBound outcome equals that of `count` calls
// of expand_row().
// The kernel does the same integer arithmetic as expand_row() — only the
// schedule changes — so the engine's results do not depend on the choice.
#pragma once

#include <array>
#include <cstdint>

#include "puzzle/fifteen.hpp"
#include "search/problem.hpp"

namespace simdts::vec {

/// True for the problem types expand_fifteen() can expand.
template <typename P>
inline constexpr bool kHasKernel = false;
template <>
inline constexpr bool kHasKernel<puzzle::FifteenPuzzle> = true;

/// Smallest machine the word step runs the kernel on.
inline constexpr std::uint32_t kMinBatchPes = 64;

/// True when the host CPU executes the kernel's AVX2/BMI2 code (always
/// false off x86 or without GCC/Clang builtins).
[[nodiscard]] bool cpu_has_avx2() noexcept;

/// The kernel rule: true when the word step of an engine of `pes` lanes
/// over `p` should expand through expand_fifteen() instead of per-node
/// expand_row().
[[nodiscard]] bool batch_applies(const puzzle::FifteenPuzzle& p,
                                 std::uint32_t pes) noexcept;

/// Expands `count` (at most 64) Manhattan-heuristic nodes with `bound`.
/// Node j's children, compacted in move order, land in
/// `(*rows[j])[0..child_counts[j])`; the row's other slots are dead (a
/// rejected candidate or older data: the caller keeps only the count — see
/// WorkStack::commit).  A row may be any four writable slots, stack memory
/// included, but no row may overlap `nodes` or another row.  The smallest
/// pruned f-value is observed in `next`.  `rows` and `child_counts` hold at
/// least `count` entries.  Requires cpu_has_avx2().
void expand_fifteen(const puzzle::FifteenPuzzle::Node* nodes,
                    std::uint32_t count, search::Bound bound,
                    std::array<puzzle::FifteenPuzzle::Node, 4>* const* rows,
                    std::uint32_t* child_counts, search::NextBound& next);

}  // namespace simdts::vec
