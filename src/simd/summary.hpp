// Hierarchical (two-level) occupancy summaries over packed flag planes.
//
// Every load-balancing enumeration — rendezvous matching, ranked selection,
// ring pairing — and the expand cycle's word walk scan a BitPlane one
// 64-lane word at a time: O(P/64) loads per phase even when only a handful
// of lanes are set.  At P = 2^20 that is 16384 word loads per plane per
// phase.  A SummaryPlane adds Blelloch's two-level structure: one bit per
// plane *word*, set exactly when that word is nonzero.  Enumerations then skip clear regions
// at 64 plane words (4096 lanes) per summary-word load and scale with the
// number of *occupied* words, not with P.
//
// Discipline (the "summary-plane discipline" of docs/performance.md):
//  - The summary is maintained incrementally alongside the plane: whoever
//    writes a plane word refreshes its summary bit (BitPlane's zero-tail
//    invariant holds at both levels).
//  - A summary consumer may rely on: bit w clear  =>  plane word w == 0.
//    Summary-aware kernels therefore produce bit-identical output to a walk
//    over every lane by construction; the property tests in
//    tests/test_summary.cpp pin this against the per-lane oracle of
//    tests/lb_oracle.hpp across random planes, and under
//    SIMDTS_SANITIZE the engine's per-cycle sweep re-verifies every summary
//    against a recomputation (the census-divergence check extended to the
//    summary level).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>

#include "sanitizer/sanitizer.hpp"
#include "simd/bitplane.hpp"

namespace simdts::simd {

class SummaryPlane {
 public:
  SummaryPlane() = default;

  /// Sizes the summary for a plane of `lanes` lanes (one summary lane per
  /// plane word), every bit `value`.
  void assign_for_lanes(std::size_t lanes, bool value = false) {
    bits_.assign(BitPlane::word_count_for(lanes), value);
  }

  /// Recomputes every bit from the plane (serial contexts: run start, fault
  /// events).  The incremental path must agree with this — that is the
  /// summary-level divergence check.
  void rebuild(const BitPlane& plane) {
    const std::span<const std::uint64_t> ws = plane.words();
    for (std::size_t w = 0; w < ws.size(); ++w) {
      bits_.set(w, ws[w] != 0);
    }
  }

  /// Refreshes the bit for plane word `w` from its just-written value.
  /// Lockstep-safe: one masked word write, preserving the zero-tail
  /// invariant (w < size() keeps the bit inside the valid mask).
  void update_word(std::size_t w, std::uint64_t word_value) noexcept {
    std::uint64_t& sw = bits_.words()[w / BitPlane::kWordBits];
    const std::uint64_t bit = std::uint64_t{1} << (w % BitPlane::kWordBits);
    sw = word_value != 0 ? (sw | bit) : (sw & ~bit);
  }

  /// True when plane word `w` may be nonzero (clear bit guarantees zero).
  [[nodiscard]] bool test(std::size_t w) const SIMDTS_SAN_NOEXCEPT {
    return bits_.test(w);
  }

  /// Number of plane words covered.
  [[nodiscard]] std::size_t size() const noexcept { return bits_.size(); }

  /// The summary's own packed words (bit w = plane word w occupied).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return bits_.words();
  }

  /// First summary-set plane word >= `from`, or size() when none: the
  /// word-skipping step of every summary-aware enumeration.
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const noexcept {
    const std::size_t n = bits_.size();
    if (from >= n) return n;
    const std::span<const std::uint64_t> ws = bits_.words();
    std::size_t sw = from / BitPlane::kWordBits;
    std::uint64_t m =
        ws[sw] & (~std::uint64_t{0} << (from % BitPlane::kWordBits));
    // The zero-tail invariant keeps bits past size() clear, so the first
    // set bit found is always a valid plane word.
    while (m == 0) {
      if (++sw == ws.size()) return n;
      m = ws[sw];
    }
    return sw * BitPlane::kWordBits +
           static_cast<std::size_t>(std::countr_zero(m));
  }

#ifdef SIMDTS_SANITIZE
  /// Sanitize-only: verifies every summary bit against the plane (bit w set
  /// iff word w nonzero) plus the summary's own zero-tail invariant —
  /// SimdSan's census-divergence check extended to the summary level.
  void san_verify(const BitPlane& plane, const char* name) const {
    bits_.san_verify_tail(name);
    const std::span<const std::uint64_t> ws = plane.words();
    for (std::size_t w = 0; w < ws.size(); ++w) {
      san::check_census(bits_.test(w) ? 1 : 0, ws[w] != 0 ? 1 : 0, name);
    }
  }
#endif

 private:
  BitPlane bits_;  ///< one lane per plane word
};

}  // namespace simdts::simd
