// Rendezvous allocation: pairing the k-th element of one set of PEs with the
// k-th element of another (Hillis, "The Connection Machine").
//
// Both the paper's matching schemes reduce to this primitive.  nGP pairs the
// k-th busy PE (in PE-index order) with the k-th idle PE.  GP pairs the k-th
// busy PE *in an enumeration that starts just after a global pointer and
// wraps around* with the k-th idle PE — the rotation is the whole difference
// between the two schemes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "simd/bitplane.hpp"
#include "simd/summary.hpp"

namespace simdts::simd {

/// Index of a processing element in the machine.  32 bits bound the
/// supported machine envelope at P < 2^32 — four thousand times the
/// P = 2^20 the mega-P sweeps exercise — and every rank/index on the P axis
/// uses this width (no narrower type appears on that axis; a regression at
/// non-power-of-64 P > 2^16 is pinned by tests/test_mega_p.cpp).
using PeIndex = std::uint32_t;
inline constexpr PeIndex kNoPe = static_cast<PeIndex>(-1);

/// One matched (donor, receiver) pair produced by a rendezvous.
struct Pair {
  PeIndex donor;
  PeIndex receiver;
  friend bool operator==(const Pair&, const Pair&) = default;
};

// The enumeration contract shared by every kernel below.  Donor ranks are
// assigned in PE-index order starting at the first donor *strictly after*
// `start_after` and wrapping around the machine; receiver ranks are assigned
// in plain PE-index order.  `start_after == kNoPe` yields the unrotated
// (nGP) enumeration.  Exactly min(#donors, #receivers, limit) pairs are
// produced, pair k joining donor-rank k with receiver-rank k (the paper's
// one-on-one matching: when idle processors outnumber busy ones only the
// first A idle processors receive work, and vice versa).  The walk stops as
// soon as `limit` pairs are emitted, so a small limit (the FESS baseline
// serves one idle PE per phase) never materializes the full enumeration.
//
// The kernels walk packed planes one std::uint64_t word per 64 lanes and
// extract set lanes with std::countr_zero.  Each consults a SummaryPlane
// (one bit per plane word) to hop straight between occupied words, so a
// phase scales with the number of occupied words, not with P — the common
// sparse case at mega-P.  A clear summary bit guarantees a zero word, so
// skipping it cannot change the enumeration.  tests/lb_oracle.hpp states
// the same contract as a plain per-lane walk; the kernels are pinned to it
// by tests/test_bitplane.cpp and tests/test_summary.cpp.

/// Fills `out` (cleared first; a caller-owned buffer so hot loops reuse its
/// capacity) with the rank-aligned donor->receiver pairs, hopping via each
/// plane's summary.
void rendezvous_into(const BitPlane& donor_flags,
                     const SummaryPlane& donor_summary,
                     const BitPlane& receiver_flags,
                     const SummaryPlane& receiver_summary, PeIndex start_after,
                     std::size_t limit, std::vector<Pair>& out);

/// Fills `out` (cleared first) with the set PEs of `flags` in enumeration
/// order: plain PE-index order, or — when `start_after != kNoPe` — starting
/// at the first set PE strictly after `start_after` and wrapping around.
/// rendezvous_into() is rank-aligned zipping of two such enumerations.
void ranked_into(const BitPlane& flags, const SummaryPlane& summary,
                 PeIndex start_after, std::vector<PeIndex>& out);

/// The same pairs as the summary-aware rendezvous_into(), but visiting every
/// plane word.  Only perfbench calls it: perfbench/probes.hpp times it as
/// `simd.rendezvous_flat_ns`, and it goes together with that probe in the
/// benchmark change of ROADMAP item 1(e).
void rendezvous_into(const BitPlane& donor_flags,
                     const BitPlane& receiver_flags, PeIndex start_after,
                     std::size_t limit, std::vector<Pair>& out);

}  // namespace simdts::simd
