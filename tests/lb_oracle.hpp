// Test-only oracle for the load-balancing primitives.
//
// libsimdts ships one kernel per primitive — the packed, summary-hopping
// walks of simd/rendezvous.hpp and lb/matching.hpp.  This header states the
// same primitives as their plain specification over byte planes (one byte
// per PE, nonzero = set), written for obviousness rather than speed, so the
// equivalence tests can compare the shipped kernels against them lane for
// lane:
//  - ranked: a rotated index filter over start_after+1, ..., P-1, 0, ...;
//  - rendezvous: ranked(donors, start_after) zipped with ranked(receivers),
//    truncated at `limit`;
//  - Matcher: a rendezvous rotated after the GP pointer, which then moves to
//    the last donor;
//  - neighbor_pairs: pair (i, i+1 mod P) wherever busy[i] && idle[i+1 mod P].
//
// Packed and the packed_* wrappers run the shipped kernels on the same byte
// lists, for behavioural tests written against hand-picked flags.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "lb/config.hpp"
#include "lb/matching.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/summary.hpp"

namespace simdts::oracle {

using simd::kNoPe;
using simd::Pair;
using simd::PeIndex;

inline constexpr std::size_t kNoLimit = static_cast<std::size_t>(-1);

/// The set PEs of `flags`, visiting PEs start_after+1, ..., P-1, 0, ...,
/// start_after (PE order from 0 when start_after == kNoPe).
inline std::vector<PeIndex> ranked(std::span<const std::uint8_t> flags,
                                   PeIndex start_after = kNoPe) {
  const std::size_t p = flags.size();
  std::vector<PeIndex> out;
  for (std::size_t k = 0; k < p; ++k) {
    const std::size_t i =
        start_after == kNoPe ? k : (start_after + 1 + k) % p;
    if (flags[i] != 0) out.push_back(static_cast<PeIndex>(i));
  }
  return out;
}

/// Donor rank k paired with receiver rank k, for the first
/// min(#donors, #receivers, limit) ranks.
inline std::vector<Pair> rendezvous(std::span<const std::uint8_t> donors,
                                    std::span<const std::uint8_t> receivers,
                                    PeIndex start_after = kNoPe,
                                    std::size_t limit = kNoLimit) {
  const std::vector<PeIndex> d = ranked(donors, start_after);
  const std::vector<PeIndex> r = ranked(receivers);
  std::vector<Pair> out;
  for (std::size_t k = 0; k < std::min({d.size(), r.size(), limit}); ++k) {
    out.push_back(Pair{d[k], r[k]});
  }
  return out;
}

/// nGP and GP matching: GP starts the busy enumeration after its pointer and
/// leaves the pointer on the last donor it matched.
class Matcher {
 public:
  explicit Matcher(lb::MatchScheme scheme) : scheme_(scheme) {}

  std::vector<Pair> match(std::span<const std::uint8_t> busy,
                          std::span<const std::uint8_t> idle,
                          std::size_t limit = kNoLimit) {
    const bool gp = scheme_ == lb::MatchScheme::kGP;
    std::vector<Pair> pairs =
        rendezvous(busy, idle, gp ? pointer_ : kNoPe, limit);
    if (gp && !pairs.empty()) pointer_ = pairs.back().donor;
    return pairs;
  }

  [[nodiscard]] PeIndex pointer() const { return pointer_; }

 private:
  lb::MatchScheme scheme_;
  PeIndex pointer_ = kNoPe;
};

/// Ring pairing: busy PE i donates to idle PE i+1 (mod P).
inline std::vector<Pair> neighbor_pairs(std::span<const std::uint8_t> busy,
                                        std::span<const std::uint8_t> idle) {
  const std::size_t p = busy.size();
  std::vector<Pair> out;
  for (std::size_t i = 0; i < p; ++i) {
    const std::size_t j = (i + 1) % p;
    if (busy[i] != 0 && idle[j] != 0) {
      out.push_back(Pair{static_cast<PeIndex>(i), static_cast<PeIndex>(j)});
    }
  }
  return out;
}

/// One byte per lane of a packed plane.
inline std::vector<std::uint8_t> bytes_of(const simd::BitPlane& plane) {
  std::vector<std::uint8_t> bytes(plane.size());
  for (std::size_t i = 0; i < bytes.size(); ++i) bytes[i] = plane.test(i);
  return bytes;
}

/// A packed plane and its summary built from one byte per PE: the input
/// form of the shipped kernels.
struct Packed {
  explicit Packed(std::span<const std::uint8_t> bytes) : plane(bytes.size()) {
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      plane.set(i, bytes[i] != 0);
    }
    summary.assign_for_lanes(bytes.size());
    summary.rebuild(plane);
  }

  simd::BitPlane plane;
  simd::SummaryPlane summary;
};

/// simd::ranked_into on byte lists.
inline std::vector<PeIndex> packed_ranked(std::span<const std::uint8_t> flags,
                                          PeIndex start_after = kNoPe) {
  const Packed f(flags);
  std::vector<PeIndex> out;
  simd::ranked_into(f.plane, f.summary, start_after, out);
  return out;
}

/// simd::rendezvous_into on byte lists.
inline std::vector<Pair> packed_rendezvous(
    std::span<const std::uint8_t> donors,
    std::span<const std::uint8_t> receivers, PeIndex start_after = kNoPe,
    std::size_t limit = kNoLimit) {
  const Packed d(donors);
  const Packed r(receivers);
  std::vector<Pair> out;
  simd::rendezvous_into(d.plane, d.summary, r.plane, r.summary, start_after,
                        limit, out);
  return out;
}

/// lb::Matcher::match_into on byte lists.
inline std::vector<Pair> packed_match(lb::Matcher& matcher,
                                      std::span<const std::uint8_t> busy,
                                      std::span<const std::uint8_t> idle,
                                      std::size_t limit = kNoLimit) {
  const Packed b(busy);
  const Packed i(idle);
  std::vector<Pair> out;
  matcher.match_into(b.plane, b.summary, i.plane, i.summary, limit, out);
  return out;
}

/// lb::neighbor_pairs_into on byte lists.
inline std::vector<Pair> packed_neighbor_pairs(
    std::span<const std::uint8_t> busy, std::span<const std::uint8_t> idle) {
  const Packed b(busy);
  const Packed i(idle);
  std::vector<Pair> out;
  lb::neighbor_pairs_into(b.plane, b.summary, i.plane, out);
  return out;
}

}  // namespace simdts::oracle
