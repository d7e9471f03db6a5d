#include "lb/matching.hpp"

#include <bit>

#include "sanitizer/sanitizer.hpp"

namespace simdts::lb {

#ifdef SIMDTS_SANITIZE
namespace {

// SimdSan: a rendezvous round must match each donor at most once — a donor
// matched twice would ship the same bottom-of-stack subtree to two
// receivers.  The duplicate mutation corrupts the round so the mutation test
// can prove the check fires.
void san_check_round(std::vector<simd::Pair>& out) {
  if (san::mutation().duplicate_match_pair && out.size() >= 2) {
    out[1].donor = out[0].donor;
  }
  std::vector<std::uint32_t> donors;
  donors.reserve(out.size());
  for (const simd::Pair& pr : out) donors.push_back(pr.donor);
  san::verify_unique_donors(donors.data(), donors.size());
}

}  // namespace
#endif

void Matcher::match_into(const simd::BitPlane& busy_flags,
                         const simd::SummaryPlane& busy_summary,
                         const simd::BitPlane& idle_flags,
                         const simd::SummaryPlane& idle_summary,
                         std::size_t limit, std::vector<simd::Pair>& out) {
  const simd::PeIndex start_after =
      scheme_ == MatchScheme::kGP ? pointer_ : simd::kNoPe;
  simd::rendezvous_into(busy_flags, busy_summary, idle_flags, idle_summary,
                        start_after, limit, out);
#ifdef SIMDTS_SANITIZE
  san_check_round(out);
#endif
  if (scheme_ == MatchScheme::kGP && !out.empty()) {
    pointer_ = out.back().donor;
  }
}

void neighbor_pairs_into(const simd::BitPlane& busy_flags,
                         const simd::SummaryPlane& busy_summary,
                         const simd::BitPlane& idle_flags,
                         std::vector<simd::Pair>& out) {
  out.clear();
  const std::size_t p = busy_flags.size();
  if (p == 0) return;
  constexpr std::size_t kWordBits = simd::BitPlane::kWordBits;
  const std::span<const std::uint64_t> busy = busy_flags.words();
  const std::span<const std::uint64_t> idle = idle_flags.words();
  const std::size_t nw = busy.size();
  // A word with no busy lane contributes no pairs, so the word loop hops
  // via the busy summary.  The idle neighbour word is loaded
  // unconditionally — its summary state is irrelevant to the funnel shift.
  for (std::size_t w = busy_summary.next_occupied(0); w < nw;
       w = busy_summary.next_occupied(w + 1)) {
    // shifted bit b = idle[(w*64 + b + 1) % p]: a right funnel shift pulling
    // bit 0 of the next word (or, in the last word, idle[0] into the lane
    // P-1 position — the ring wrap).  Tail bits of the last idle word are
    // zero by the plane invariant, so they never leak into the shift.
    std::uint64_t shifted = idle[w] >> 1;
    if (w + 1 < nw) {
      shifted |= idle[w + 1] << (kWordBits - 1);
    } else {
      shifted |= static_cast<std::uint64_t>(idle[0] & 1)
                 << ((p - 1) % kWordBits);
    }
    std::uint64_t m = busy[w] & shifted;
    while (m != 0) {
      const auto b = static_cast<std::size_t>(std::countr_zero(m));
      m &= m - 1;
      const std::size_t i = w * kWordBits + b;
      const std::size_t j = i + 1 == p ? 0 : i + 1;
      out.push_back(simd::Pair{static_cast<simd::PeIndex>(i),
                               static_cast<simd::PeIndex>(j)});
    }
  }
}

}  // namespace simdts::lb
