// Matching schemes: nGP and GP (Section 2), plus the ring nearest-neighbour
// pairing used by the Frye baseline.
//
// Both global schemes are one-on-one matchings of busy donors to idle
// receivers via enumeration (sum-scans on the real machine).  nGP enumerates
// busy processors from PE 0 every time, so the processors early in the
// enumeration sequence are drafted into donating over and over (Appendix B
// shows V(P) can reach log^{(2x-1)/(1-x)} W phases).  GP keeps a *global
// pointer* to the last donor of the previous phase and starts the busy
// enumeration just after it, wrapping around — every processor shares the
// donation burden, and V(P) drops to 1/(1-x).
#pragma once

#include <cstddef>
#include <vector>

#include "lb/config.hpp"
#include "simd/rendezvous.hpp"

namespace simdts::lb {

class Matcher {
 public:
  explicit Matcher(MatchScheme scheme) : scheme_(scheme) {}

  /// Fills `out` (cleared first; a caller-owned buffer the engine reuses
  /// across load-balancing rounds) with min(#busy, #idle, limit)
  /// donor->receiver pairs.  For GP, advances the global pointer to the last
  /// donor of this call.  The limit exists for the FESS baseline, which
  /// serves a single idle processor per phase; it is pushed down into the
  /// rendezvous walk, so a small limit never materializes (then truncates)
  /// the full pair enumeration.  Both enumerations hop between occupied
  /// words via the planes' summaries, so a sparse round costs
  /// O(occupied words) instead of O(P/64).
  void match_into(const simd::BitPlane& busy_flags,
                  const simd::SummaryPlane& busy_summary,
                  const simd::BitPlane& idle_flags,
                  const simd::SummaryPlane& idle_summary, std::size_t limit,
                  std::vector<simd::Pair>& out);

  /// Position of the global pointer (kNoPe before the first GP phase, and
  /// always kNoPe for nGP).
  [[nodiscard]] simd::PeIndex pointer() const { return pointer_; }

  /// Resets the pointer (e.g. between IDA* iterations, the pointer persists;
  /// call this only to re-run from scratch).
  void reset() { pointer_ = simd::kNoPe; }

  [[nodiscard]] MatchScheme scheme() const { return scheme_; }

 private:
  MatchScheme scheme_;
  simd::PeIndex pointer_ = simd::kNoPe;
};

/// Ring nearest-neighbour pairing: PE i donates to PE i+1 (mod P) when i is
/// busy and i+1 is idle.  Decisions are taken on the snapshot flags, as on a
/// lock-step machine.  Fills `out` (cleared first) in donor order.  The pair
/// plane is busy AND (idle rotated one lane toward lower indices), computed
/// one word at a time — a funnel shift per word — and only busy-summary-
/// occupied words are visited (a word with no busy lane contributes no pairs
/// regardless of the idle plane).
void neighbor_pairs_into(const simd::BitPlane& busy_flags,
                         const simd::SummaryPlane& busy_summary,
                         const simd::BitPlane& idle_flags,
                         std::vector<simd::Pair>& out);

}  // namespace simdts::lb
