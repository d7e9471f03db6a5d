// The per-lane state of lb::Engine, and the one code that writes it.
//
// On the paper's machine each PE sets its own busy and idle flag bits in
// lock step, and the triggers and matchings read only global counts over
// those bit planes.  Lanes holds that state for P lanes: one stack per
// lane, the busy / idle / dead flag planes (simd::BitPlane), a
// simd::SummaryPlane per plane (busy, idle, and "work": word w holds an
// active lane), the census and the alive count.  Its invariant, between
// calls:
//  - a surviving lane is idle exactly when its stack is empty and busy
//    exactly when its stack is splittable; a dead lane is neither, and its
//    stack is empty;
//  - every summary bit is set exactly when its plane word is nonzero, the
//    work summary's when active_lanes(w) is;
//  - nonempty() is the number of active lanes and splittable() the number of
//    busy ones; empty() is derived, alive() - nonempty().
// After construction every write goes through write_word(), which stores a
// word of the two flag planes, refreshes its three summary bits and moves
// the census by the word's change in active and busy lanes.  Its callers
// are the lock-step word settle (settle_word), the serial single-lane path
// (reclassify: work transfers, fault recovery, kill and revive) and the
// iteration reset.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "sanitizer/sanitizer.hpp"
#include "simd/bitplane.hpp"
#include "simd/summary.hpp"

namespace simdts::lb {

/// The lane state of an Engine over `StackT` lanes (search::WorkStack or
/// search::CompactStack); see the header comment for its invariant.
template <typename StackT>
class Lanes {
 public:
  static constexpr std::size_t kWordBits = simd::BitPlane::kWordBits;

  /// `p` surviving, empty, idle lanes; binds each stack to `problem` where
  /// the stack takes one (CompactStack's codec).
  template <typename P>
  Lanes(std::size_t p, const P& problem)
      : stacks_(p),
        busy_(p),
        idle_(p, true),
        dead_(p),
        alive_(static_cast<std::uint32_t>(p)) {
    if constexpr (requires(StackT& s) { s.bind(problem); }) {
      for (StackT& s : stacks_) s.bind(problem);
    }
    busy_summary_.assign_for_lanes(p);
    idle_summary_.assign_for_lanes(p, true);
    work_summary_.assign_for_lanes(p);
  }

  [[nodiscard]] std::size_t size() const noexcept { return stacks_.size(); }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return idle_.word_count();
  }

  [[nodiscard]] std::uint32_t alive() const noexcept { return alive_; }
  [[nodiscard]] std::uint32_t nonempty() const noexcept { return nonempty_; }
  [[nodiscard]] std::uint32_t splittable() const noexcept {
    return splittable_;
  }
  [[nodiscard]] std::uint32_t empty() const noexcept {
    return alive_ - nonempty_;
  }

  [[nodiscard]] const simd::BitPlane& busy() const noexcept { return busy_; }
  [[nodiscard]] const simd::BitPlane& idle() const noexcept { return idle_; }
  [[nodiscard]] const fault::DeadLanePlane& dead() const noexcept {
    return dead_;
  }
  [[nodiscard]] const simd::SummaryPlane& busy_summary() const noexcept {
    return busy_summary_;
  }
  [[nodiscard]] const simd::SummaryPlane& idle_summary() const noexcept {
    return idle_summary_;
  }
  [[nodiscard]] const StackT& stack(std::size_t i) const { return stacks_[i]; }

  /// Word w's active lanes: surviving lanes holding work.
  [[nodiscard]] std::uint64_t active_lanes(std::size_t w) const noexcept {
    return ~idle_.words()[w] & ~dead_.words()[w] & idle_.word_mask(w);
  }

  /// First word >= `from` with an active lane, or word_count().
  [[nodiscard]] std::size_t next_occupied(std::size_t from) const noexcept {
    return work_summary_.next_occupied(from);
  }

  /// Word w's 64 stacks (fewer in the last word), for the expansion step to
  /// pop, fill top rows and commit between active_lanes(w) and settle_word(w),
  /// which commits each lane's last row.
  [[nodiscard]] StackT* word_stacks(std::size_t w) noexcept {
    return &stacks_[w * kWordBits];
  }

  /// Settles word w after the expansion step: each lane of `active` (word
  /// w's active lanes) not in `goal_bits` has popped a node and written its
  /// last slot group into its top row, and commits that group's count, the
  /// next of `counts` in bit order; then every lane of `active` sets its
  /// idle and busy bits from its stack, and the word is written back.  A
  /// lane that ran dry releases its stack's heap where the stack pools it
  /// (CompactStack), so resident memory tracks live work; results are
  /// unchanged.
  void settle_word(std::size_t w, std::uint64_t active,
                   std::uint64_t goal_bits, const std::uint32_t* counts) {
    StackT* const stacks = word_stacks(w);
    std::uint64_t idle_w = idle_.words()[w];
    std::uint64_t was_busy = busy_.words()[w];
    std::uint64_t busy_w = was_busy;
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(m));
      const std::uint64_t bit = std::uint64_t{1} << b;
      StackT& st = stacks[b];
      if ((goal_bits & bit) == 0) {
        std::uint32_t n = *counts++;
#ifdef SIMDTS_SANITIZE
        // Mutation: commit one child more than a row holds.
        if (san::mutation().overcommit_row) n = 5;
#endif
        st.commit(n);
      }
      busy_w = st.splittable() ? busy_w | bit : busy_w & ~bit;
      if (st.empty()) {
        idle_w |= bit;
        if constexpr (requires { st.release_if_drained(); }) {
          st.release_if_drained();
        }
      }
    }
#ifdef SIMDTS_SANITIZE
    // Mutation: lose the word's splittable delta, desynchronizing the
    // census from the stacks.
    if (san::mutation().drop_census_delta) was_busy = busy_w;
#endif
    write_word(w, idle_w, busy_w, active, was_busy);
  }

  /// Runs `mutate(stack)` on lane i's stack and moves the lane's flags and
  /// the census to the stack's new state: the serial path of every work
  /// transfer, recovery donation, kill and revive.  `mutate` changes lane
  /// i's stack only (kill and revive also flip its dead bit).
  template <typename Mutate>
  void reclassify(std::size_t i, Mutate&& mutate) {
    const std::size_t w = i / kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (i % kWordBits);
    const std::uint64_t was_active = active_lanes(w);
    const std::uint64_t was_busy = busy_.words()[w];
    StackT& s = stacks_[i];
    mutate(s);
    std::uint64_t idle_w = idle_.words()[w] & ~bit;
    if (s.empty()) idle_w |= bit & ~dead_.words()[w];
    const std::uint64_t busy_w =
        s.splittable() ? was_busy | bit : was_busy & ~bit;
    write_word(w, idle_w, busy_w, was_active, was_busy);
  }

  /// Kills lane i: its stack's nodes move to `orphans` in bottom-first
  /// order, and the lane leaves the census, both flag planes and alive().
  template <typename Node>
  void kill(std::size_t i, std::vector<Node>& orphans) {
    reclassify(i, [&](StackT& s) {
      s.drain_into(orphans);
      dead_.set(i);
    });
    --alive_;
  }

  /// Revives dead lane i as an idle lane with an empty stack.
  void revive(std::size_t i) {
    reclassify(i, [&](StackT&) { dead_.reset(i); });
    ++alive_;
  }

  /// Every lane alive again, every stack empty, every lane idle.
  void revive_all() {
    dead_.fill(false);
    alive_ = static_cast<std::uint32_t>(size());
    clear();
  }

  /// The iteration start: every stack empty, then `root` on the first
  /// surviving lane (there must be one).
  template <typename Node>
  void reset(const Node& root) {
    clear();
    std::size_t first = 0;
    while (dead_.test(first)) ++first;
    reclassify(first, [&](StackT& s) { s.push(root); });
  }

  /// Total heap bytes held by the stacks.
  [[nodiscard]] std::size_t memory_bytes() const {
    std::size_t total = 0;
    for (const StackT& s : stacks_) total += s.memory_bytes();
    return total;
  }

#ifdef SIMDTS_SANITIZE
  /// SimdSan's end-of-cycle sweep: the packed planes keep their zero tails,
  /// and the census agrees with both a reference recount of the stacks and
  /// the flag-plane popcounts (the packed-vs-reference divergence check);
  /// every summary bit agrees with a recomputation from its plane.  The
  /// corrupt-tail mutation first sets the idle plane's first invalid bit.
  void san_end_cycle() {
    const std::size_t last = word_count() - 1;
    const std::uint64_t valid = idle_.word_mask(last);
    if (san::mutation().corrupt_tail && valid != ~std::uint64_t{0}) {
      idle_.words()[last] |= ~valid & (valid + 1);
    }
    if (!san::armed()) return;
    busy_.san_verify_tail("busy plane");
    idle_.san_verify_tail("idle plane");
    dead_.san_verify_tail("dead plane");
    std::uint64_t ref_nonempty = 0;
    std::uint64_t ref_splittable = 0;
    for (std::size_t i = 0; i < size(); ++i) {
      if (dead_.test(i) || stacks_[i].empty()) continue;
      ++ref_nonempty;
      if (stacks_[i].splittable()) ++ref_splittable;
    }
    san::check_census(nonempty_, ref_nonempty, "census.nonempty");
    san::check_census(splittable_, ref_splittable, "census.splittable");
    san::check_census(busy_.count(), ref_splittable, "busy-plane popcount");
    san::check_census(idle_.count(), alive_ - ref_nonempty,
                      "idle-plane popcount");
    busy_summary_.san_verify(busy_, "busy summary");
    idle_summary_.san_verify(idle_, "idle summary");
    for (std::size_t w = 0; w < word_count(); ++w) {
      san::check_census(work_summary_.test(w) ? 1 : 0,
                        active_lanes(w) != 0 ? 1 : 0, "work summary");
    }
  }
#endif

 private:
  /// The one word write-back: stores word w of the idle and busy planes,
  /// refreshes the word's bit in all three summaries, and moves the census
  /// by the word's change from `was_active` / `was_busy` (its active and
  /// busy lanes before the change).
  void write_word(std::size_t w, std::uint64_t idle_w, std::uint64_t busy_w,
                  std::uint64_t was_active, std::uint64_t was_busy) noexcept {
    idle_.words()[w] = idle_w;
    busy_.words()[w] = busy_w;
    const std::uint64_t now_active = active_lanes(w);
    busy_summary_.update_word(w, busy_w);
    idle_summary_.update_word(w, idle_w);
    work_summary_.update_word(w, now_active);
    nonempty_ += static_cast<std::uint32_t>(std::popcount(now_active));
    nonempty_ -= static_cast<std::uint32_t>(std::popcount(was_active));
    splittable_ += static_cast<std::uint32_t>(std::popcount(busy_w));
    splittable_ -= static_cast<std::uint32_t>(std::popcount(was_busy));
  }

  /// Every stack empty: each surviving lane idle, the census zero.
  void clear() {
    for (StackT& s : stacks_) s.clear();
    nonempty_ = splittable_ = 0;
    for (std::size_t w = 0; w < word_count(); ++w) {
      write_word(w, ~dead_.words()[w] & idle_.word_mask(w), 0, 0, 0);
    }
  }

  std::vector<StackT> stacks_;  ///< one per lane, never resized
  simd::BitPlane busy_;         ///< splittable
  simd::BitPlane idle_;         ///< empty *and alive*
  fault::DeadLanePlane dead_;   ///< killed lanes (degraded mode)
  simd::SummaryPlane busy_summary_;  ///< one bit per busy-plane word
  simd::SummaryPlane idle_summary_;  ///< one bit per idle-plane word
  simd::SummaryPlane work_summary_;  ///< bit w: word w has an active lane
  std::uint32_t alive_;              ///< surviving lane count
  std::uint32_t nonempty_ = 0;       ///< active lanes
  std::uint32_t splittable_ = 0;     ///< busy lanes
};

}  // namespace simdts::lb
