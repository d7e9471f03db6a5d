// Packed per-PE flag planes: one bit per lane, one std::uint64_t word per 64
// lanes.
//
// Every quantity the paper reports is a function of per-cycle flag planes —
// busy / idle / dead bits scanned and sum-scanned across all P PEs — and on
// the CM-2 those planes *were* bit planes in the machine's memory, operated
// on 64 lanes at a time by the sequencer.  Storing them as byte vectors made
// the emulator pay O(P) byte operations per cycle where the machine (and a
// modern host CPU) does O(P/64) word operations.  This module is the packed
// substrate: census via std::popcount word reduction, and the word access
// that the std::countr_zero set-lane enumerations (simd/rendezvous.hpp, the
// engine's word walk) and the hot loop's word-granularity dead/idle masks
// are built on.
//
// Invariant: bits at positions >= size() (the tail of the last word) are
// always zero, so word-level reductions never need a trailing mask.  All
// single-bit operations require i < size(); they are noexcept and unchecked,
// like element access on the byte planes they replace — except under
// SIMDTS_SANITIZE, where SimdSan bounds-checks the lane index and the
// engine's per-cycle sweep verifies the zero-tail invariant.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "sanitizer/sanitizer.hpp"

namespace simdts::simd {

class BitPlane {
 public:
  static constexpr std::size_t kWordBits = 64;

  BitPlane() = default;
  explicit BitPlane(std::size_t lanes, bool value = false) {
    assign(lanes, value);
  }

  /// Resizes to `lanes` lanes, every bit set to `value` (tail bits zero).
  void assign(std::size_t lanes, bool value) {
    lanes_ = lanes;
    words_.assign(word_count_for(lanes), value ? ~std::uint64_t{0} : 0);
    mask_tail();
  }

  /// Sets every bit to `value` without changing the size.
  void fill(bool value) noexcept {
    for (auto& w : words_) w = value ? ~std::uint64_t{0} : 0;
    mask_tail();
  }

  [[nodiscard]] std::size_t size() const noexcept { return lanes_; }
  [[nodiscard]] bool empty() const noexcept { return lanes_ == 0; }

  [[nodiscard]] bool test(std::size_t i) const SIMDTS_SAN_NOEXCEPT {
    SIMDTS_SAN_LANE_CHECK(i, lanes_, "BitPlane::test");
    return (words_[i / kWordBits] >> (i % kWordBits)) & 1u;
  }
  void set(std::size_t i) SIMDTS_SAN_NOEXCEPT {
    SIMDTS_SAN_LANE_CHECK(i, lanes_, "BitPlane::set");
    words_[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
  }
  void reset(std::size_t i) SIMDTS_SAN_NOEXCEPT {
    SIMDTS_SAN_LANE_CHECK(i, lanes_, "BitPlane::reset");
    words_[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
  }
  void set(std::size_t i, bool value) SIMDTS_SAN_NOEXCEPT {
    value ? set(i) : reset(i);
  }

#ifdef SIMDTS_SANITIZE
  /// Sanitize-only: re-checks the zero-tail invariant, naming this plane in
  /// the diagnostic.  The engine sweeps its flag planes through this once per
  /// expansion cycle.
  void san_verify_tail(const char* plane_name) const {
    san::verify_tail_zero(words_.data(), words_.size(), lanes_, plane_name);
  }
#endif

  /// The packed words, low lane in bit 0 of word 0.  Writers must preserve
  /// the zero-tail invariant (tail_mask() gives the last word's valid bits).
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept {
    return words_;
  }
  [[nodiscard]] std::span<std::uint64_t> words() noexcept { return words_; }
  [[nodiscard]] std::size_t word_count() const noexcept {
    return words_.size();
  }

  /// Valid-bit mask for word `w` (all ones except the tail of the last word).
  [[nodiscard]] std::uint64_t word_mask(std::size_t w) const noexcept {
    const std::size_t base = w * kWordBits;
    const std::size_t n = lanes_ - base;
    return n >= kWordBits ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << n) - 1;
  }

  /// Census: number of set lanes, by word-level popcount reduction (the
  /// CM-2 global-count over a bit plane).
  [[nodiscard]] std::uint32_t count() const noexcept {
    std::uint32_t n = 0;
    for (const std::uint64_t w : words_) {
      n += static_cast<std::uint32_t>(std::popcount(w));
    }
    return n;
  }

  [[nodiscard]] bool none() const noexcept {
    for (const std::uint64_t w : words_) {
      if (w != 0) return false;
    }
    return true;
  }
  [[nodiscard]] bool any() const noexcept { return !none(); }

  friend bool operator==(const BitPlane&, const BitPlane&) = default;

  [[nodiscard]] static std::size_t word_count_for(std::size_t lanes) noexcept {
    return (lanes + kWordBits - 1) / kWordBits;
  }

 private:
  void mask_tail() noexcept {
    if (!words_.empty()) {
      words_.back() &= word_mask(words_.size() - 1);
    }
  }

  std::vector<std::uint64_t> words_;
  std::size_t lanes_ = 0;
};

}  // namespace simdts::simd
