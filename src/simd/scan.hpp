// Scan (parallel-prefix) primitives.
//
// The CM-2 exposed scans as hardware primitives (Blelloch, "Scans as
// Primitive Parallel Operations"); the paper's matching schemes are built
// entirely out of sum-scans over per-PE flags (Section 3.3).  This module
// provides them as serial host loops (an engine runs on one host thread).
#pragma once

#include <cstddef>
#include <cstdint>
#include <numeric>
#include <span>

#include "simd/bitplane.hpp"

namespace simdts::simd {

/// out[i] = in[0] + ... + in[i].  `out` may alias `in`.
template <typename T>
void inclusive_scan(std::span<const T> in, std::span<T> out) {
  T acc{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    acc = static_cast<T>(acc + in[i]);
    out[i] = acc;
  }
}

/// out[i] = in[0] + ... + in[i-1]; out[0] = 0.  `out` may alias `in`.
template <typename T>
void exclusive_scan(std::span<const T> in, std::span<T> out) {
  T acc{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    const T v = in[i];
    out[i] = acc;
    acc = static_cast<T>(acc + v);
  }
}

/// Sum of all elements.
template <typename T>
[[nodiscard]] T reduce(std::span<const T> in) {
  return std::accumulate(in.begin(), in.end(), T{});
}

/// Enumerates the set positions of `flags`: ranks[i] = number of set flags in
/// flags[0..i-1] for every i with flags[i] != 0 (ranks of unset positions are
/// left untouched).  Returns the total number of set flags.  This is exactly
/// the CM-2 "enumerate" used to line up busy and idle processors.
std::uint32_t enumerate(std::span<const std::uint8_t> flags,
                        std::span<std::uint32_t> ranks);

/// Count of set flags (global-or / population count over the PE array).
std::uint32_t count_set(std::span<const std::uint8_t> flags);

/// Packed-plane enumerate.  Stronger write contract than the byte-plane
/// overload: ranks[i] = number of set lanes in [0, i) is written for EVERY
/// lane i < size(), set or not (an unset lane's value is where it would
/// slot in — a full exclusive sum-scan of the plane).  The return value and
/// the ranks at set lanes agree with the byte overload; the byte overload's
/// "unset positions untouched" guarantee does not carry over.  Branch-free:
/// each 64-lane word is expanded through a byte-wise prefix-popcount table
/// (8 unconditional widening stores per byte), so the cost is independent
/// of occupancy and free of the per-set-bit mispredicts a countr_zero walk
/// pays at engine-typical densities.
std::uint32_t enumerate(const BitPlane& plane, std::span<std::uint32_t> ranks);

/// Packed-plane census (word-level popcount reduction).
[[nodiscard]] inline std::uint32_t count_set(const BitPlane& plane) {
  return plane.count();
}

/// Inclusive running maximum (the CM-2 max-scan).  `out` may alias `in`.
template <typename T>
void max_scan(std::span<const T> in, std::span<T> out) {
  if (in.empty()) return;
  T acc = in[0];
  out[0] = acc;
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i] > acc) acc = in[i];
    out[i] = acc;
  }
}

/// Inclusive running minimum (used for the branch-and-bound incumbent
/// broadcast).  `out` may alias `in`.
template <typename T>
void min_scan(std::span<const T> in, std::span<T> out) {
  if (in.empty()) return;
  T acc = in[0];
  out[0] = acc;
  for (std::size_t i = 1; i < in.size(); ++i) {
    if (in[i] < acc) acc = in[i];
    out[i] = acc;
  }
}

/// Segmented inclusive sum-scan: the accumulator restarts at every position
/// whose segment flag is set (the head of a segment).  Blelloch's segmented
/// scans are how the CM-2 expressed per-group reductions without breaking
/// lock-step.  `out` may alias `in`.
template <typename T>
void segmented_scan(std::span<const T> in,
                    std::span<const std::uint8_t> heads, std::span<T> out) {
  T acc{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (heads[i] != 0) acc = T{};
    acc = static_cast<T>(acc + in[i]);
    out[i] = acc;
  }
}

/// Copy-scan (broadcast): every position receives the value at the most
/// recent set head at or before it; positions before the first head keep
/// their input value.
template <typename T>
void copy_scan(std::span<const T> in, std::span<const std::uint8_t> heads,
               std::span<T> out) {
  bool seen = false;
  T current{};
  for (std::size_t i = 0; i < in.size(); ++i) {
    if (heads[i] != 0) {
      current = in[i];
      seen = true;
    }
    out[i] = seen ? current : in[i];
  }
}

}  // namespace simdts::simd
