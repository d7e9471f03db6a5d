// Strict text parsing for everything the library reads back: journal
// records, their payload fields, and the numeric environment knobs.
//
// Every reader here is std::from_chars over a whole token, so it takes
// exactly what the writers emit and nothing else: no leading space, no `+`,
// no `0x`, no trailing junk, no sign on an unsigned field, and no overflow
// (where istream `>>` skips whitespace and wraps `-1` into an unsigned, and
// strtoull takes `12abc` as 12).  A reader that fails leaves its output
// untouched where the comment says so; callers treat a failure as a torn or
// foreign record, or as an unset knob.
#pragma once

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace simdts {

/// Parses all of `token` as an integer in `base`.  False (and `out` may
/// hold a partial value) unless every character was consumed.
template <std::integral T>
[[nodiscard]] bool parse_whole(std::string_view token, T& out,
                               int base = 10) noexcept {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out, base);
  return ec == std::errc{} && ptr == end;
}

/// `text` as a positive decimal T — digits only, greater than 0 and within
/// T — or `fallback`.  A null `text` (an unset environment variable, as
/// from std::getenv) also gives `fallback`.
template <std::unsigned_integral T>
[[nodiscard]] T positive_or(const char* text, T fallback) noexcept {
  T v{};
  return text != nullptr && parse_whole(text, v) && v > 0 ? v : fallback;
}

/// Reads the single-line records the journal codecs write: decimal fields
/// one space apart, doubles as the decimal of their IEEE-754 bit pattern.
///
///   FieldReader in(payload);
///   if (!in.word("v1") || !in.read(a, b, c) || !in.done()) return false;
class FieldReader {
 public:
  explicit FieldReader(std::string_view text) noexcept
      : p_(text.data()), end_(text.data() + text.size()) {}

  /// Consumes the next field if it is exactly `w`.
  [[nodiscard]] bool word(std::string_view w) noexcept {
    if (!separator() || std::string_view(p_, end_).substr(0, w.size()) != w) {
      return false;
    }
    p_ += w.size();
    return true;
  }

  /// Reads the next fields, in order, into `v...`; false at the first one
  /// missing or malformed.
  template <typename... T>
  [[nodiscard]] bool read(T&... v) noexcept {
    return (field(v) && ...);
  }

  /// True once the whole text has been consumed (no trailing field).
  [[nodiscard]] bool done() const noexcept { return p_ == end_; }

 private:
  bool separator() noexcept {
    if (first_) {
      first_ = false;
      return true;
    }
    if (p_ == end_ || *p_ != ' ') return false;
    ++p_;
    return true;
  }

  template <std::integral T>
  bool field(T& v) noexcept {
    if (!separator()) return false;
    const auto [next, ec] = std::from_chars(p_, end_, v);
    p_ = next;
    return ec == std::errc{};
  }

  bool field(double& v) noexcept {
    std::uint64_t bits = 0;
    if (!field(bits)) return false;
    v = std::bit_cast<double>(bits);
    return true;
  }

  const char* p_;
  const char* end_;
  bool first_ = true;
};

}  // namespace simdts
