// Content-addressed result cache over a crash-tolerant journal.
//
// The cache maps canonical_key(request) to the encoded solve result, backed
// by a runtime::Journal (journal.hpp: one record per line, committed by its
// trailing `ok` marker, opened on the first append, flushed per line, torn
// lines skipped on replay).  Each insert appends the record
// `<key> <checksum> <payload>`, key and checksum in lowercase hex with no
// prefix.  A process killed mid-append leaves a torn final line; the
// constructor's replay skips it and the entry is simply absent — a clean
// miss, never a garbled hit.  A key or checksum token that is not whole hex
// fitting 64 bits (no sign, `0x` or whitespace) skips its line too.
//
// Because every line is flushed before insert() or corrupt_payload_byte()
// returns, a second cache opened on the same path while this one is alive
// replays every line written so far.  A journal that cannot be opened or
// written throws simdts::InvariantError on each append that fails; no file
// exists until the first insert.
//
// Verified-on-read: the journaled checksum covers (key, payload), and
// lookup() recomputes it before serving.  A mismatch — bit rot, a torn
// rewrite, a flipped key routing a foreign payload — erases the entry,
// counts a corruption, and reports a simdts::CacheCorruptionError diagnostic
// through the out-parameter; the caller re-solves.  The invariant the fuzz
// tests pin: for any byte-level damage to the journal, every lookup returns
// either the exact inserted payload or a miss.  Wrong answers are not an
// outcome.
//
// Duplicate keys keep the last journaled entry (last-wins on replay), which
// is what makes corrupt_payload_byte() — the scripted kCacheCorrupt fault —
// durable through an append-only file: it re-appends the damaged payload
// under the original checksum instead of rewriting history.
#pragma once

#include <cstdint>
#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "runtime/journal.hpp"

namespace simdts::service {

class ResultCache {
 public:
  /// Replays the journal at `path` if it exists; the file itself is created
  /// by the first insert.  Torn or malformed lines are skipped, not errors.
  explicit ResultCache(std::filesystem::path path);

  /// Verified read.  Returns the payload only if its stored checksum
  /// matches; on mismatch the entry is erased, the corruption counted, and
  /// `diagnostic` (if non-null) receives the CacheCorruptionError text.  A
  /// plain miss leaves `diagnostic` untouched.
  [[nodiscard]] std::optional<std::string> lookup(
      std::uint64_t key, std::string* diagnostic = nullptr);

  /// Appends and flushes `<key> <checksum> <payload> ok`, then updates the
  /// in-memory map.  The payload must be newline-free, and the journal
  /// writable (simdts::InvariantError otherwise; the map is left unchanged).
  void insert(std::uint64_t key, const std::string& payload);

  /// Scripted fault (fault::ServiceFaultKind::kCacheCorrupt): XOR-flips the
  /// low bit of payload byte `byte_offset % size` both in memory and — via an
  /// appended last-wins journal line carrying the *original* checksum — on
  /// disk.  Returns false when the key is absent or its payload empty.
  bool corrupt_payload_byte(std::uint64_t key, std::uint32_t byte_offset);

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return journal_.path();
  }
  /// Corrupt entries detected (and erased) by verified reads so far.
  [[nodiscard]] std::uint64_t corruptions_detected() const noexcept {
    return corruptions_detected_;
  }

  /// The checksum the journal stores: FNV-1a over the payload bytes, seeded
  /// by the key so an entry cannot vouch for a payload filed under a
  /// different key.
  [[nodiscard]] static std::uint64_t entry_checksum(std::uint64_t key,
                                                    std::string_view payload);

 private:
  struct Entry {
    std::uint64_t checksum = 0;
    std::string payload;
  };

  void append_line(std::uint64_t key, std::uint64_t checksum,
                   const std::string& payload);

  runtime::Journal journal_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::uint64_t corruptions_detected_ = 0;
};

}  // namespace simdts::service
