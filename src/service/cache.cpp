#include "service/cache.hpp"

#include <charconv>

#include "common/error.hpp"
#include "common/parse.hpp"

namespace simdts::service {

namespace {

constexpr std::size_t kMaxHexDigits = 16;  // a uint64_t in base 16

/// Writes `v` as lowercase hex without a prefix; returns one past the end.
char* put_hex(char* out, std::uint64_t v) {
  return std::to_chars(out, out + kMaxHexDigits, v, 16).ptr;
}

}  // namespace

std::uint64_t ResultCache::entry_checksum(std::uint64_t key,
                                          std::string_view payload) {
  // FNV-1a 64, with the key folded into the offset basis so a payload can
  // only verify under the key it was inserted with.
  std::uint64_t h = 0xcbf29ce484222325ULL ^ key;
  for (const char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

ResultCache::ResultCache(std::filesystem::path path)
    : journal_(std::move(path)) {
  journal_.replay([this](std::string_view record) {
    const std::size_t s1 = record.find(' ');
    if (s1 == std::string_view::npos) return;
    const std::size_t s2 = record.find(' ', s1 + 1);
    if (s2 == std::string_view::npos) return;
    std::uint64_t key = 0;
    std::uint64_t checksum = 0;
    if (!parse_whole(record.substr(0, s1), key, 16) ||
        !parse_whole(record.substr(s1 + 1, s2 - s1 - 1), checksum, 16)) {
      return;
    }
    // Last-wins: a re-appended entry (or a scripted corruption) supersedes
    // the earlier line.  Verification is deferred to lookup().
    entries_[key] = Entry{checksum, std::string(record.substr(s2 + 1))};
  });
}

std::optional<std::string> ResultCache::lookup(std::uint64_t key,
                                               std::string* diagnostic) {
  const auto it = entries_.find(key);
  if (it == entries_.end()) return std::nullopt;
  if (entry_checksum(key, it->second.payload) != it->second.checksum) {
    ++corruptions_detected_;
    if (diagnostic != nullptr) {
      *diagnostic =
          CacheCorruptionError(key, "checksum mismatch on lookup").what();
    }
    entries_.erase(it);
    return std::nullopt;
  }
  return it->second.payload;
}

void ResultCache::insert(std::uint64_t key, const std::string& payload) {
  const std::uint64_t checksum = entry_checksum(key, payload);
  append_line(key, checksum, payload);
  entries_[key] = Entry{checksum, payload};
}

bool ResultCache::corrupt_payload_byte(std::uint64_t key,
                                       std::uint32_t byte_offset) {
  const auto it = entries_.find(key);
  if (it == entries_.end() || it->second.payload.empty()) return false;
  std::string damaged = it->second.payload;
  // XOR with 1 keeps the byte printable (payloads are digits and spaces), so
  // the journal line itself stays well-formed — the damage is semantic, for
  // the checksum to catch, not a torn line for the loader to skip.
  damaged[byte_offset % damaged.size()] ^= 0x01;
  append_line(key, it->second.checksum, damaged);
  it->second.payload = std::move(damaged);
  return true;
}

void ResultCache::append_line(std::uint64_t key, std::uint64_t checksum,
                              const std::string& payload) {
  char head[2 * kMaxHexDigits + 2];
  char* p = put_hex(head, key);
  *p++ = ' ';
  p = put_hex(p, checksum);
  *p++ = ' ';
  std::string record;
  record.reserve(static_cast<std::size_t>(p - head) + payload.size());
  record.append(head, p);
  record += payload;
  journal_.append(record);
}

}  // namespace simdts::service
