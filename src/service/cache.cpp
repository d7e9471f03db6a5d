#include "service/cache.hpp"

#include <charconv>

#include "common/error.hpp"

namespace simdts::service {

namespace {

constexpr std::size_t kMaxHexDigits = 16;  // a uint64_t in base 16

/// Parses a whole lowercase-or-uppercase hex token: no sign, no `0x`, no
/// whitespace, no overflow.  False unless every character was consumed.
bool parse_hex(std::string_view token, std::uint64_t& out) {
  const char* const end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, out, 16);
  return ec == std::errc{} && ptr == end;
}

/// Writes `v` as lowercase hex without a prefix; returns one past the end.
char* put_hex(char* out, std::uint64_t v) {
  return std::to_chars(out, out + kMaxHexDigits, v, 16).ptr;
}

std::string to_hex(std::uint64_t v) {
  char buf[kMaxHexDigits];
  return {buf, put_hex(buf, v)};
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

ResultCache::ResultCache(std::filesystem::path path) : path_(std::move(path)) {
  std::ifstream in(path_);
  if (!in) return;  // first use: the journal appears on the first insert
  std::string data;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    data.append(chunk, static_cast<std::size_t>(in.gcount()));
  }

  constexpr std::string_view kCommit = " ok";
  std::string_view rest = data;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    // A committed line ends in " ok"; anything else is torn — skip it.
    if (!line.ends_with(kCommit)) continue;
    line.remove_suffix(kCommit.size());
    const std::size_t s1 = line.find(' ');
    if (s1 == std::string_view::npos) continue;
    const std::size_t s2 = line.find(' ', s1 + 1);
    if (s2 == std::string_view::npos) continue;
    std::uint64_t key = 0;
    std::uint64_t checksum = 0;
    if (!parse_hex(line.substr(0, s1), key) ||
        !parse_hex(line.substr(s1 + 1, s2 - s1 - 1), checksum)) {
      continue;
    }
    // Last-wins: a re-appended entry (or a scripted corruption) supersedes
    // the earlier line.  Verification is deferred to lookup().
    entries_[key] = Entry{checksum, std::string(line.substr(s2 + 1))};
  }
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
  if (payload.find('\n') != std::string::npos) {
    throw InvariantError("result-cache payloads must be single-line",
                         "key=" + to_hex(key));
  }
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
  if (!journal_.is_open()) {
    journal_.open(path_, std::ios::app);  // clears the state on success
    if (!journal_) {
      throw InvariantError("result-cache journal is not writable",
                           path_.string());
    }
  }
  char head[2 * kMaxHexDigits + 2];
  char* p = put_hex(head, key);
  *p++ = ' ';
  p = put_hex(p, checksum);
  *p++ = ' ';
  journal_.write(head, p - head);
  journal_.write(payload.data(), static_cast<std::streamsize>(payload.size()));
  journal_.write(" ok\n", 4);
  // Flushed per line: a second cache opened on this path sees the entry now.
  journal_.flush();
  if (!journal_) {
    journal_.close();  // the next append reopens and tries again
    throw InvariantError("result-cache journal append failed",
                         path_.string());
  }
}

}  // namespace simdts::service
