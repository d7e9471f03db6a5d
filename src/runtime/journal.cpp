#include "runtime/journal.hpp"

#include <string>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace simdts::runtime {

namespace {

constexpr std::string_view kCommit = " ok";

}  // namespace

Journal::Journal(std::filesystem::path path) : path_(std::move(path)) {}

void Journal::replay(const std::function<void(std::string_view)>& fn) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return;
  std::string data;
  char chunk[1 << 14];
  while (in.read(chunk, sizeof chunk), in.gcount() > 0) {
    data.append(chunk, static_cast<std::size_t>(in.gcount()));
  }
  std::string_view rest = data;
  while (!rest.empty()) {
    const std::size_t nl = rest.find('\n');
    std::string_view line = rest.substr(0, nl);
    rest.remove_prefix(nl == std::string_view::npos ? rest.size() : nl + 1);
    if (!line.ends_with(kCommit)) continue;  // torn: the record is absent
    line.remove_suffix(kCommit.size());
    fn(line);
  }
}

void Journal::append(std::string_view record) {
  if (record.find('\n') != std::string_view::npos) {
    throw InvariantError("journal records must be single-line",
                         path_.string());
  }
  const std::lock_guard lock(mu_);
  if (!out_.is_open()) {
    // A torn tail (its writer died mid-line) must not swallow this record:
    // end it first, so it stays uncommitted and this line starts whole.
    std::ifstream tail(path_, std::ios::binary | std::ios::ate);
    const bool torn = tail && tail.tellg() > 0 &&
                      tail.seekg(-1, std::ios::end) && tail.get() != '\n';
    out_.open(path_, std::ios::app);  // clears the state on success
    if (!out_) {
      throw InvariantError("journal is not writable", path_.string());
    }
    if (torn) out_.put('\n');
  }
  out_.write(record.data(), static_cast<std::streamsize>(record.size()));
  out_.write(kCommit.data(), kCommit.size());
  out_.put('\n');
  out_.flush();
  if (!out_) {
    out_.close();  // the next append reopens and tries again
    throw InvariantError("journal append failed", path_.string());
  }
}

void Journal::remove() {
  const std::lock_guard lock(mu_);
  out_.close();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
}

}  // namespace simdts::runtime
