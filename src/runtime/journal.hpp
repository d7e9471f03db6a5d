// Append-only, crash-tolerant journal of single-line records.
//
// Two things in the repo must survive a host-side death (an OOM kill, a CI
// timeout, a Ctrl-C) mid-write: a long table sweep's finished slots, so the
// sweep resumes instead of restarting (runtime::run_resumable in sweep.hpp),
// and the solve service's result cache (service::ResultCache).  Both keep
// their state as one Journal: a text file holding one record per line,
//
//     <record> ok
//
// Crash tolerance is by construction.  A line counts only once its trailing
// `ok` marker is on disk, so a torn final line (the process died
// mid-append) is skipped on replay and its record is simply absent.  The
// record's own format — `<slot> <payload>` for sweeps,
// `<key> <checksum> <payload>` for the cache — belongs to the caller.
//
// The file is opened for appending by the first append and held open; no
// file exists before it, and no directory is created.  Every line is
// written whole and flushed before append() returns, so a second Journal
// opened on the same path while this one is alive replays every line
// written so far.  Appends are serialized by a mutex, so sweep workers may
// append concurrently.
#pragma once

#include <filesystem>
#include <fstream>
#include <functional>
#include <mutex>
#include <string_view>

namespace simdts::runtime {

class Journal {
 public:
  explicit Journal(std::filesystem::path path);

  [[nodiscard]] const std::filesystem::path& path() const noexcept {
    return path_;
  }

  /// Calls fn(record) for every committed line, in file order; the view is
  /// valid only during the call.  The file is read in one go.  Lines not
  /// ending in the ` ok` marker are skipped; a final line without a newline
  /// still counts.  A missing file replays nothing.
  void replay(const std::function<void(std::string_view)>& fn) const;

  /// Appends `<record> ok` and flushes.  Thread-safe.  Throws
  /// simdts::InvariantError if the record contains a newline, or if the
  /// file cannot be opened or written; a failed write closes the stream,
  /// so the next append reopens and tries again.
  void append(std::string_view record);

  /// Closes the file and deletes it (once whatever was derived from it is
  /// safely written).  A missing file is not an error.
  void remove();

 private:
  std::filesystem::path path_;
  std::mutex mu_;
  std::ofstream out_;  ///< opened by the first append()
};

}  // namespace simdts::runtime
