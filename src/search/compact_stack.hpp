// Memory-bounded per-PE work stack: deltas instead of full node copies.
//
// A WorkStack<Node> holds a full Node per entry (16 bytes in both shipped
// domains), which at P = 2^20 lanes times stack depth dominates host memory.
// Following the space-efficient stack-splitting literature (Pietracaprina et
// al.), a CompactStack exploits that in depth-first order almost every entry
// is a child of a node the stack has already materialized: it stores a full
// *base* node per contiguously-grown run (a "segment") and, per entry, only
// a 2-byte record — the entry's segment-relative level plus the one-byte
// delta of the problem's codec (search::DeltaTreeProblem: a move index /
// child ordinal).
// Entries are materialized on pop by decoding the delta against the entry's
// parent, which is reconstructed from the segment's *delta path* (the chain
// of deltas from the base to the most recently popped node).
//
// Segment invariants (each proven by the DFS discipline):
//  - Entry levels are non-decreasing from bottom to top of a segment: pops
//    come off the top (the maximum level) and children land one level deeper.
//  - For every live entry at level L, the first L-1 deltas of the segment's
//    path are exactly its ancestor chain: siblings share the parent the path
//    currently materializes, and backtracking truncates the path only past
//    the levels that still have live entries.
//  - At most one level-0 entry per segment (the base itself, created by
//    push()); when present it is the segment's bottom entry.  Segments
//    created by the depth-bound split below have no level-0 entry: their
//    base is the already-popped parent of the entries above it.
//  - Levels are segment-relative and never exceed kMaxLevel (255): when a
//    descent would push an entry past that depth, commit() freezes the
//    segment and starts a new one whose base is the cached parent
//    materialization.  One full Node per 255 levels of depth keeps the
//    per-entry record at 2 bytes for arbitrarily deep trees.
//
// Backtracking cost: with an UndoDeltaProblem (15-puzzle) the cached top
// node is walked down the path one O(1) undo per level; without one
// (hash-generated synthetic trees) the path is replayed from the base.
// Either way the hot descend case — pop the child just committed — is one
// decode.
//
// Children arrive the way they do on a WorkStack: the expand cycle pops a
// node, has its children written into top_row() — here a staging row of
// four in the heap representation — and commit()s how many there are,
// which encodes them against the popped parent.  New segments are created
// only by push() (work received in serial phases: donations, fault
// recovery) and by the depth-bound split, so a lane that never receives
// work and stays under 255 levels holds exactly one segment.  The whole
// representation, staging row included, lives behind one pointer, so an
// idle lane costs 24 bytes — smaller than an empty WorkStack — and clear()
// is a pooled release that returns the lane's memory to the allocator.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sanitizer/sanitizer.hpp"
#include "search/problem.hpp"

namespace simdts::search {

template <DeltaTreeProblem Pr>
class CompactStack {
 public:
  using Node = typename Pr::Node;
  /// The fixed child row the expansion cycle writes into (top_row).
  using Row = std::array<Node, 4>;

  CompactStack() = default;
  CompactStack(CompactStack&&) noexcept = default;
  CompactStack& operator=(CompactStack&&) noexcept = default;

  /// Binds the problem whose codec materializes entries.  Must be called
  /// before the first push (the engine binds every lane at construction).
  void bind(const Pr& problem) noexcept { problem_ = &problem; }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the stack can be split into two non-empty parts — the paper's
  /// definition of a busy processor.
  [[nodiscard]] bool splittable() const noexcept { return size_ >= 2; }

  /// Pushes a self-contained node: a new segment whose base is `n`.  Serial
  /// contexts only (donations, recovery, the root); the expand cycle grows
  /// stacks exclusively through top_row()/commit().
  void push(Node n) {
    if (rep_ == nullptr) rep_ = std::make_unique<Rep>();
    Rep& r = *rep_;
    r.segs.emplace_back();
    Segment& s = r.segs.back();
    s.base = std::move(n);
    push_record(s, 0, 0);
    r.cur = s.base;
    r.cur_valid = true;
    ++size_;
  }

  /// The row of four the caller writes children of the node the preceding
  /// pop() returned into, before commit()ing how many it wrote — the same
  /// contract as WorkStack::top_row, but the row is a staging row in the
  /// heap representation, read back by commit().  Valid only after a pop().
  Row& top_row() {
    Rep& r = *rep_;
#ifdef SIMDTS_SANITIZE
    r.row_reserved = true;
#endif
    return r.row;
  }

  /// Pushes row[0..n) of the last top_row() (n <= 4), in order, encoded as
  /// children of the node the preceding pop() returned: row[n-1] ends on
  /// top, exactly as WorkStack.  Several commits may follow one pop (a node
  /// with more than four child slots); each encodes against the same
  /// parent.
  void commit(std::size_t n) {
#ifdef SIMDTS_SANITIZE
    san::check_row_commit(n, rep_ != nullptr && rep_->row_reserved,
                          "CompactStack::commit");
    if (rep_ != nullptr) rep_->row_reserved = false;
#endif
    if (n == 0) return;
    Rep& r = *rep_;
    if (r.segs.back().path.size() >= kMaxLevel) {
      // Depth-bound split: the next level would not fit the one-byte record,
      // so freeze this segment and continue the descent in a new one rooted
      // at the parent (r.cur is valid here: a commit only follows a pop).
      // The parent is already popped, so the new base is not a live entry;
      // a later commit for the same parent finds the new segment's empty
      // path and stays in it.  One segment per 255 levels of depth.
      r.segs.emplace_back();
      r.segs.back().base = r.cur;
    }
    Segment& s = r.segs.back();
    const auto level = static_cast<std::uint8_t>(s.path.size() + 1);
    for (std::size_t i = 0; i < n; ++i) {
      push_record(s, level, problem_->encode_delta(r.cur, r.row[i]));
    }
    size_ += n;
  }

  /// Pops the deepest entry (LIFO — depth-first order), materializing it
  /// from its parent via the delta path.
  Node pop() {
#ifdef SIMDTS_SANITIZE
    san::check_stack_read(size_, 1, "CompactStack::pop");
#endif
    Rep& r = *rep_;
    // Segments drained by earlier pops (their last entry popped and no
    // children committed) are discarded lazily here.
    while (r.segs.back().entries.size() == r.segs.back().entry_head) {
      r.segs.pop_back();
      r.cur_valid = false;
    }
    Segment& s = r.segs.back();
    std::uint8_t level = 0;
    std::uint8_t delta = 0;
    read_record(s, s.entries.size() - kRecordBytes, level, delta);
    s.entries.resize(s.entries.size() - kRecordBytes);
    --size_;
    if (level == 0) {
      s.path.clear();
      r.cur = s.base;
      r.cur_valid = true;
      return s.base;
    }
    backtrack_to(r, s, static_cast<std::size_t>(level) - 1);
    Node n = problem_->decode_delta(r.cur, delta);
    // SIMDLINT-EFFECT-OK(allocates) path growth is bounded by tree depth and
    s.path.push_back(delta);  // amortizes away after the first full descent.
    r.cur = n;
    return n;
  }

  /// Removes and returns the shallowest entry (bottom of the bottom
  /// segment) — the donation path of the bottom-node splitter.  Replays the
  /// segment's path prefix read-only, so the cached top-of-stack
  /// materialization is untouched.
  Node take_bottom() {
#ifdef SIMDTS_SANITIZE
    san::check_stack_read(size_, 1, "CompactStack::take_bottom");
#endif
    Rep& r = *rep_;
    while (r.segs.front().entries.size() == r.segs.front().entry_head) {
      r.segs.erase(r.segs.begin());
    }
    Segment& s = r.segs.front();
    std::uint8_t level = 0;
    std::uint8_t delta = 0;
    read_record(s, s.entry_head, level, delta);
    s.entry_head += kRecordBytes;
    --size_;
    Node n = materialize(s, level, delta);
    if (s.entries.size() == s.entry_head) {
      if (size_ == 0) {
        rep_.reset();
      } else if (r.segs.size() > 1) {
        r.segs.erase(r.segs.begin());
      }
    }
    return n;
  }

  /// Destroys every entry and returns the lane's memory to the allocator
  /// (the pooled-release path: an idle lane holds only the 24-byte header).
  void clear() noexcept {
    rep_.reset();
    size_ = 0;
  }

  /// The expand cycle's pooled-release hook: called the moment a lane goes
  /// idle, so a drained lane costs only the 24-byte header until work
  /// arrives again.  (WorkStack deliberately has no such hook — its buffer
  /// retains capacity for the run; that retained-versus-live gap is the
  /// `bytes_per_lane` comparison of the mega-P benchmarks.)
  void release_if_drained() noexcept {
    if (size_ == 0) rep_.reset();
  }

  /// Moves every node into `out` in bottom-to-top order, leaving the stack
  /// empty — the fault-recovery journaling path (see WorkStack::drain_into).
  void drain_into(std::vector<Node>& out) {
    out.reserve(out.size() + size_);
    if (rep_ == nullptr) return;
    std::vector<Node> chain;
    for (Segment& s : rep_->segs) {
      // chain[i] = the node at path depth i; every live entry's parent is a
      // chain element by the path-prefix invariant.
      chain.clear();
      chain.push_back(s.base);
      for (const std::uint8_t d : s.path) {
        chain.push_back(problem_->decode_delta(chain.back(), d));
      }
      for (std::size_t off = s.entry_head; off < s.entries.size();
           off += kRecordBytes) {
        std::uint8_t level = 0;
        std::uint8_t delta = 0;
        read_record(s, off, level, delta);
        out.push_back(level == 0
                          ? s.base
                          : problem_->decode_delta(chain[level - 1], delta));
      }
    }
    clear();
  }

  /// Heap bytes of the representation (the bytes-per-lane metric of the
  /// mega-P benchmarks; the 24-byte header is excluded from both this and
  /// WorkStack::memory_bytes for a like-for-like comparison).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    if (rep_ == nullptr) return 0;
    std::size_t bytes =
        sizeof(Rep) + rep_->segs.capacity() * sizeof(Segment);
    for (const Segment& s : rep_->segs) {
      bytes += s.entries.capacity() + s.path.capacity();
    }
    return bytes;
  }

 private:
  static constexpr std::size_t kRecordBytes = 2;
  /// Deepest segment-relative level a record can hold; commit() starts a
  /// fresh segment past this depth.
  static constexpr std::size_t kMaxLevel = 255;

  struct Segment {
    Node base{};                       ///< full node; level-0 entry when live
    std::size_t entry_head = 0;        ///< consumed record bytes at the front
    std::vector<std::uint8_t> entries; ///< 2-byte records {level8, delta8}
    std::vector<std::uint8_t> path;    ///< deltas base -> last popped node
  };

  struct Rep {
    std::vector<Segment> segs;  ///< bottom segment first
    Row row{};        ///< top_row(): children staged for commit()
    Node cur{};       ///< node at the top segment's full path depth
    bool cur_valid = false;
#ifdef SIMDTS_SANITIZE
    bool row_reserved = false;  ///< a top_row() awaits its commit()
#endif
  };

  static void push_record(Segment& s, std::uint8_t level, std::uint8_t delta) {
    // Record storage doubles like WorkStack's buffer: steady state stays in
    // retained capacity.
    s.entries.push_back(level);
    s.entries.push_back(delta);
  }

  static void read_record(const Segment& s, std::size_t off,
                          std::uint8_t& level, std::uint8_t& delta) {
    level = s.entries[off];
    delta = s.entries[off + 1];
  }

  /// Makes the cached materialization sit at path depth `k` of segment `s`
  /// (truncating the path), by O(1) undos when the problem provides them,
  /// otherwise by replaying the path prefix from the base.
  void backtrack_to(Rep& r, Segment& s, std::size_t k) {
    if (r.cur_valid) {
      if (s.path.size() == k) return;
      if constexpr (UndoDeltaProblem<Pr>) {
        while (s.path.size() > k) {
          const std::size_t d = s.path.size();
          r.cur = d == 1 ? s.base
                         : problem_->undo_delta(r.cur, s.path[d - 1],
                                                s.path[d - 2]);
          s.path.pop_back();
        }
        return;
      }
    }
    s.path.resize(k);
    r.cur = s.base;
    for (const std::uint8_t d : s.path) {
      r.cur = problem_->decode_delta(r.cur, d);
    }
    r.cur_valid = true;
  }

  /// Materializes an entry of segment `s` without touching the cached state:
  /// read-only replay of the path prefix (take_bottom).
  [[nodiscard]] Node materialize(const Segment& s, std::uint8_t level,
                                 std::uint8_t delta) const {
    if (level == 0) return s.base;
    Node m = s.base;
    for (std::size_t i = 0; i + 1 < level; ++i) {
      m = problem_->decode_delta(m, s.path[i]);
    }
    return problem_->decode_delta(m, delta);
  }

  std::unique_ptr<Rep> rep_;
  std::size_t size_ = 0;
  const Pr* problem_ = nullptr;
};

}  // namespace simdts::search
