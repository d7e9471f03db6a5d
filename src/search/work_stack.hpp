// The per-PE depth-first work stack.
//
// Each processor's share of the search space is a stack of nodes, where each
// node stands for its whole unexplored subtree.  Depth-first order means
// expansion pops from the *top*; the entries towards the *bottom* are the
// shallowest untried alternatives and therefore represent the largest
// subtrees — which is why the paper's splitter donates the node at the bottom
// of the stack.
//
// A processor is "busy" (splittable) when it holds at least two nodes: it can
// split its work into two non-empty parts, one to keep and one to give away
// (Section 2).
//
// Storage is one linear buffer with a moving bottom (power-of-two capacity,
// head index, logical size): the live nodes are slots [head, head + size),
// so push/pop at the top and take_bottom at the bottom are O(1) with no
// per-node allocation and no index mask, and the slots above the top are
// contiguous — the expansion cycle writes a popped node's children straight
// into them (top_row/commit).  When the top reaches the end of the buffer,
// the live nodes slide back to slot 0 if the request fits the capacity, and
// the buffer doubles otherwise; capacity therefore grows exactly when
// size + request exceeds it, whatever the head.  Nodes are trivial types
// (every search node is a plain aggregate), so the slots are plain storage
// that nodes are copied in and out of.
#pragma once

#include <array>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "sanitizer/sanitizer.hpp"

namespace simdts::search {

template <typename Node>
class WorkStack {
  static_assert(std::is_trivial_v<Node>,
                "WorkStack copies nodes as plain storage");

 public:
  WorkStack() = default;

  /// The fixed child row the expansion cycle writes into (top_row).
  using Row = std::array<Node, 4>;

  WorkStack(WorkStack&& o) noexcept
      : slots_(o.slots_), cap_(o.cap_), head_(o.head_), size_(o.size_) {
    o.slots_ = nullptr;
    o.cap_ = o.head_ = o.size_ = 0;
  }

  WorkStack& operator=(WorkStack&& o) noexcept {
    if (this != &o) {
      release();
      slots_ = std::exchange(o.slots_, nullptr);
      cap_ = std::exchange(o.cap_, 0);
      head_ = std::exchange(o.head_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }

  ~WorkStack() { release(); }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// True when the stack can be split into two non-empty parts — the paper's
  /// definition of a busy processor.
  [[nodiscard]] bool splittable() const noexcept { return size_ >= 2; }

  void push(Node n) {
    if (head_ + size_ == cap_) make_room(1);
    slots_[head_ + size_] = n;
    ++size_;
  }

  /// Reserves the four contiguous slots above the top and returns them as
  /// one row, for a caller that writes up to four children in place and
  /// then commit()s how many it wrote: the expansion cycle's word step
  /// (search::RowTreeProblem, vec::expand_group).  Room is
  /// made for four (so the buffer can grow a few pushes earlier than
  /// push() alone would); the row's contents are indeterminate until
  /// written, and the slots past the committed count stay dead storage that
  /// a later push or row overwrites.
  Row& top_row() {
    if (head_ + size_ + 4 > cap_) [[unlikely]] make_room(4);
#ifdef SIMDTS_SANITIZE
    row_reserved_ = true;
#endif
    // Default-initializing a row of trivial nodes begins its lifetime and
    // emits no code.
    return *::new (static_cast<void*>(slots_ + head_ + size_)) Row;
  }

  /// Makes row[0..n) of the last top_row() the n nodes above the old top
  /// (n <= 4), with the contents and order of n successive push() calls.
  void commit(std::size_t n) {
#ifdef SIMDTS_SANITIZE
    san::check_row_commit(n, row_reserved_, "WorkStack::commit");
    row_reserved_ = false;
#endif
    size_ += n;
  }

  /// Pops the deepest node (LIFO — depth-first order).
  Node pop() {
#ifdef SIMDTS_SANITIZE
    san::check_stack_read(size_, 1, "WorkStack::pop");
#endif
    --size_;
    return slots_[head_ + size_];
  }

  /// Removes and returns the shallowest node (bottom of the stack).
  Node take_bottom() {
#ifdef SIMDTS_SANITIZE
    san::check_stack_read(size_, 1, "WorkStack::take_bottom");
#endif
    --size_;
    return slots_[head_++];
  }

  /// Hints the top slot into cache ahead of the pop() that will read it.
  /// The expansion cycle issues one per active lane of a flag word before
  /// popping any of them, so the word's scattered stack tops are fetched in
  /// parallel instead of missing one after another.  No effect on contents.
  void prefetch_top() const noexcept {
    if (size_ != 0) __builtin_prefetch(slots_ + head_ + size_ - 1);
  }

  void clear() noexcept { head_ = size_ = 0; }

  /// Slots currently allocated (zero or a power of two).
  [[nodiscard]] std::size_t capacity() const noexcept { return cap_; }

  /// Heap bytes of the backing buffer (the bytes-per-lane metric of the
  /// mega-P benchmarks; the header is excluded, as in
  /// CompactStack::memory_bytes).
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return cap_ * sizeof(Node);
  }

  /// Moves every node into `out` in bottom-to-top order, leaving the stack
  /// empty.  Fault recovery uses this to journal a killed PE's unexpanded
  /// intervals: the order matters, because re-donating bottom-first keeps the
  /// shallowest (largest) subtrees at the bottom of the receiving stacks,
  /// preserving depth-first order on the survivors.
  void drain_into(std::vector<Node>& out) {
    out.reserve(out.size() + size_);
    out.insert(out.end(), slots_ + head_, slots_ + head_ + size_);
    clear();
  }

 private:
  /// Makes room for `k` more nodes above the top, which has reached the end
  /// of the buffer: the live nodes slide down to slot 0 when size + k fits
  /// the capacity, and the buffer grows (reserve_pow2) otherwise.
  void make_room(std::size_t k) {
    if (size_ + k > cap_) {
      reserve_pow2(size_ + k);
      return;
    }
    // Each destination slot lies below its source, so a forward copy is
    // safe on the overlap.
    for (std::size_t i = 0; i < size_; ++i) slots_[i] = slots_[head_ + i];
    head_ = 0;
  }

  /// Re-homes the live nodes into a fresh buffer of at least `min_cap`
  /// slots (rounded up to a power of two), bottom node first.
  void reserve_pow2(std::size_t min_cap) {
    std::size_t new_cap = 8;
    while (new_cap < min_cap) new_cap *= 2;
    if (new_cap <= cap_) return;
    Node* new_slots = std::allocator<Node>().allocate(new_cap);
    if (slots_ != nullptr) {
      for (std::size_t i = 0; i < size_; ++i) new_slots[i] = slots_[head_ + i];
      std::allocator<Node>().deallocate(slots_, cap_);
    }
    slots_ = new_slots;
    cap_ = new_cap;
    head_ = 0;
  }

  void release() noexcept {
    if (slots_ != nullptr) {
      std::allocator<Node>().deallocate(slots_, cap_);
      slots_ = nullptr;
      cap_ = head_ = size_ = 0;
    }
  }

  // The header is four words, aligned to 32 bytes so that no lane's header
  // straddles a cache line and an engine's array of them is zero-filled on
  // aligned addresses (at a 16-byte offset, constructing puzzle-p8192's
  // engine took about 1.5x as long).
  alignas(32) Node* slots_ = nullptr;
  std::size_t cap_ = 0;   ///< always zero or a power of two
  std::size_t head_ = 0;  ///< slot of the bottom node
  std::size_t size_ = 0;
#ifdef SIMDTS_SANITIZE
  bool row_reserved_ = false;  ///< a top_row() awaits its commit()
#endif
};

}  // namespace simdts::search
