// Word-aligned chunked storage for per-lane state at mega-P scale.
//
// A machine of P = 2^20 lanes needs P per-PE objects (work stacks, scratch
// slots).  One std::vector<T> of that length works, but a single contiguous
// allocation of tens of megabytes is hostile to the allocator (it forces one
// huge arena that can neither grow incrementally nor return partial pages)
// and resizing it ever would move every element.  A ShardedArray stores the
// elements in fixed-size shards — 4096 elements each, i.e. 64 flag-plane
// words of lanes — so allocation is incremental, element addresses are
// stable for the array's lifetime, and indexing stays two shifts and a mask.
//
// The shard size being a multiple of 64 lanes means no flag-plane word ever
// maps to elements of two different shards: the 64 elements of word w are
// contiguous from &a[w * 64], so the engine's expansion walk indexes a
// word's stacks from one base pointer (it static_asserts this rule).
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace simdts::common {

template <typename T>
class ShardedArray {
 public:
  /// Elements per shard; a power of two and a multiple of 64 (one flag-plane
  /// word of lanes never spans two shards).
  static constexpr std::size_t kShardElems = 4096;

  ShardedArray() = default;

  explicit ShardedArray(std::size_t n) : size_(n) {
    const std::size_t shards = (n + kShardElems - 1) / kShardElems;
    shards_.reserve(shards);
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t count =
          s + 1 == shards ? n - s * kShardElems : kShardElems;
      shards_.emplace_back(count);
    }
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return shards_[i / kShardElems][i % kShardElems];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return shards_[i / kShardElems][i % kShardElems];
  }

  /// Calls f(element) for every element in index order.
  template <typename F>
  void for_each(F&& f) {
    for (auto& shard : shards_) {
      for (T& e : shard) f(e);
    }
  }
  template <typename F>
  void for_each(F&& f) const {
    for (const auto& shard : shards_) {
      for (const T& e : shard) f(e);
    }
  }

 private:
  std::vector<std::vector<T>> shards_;
  std::size_t size_ = 0;
};

}  // namespace simdts::common
