#include "search/work_stack.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstddef>
#include <vector>

namespace simdts::search {
namespace {

TEST(WorkStack, StartsEmpty) {
  WorkStack<int> s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.splittable());
}

TEST(WorkStack, LifoOrder) {
  WorkStack<int> s;
  s.push(1);
  s.push(2);
  s.push(3);
  EXPECT_EQ(s.pop(), 3);
  EXPECT_EQ(s.pop(), 2);
  EXPECT_EQ(s.pop(), 1);
  EXPECT_TRUE(s.empty());
}

TEST(WorkStack, SplittableNeedsTwoNodes) {
  WorkStack<int> s;
  s.push(1);
  EXPECT_FALSE(s.splittable());
  s.push(2);
  EXPECT_TRUE(s.splittable());
  s.pop();
  EXPECT_FALSE(s.splittable());
}

TEST(WorkStack, BottomIsOldestEntry) {
  WorkStack<int> s;
  s.push(10);
  s.push(20);
  s.push(30);
  EXPECT_EQ(s.bottom(), 10);
  EXPECT_EQ(s.top(), 30);
  EXPECT_EQ(s.take_bottom(), 10);
  EXPECT_EQ(s.bottom(), 20);
  EXPECT_EQ(s.size(), 2u);
}

TEST(WorkStack, InterleavedPushPopTakeBottom) {
  WorkStack<int> s;
  for (int i = 0; i < 6; ++i) s.push(i);
  EXPECT_EQ(s.take_bottom(), 0);
  EXPECT_EQ(s.pop(), 5);
  s.push(99);
  EXPECT_EQ(s.pop(), 99);
  EXPECT_EQ(s.take_bottom(), 1);
  EXPECT_EQ(s.size(), 3u);  // 2, 3, 4 remain
  EXPECT_EQ(s.bottom(), 2);
  EXPECT_EQ(s.top(), 4);
}

TEST(WorkStack, ClearEmpties) {
  WorkStack<int> s;
  s.push(1);
  s.push(2);
  s.clear();
  EXPECT_TRUE(s.empty());
}

TEST(WorkStack, ShrinkToFitDropsCapacity) {
  WorkStack<int> s;
  for (int i = 0; i < 1000; ++i) s.push(i);
  const std::size_t grown_cap = s.capacity();
  const std::size_t grown_bytes = s.memory_bytes();
  EXPECT_GE(grown_cap, 1000u);
  EXPECT_EQ(grown_bytes, grown_cap * sizeof(int));
  while (s.size() > 10) (void)s.pop();
  s.shrink_to_fit();
  EXPECT_LT(s.capacity(), grown_cap);
  EXPECT_LE(s.capacity(), 16u);  // smallest power of two >= max(size, 8)
  EXPECT_LT(s.memory_bytes(), grown_bytes);
  // Contents survive the re-home, in order.
  for (int i = 9; i >= 0; --i) EXPECT_EQ(s.pop(), i);
  // The pooled-release path: an empty stack frees its buffer entirely.
  s.shrink_to_fit();
  EXPECT_EQ(s.capacity(), 0u);
  EXPECT_EQ(s.memory_bytes(), 0u);
}

TEST(WorkStack, ShrinkToFitPreservesWrappedRing) {
  WorkStack<int> s;
  for (int i = 0; i < 100; ++i) s.push(i);  // capacity 128
  // Rotate the live window to the physical end, then push across it so the
  // ring wraps — shrink must re-home both runs in order.
  for (int i = 0; i < 90; ++i) (void)s.take_bottom();
  for (int i = 0; i < 30; ++i) s.push(100 + i);
  ASSERT_EQ(s.size(), 40u);
  const std::size_t old_cap = s.capacity();
  s.shrink_to_fit();
  EXPECT_LT(s.capacity(), old_cap);
  std::vector<int> got;
  while (!s.empty()) got.push_back(s.take_bottom());
  std::vector<int> want;
  for (int i = 90; i < 100; ++i) want.push_back(i);
  for (int i = 0; i < 30; ++i) want.push_back(100 + i);
  EXPECT_EQ(got, want);
}

TEST(WorkStack, MoveOnlyPayload) {
  WorkStack<std::unique_ptr<int>> s;
  s.push(std::make_unique<int>(5));
  s.push(std::make_unique<int>(6));
  auto p = s.pop();
  EXPECT_EQ(*p, 6);
  auto q = s.take_bottom();
  EXPECT_EQ(*q, 5);
}

/// A stack after `pushes` push() calls (values 0, 1, ...) and `takes`
/// take_bottom() calls: `takes` moves the ring's head, so the next top slot
/// can sit anywhere in the buffer, including within 4 of its physical end.
WorkStack<int> ring_state(int pushes, int takes) {
  WorkStack<int> s;
  for (int i = 0; i < pushes; ++i) s.push(i);
  for (int i = 0; i < takes; ++i) s.take_bottom();
  return s;
}

/// Checks `got` against `want` element by element, then drains both with
/// the same mix of pop() and take_bottom() and compares what comes out.
void expect_same_stack(WorkStack<int>& got, WorkStack<int>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << "slot " << i;
  }
  // Later pushes land right above the new top, over the dead slots.
  got.push(1000);
  want.push(1000);
  for (int step = 0; !want.empty(); ++step) {
    ASSERT_FALSE(got.empty());
    if (step % 3 == 2) {
      EXPECT_EQ(got.take_bottom(), want.take_bottom());
    } else {
      EXPECT_EQ(got.pop(), want.pop());
    }
  }
  EXPECT_TRUE(got.empty());
}

TEST(WorkStack, Append4MatchesSuccessivePushesInEveryRingState) {
  const std::array<int, 4> src{100, 101, 102, 103};
  // Up to 12 pushes covers capacities 8 and 16, every head offset in the
  // 8-slot ring (wrapping writes) and appends that must grow the buffer.
  for (int pushes = 0; pushes <= 12; ++pushes) {
    for (int takes = 0; takes <= pushes; ++takes) {
      for (std::size_t n = 0; n <= 4; ++n) {
        SCOPED_TRACE(testing::Message() << "pushes " << pushes << " takes "
                                        << takes << " n " << n);
        WorkStack<int> got = ring_state(pushes, takes);
        WorkStack<int> want = ring_state(pushes, takes);
        const std::size_t before = got.size();
        got.append4(src, n);
        for (std::size_t i = 0; i < n; ++i) want.push(src[i]);
        EXPECT_EQ(got.size(), before + n);
        EXPECT_GE(got.capacity(), before + 4);
        expect_same_stack(got, want);
      }
    }
  }
}

TEST(WorkStack, Append4WrapsAroundThePhysicalEnd) {
  // Seven pushes and five takes: capacity 8, head at slot 5, two live nodes,
  // so the four slot writes land on physical slots 7, 0, 1 and 2.
  const std::array<int, 4> src{100, 101, 102, 103};
  for (std::size_t n = 0; n <= 4; ++n) {
    WorkStack<int> got = ring_state(7, 5);
    ASSERT_EQ(got.capacity(), 8u);
    got.append4(src, n);
    EXPECT_EQ(got.capacity(), 8u) << "no regrowth: the writes wrapped";
    WorkStack<int> want = ring_state(7, 5);
    for (std::size_t i = 0; i < n; ++i) want.push(src[i]);
    expect_same_stack(got, want);
  }
}

TEST(WorkStack, Append4GrowsWhenFourSlotsDoNotFit) {
  // Five of eight slots live: size + 4 > capacity, so even an append of
  // zero nodes reserves room for four, keeping the bottom-to-top order of
  // a wrapped ring.
  const std::array<int, 4> src{100, 101, 102, 103};
  for (std::size_t n = 0; n <= 4; ++n) {
    WorkStack<int> got = ring_state(8, 3);
    got.push(8);
    got.push(9);
    got.push(10);
    ASSERT_EQ(got.size(), 8u);
    got.take_bottom();
    got.take_bottom();
    got.take_bottom();
    ASSERT_EQ(got.capacity(), 8u);
    got.append4(src, n);
    EXPECT_EQ(got.capacity(), 16u);
    WorkStack<int> want;
    for (int v = 6; v <= 10; ++v) want.push(v);
    for (std::size_t i = 0; i < n; ++i) want.push(src[i]);
    expect_same_stack(got, want);
  }
}

}  // namespace
}  // namespace simdts::search
