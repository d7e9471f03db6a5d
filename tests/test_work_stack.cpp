#include "search/work_stack.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <random>
#include <utility>
#include <vector>

#include "search/splitter.hpp"

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

/// The stack's nodes bottom to top; leaves it empty.
std::vector<int> drained(WorkStack<int>& s) {
  std::vector<int> out;
  s.drain_into(out);
  return out;
}

TEST(WorkStack, BottomIsOldestEntry) {
  WorkStack<int> s;
  s.push(10);
  s.push(20);
  s.push(30);
  EXPECT_EQ(s.take_bottom(), 10);
  EXPECT_EQ(s.size(), 2u);
  EXPECT_EQ(drained(s), (std::vector<int>{20, 30}));
  EXPECT_TRUE(s.empty());
}

TEST(WorkStack, InterleavedPushPopTakeBottom) {
  WorkStack<int> s;
  for (int i = 0; i < 6; ++i) s.push(i);
  EXPECT_EQ(s.take_bottom(), 0);
  EXPECT_EQ(s.pop(), 5);
  s.push(99);
  EXPECT_EQ(s.pop(), 99);
  EXPECT_EQ(s.take_bottom(), 1);
  EXPECT_EQ(drained(s), (std::vector<int>{2, 3, 4}));
}

TEST(WorkStack, ClearEmpties) {
  WorkStack<int> s;
  s.push(1);
  s.push(2);
  s.clear();
  EXPECT_TRUE(s.empty());
}

/// A stack after `pushes` push() calls (values 0, 1, ...) and `takes`
/// take_bottom() calls: `takes` moves the bottom up the buffer, so the top
/// can sit anywhere in it, including within 4 of its physical end.
WorkStack<int> linear_state(int pushes, int takes) {
  WorkStack<int> s;
  for (int i = 0; i < pushes; ++i) s.push(i);
  for (int i = 0; i < takes; ++i) s.take_bottom();
  return s;
}

/// Drains `got` and `want` with the same mix of pop() and take_bottom()
/// and compares what comes out, node by node.
void expect_same_stack(WorkStack<int>& got, WorkStack<int>& want) {
  ASSERT_EQ(got.size(), want.size());
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

/// Writes 100..103 into a fresh top row, commits n of them and returns the
/// row's address.
int* row_commit(WorkStack<int>& s, std::size_t n) {
  WorkStack<int>::Row& row = s.top_row();
  for (int i = 0; i < 4; ++i) row[static_cast<std::size_t>(i)] = 100 + i;
  s.commit(n);
  return row.data();
}

TEST(WorkStack, TopRowCommitMatchesSuccessivePushesInEveryLinearState) {
  // Up to 12 pushes covers capacities 8 and 16, every bottom position in
  // the 8-slot buffer (rows that slide the live nodes down) and rows that
  // must grow the buffer.
  for (int pushes = 0; pushes <= 12; ++pushes) {
    for (int takes = 0; takes <= pushes; ++takes) {
      for (std::size_t n = 0; n <= 4; ++n) {
        SCOPED_TRACE(testing::Message() << "pushes " << pushes << " takes "
                                        << takes << " n " << n);
        WorkStack<int> got = linear_state(pushes, takes);
        WorkStack<int> want = linear_state(pushes, takes);
        const std::size_t before = got.size();
        int* row = row_commit(got, n);
        for (std::size_t i = 0; i < n; ++i) {
          want.push(100 + static_cast<int>(i));
        }
        EXPECT_EQ(got.size(), before + n);
        EXPECT_GE(got.capacity(), before + 4);
        // The row is the slots right above the old top: a write through it
        // after commit() is what pop() returns.
        if (n != 0) {
          row[n - 1] = -1;
          (void)want.pop();
          want.push(-1);
        }
        expect_same_stack(got, want);
      }
    }
  }
}

TEST(WorkStack, TopRowSlidesLiveNodesDownAtTheEnd) {
  // Seven pushes and five takes: capacity 8, bottom at slot 5, two live
  // nodes, so the four row slots would run past the end; 2 + 4 fit the
  // capacity, so the live nodes slide to slot 0 instead of growing.
  for (std::size_t n = 0; n <= 4; ++n) {
    WorkStack<int> slid = linear_state(7, 5);
    ASSERT_EQ(slid.capacity(), 8u);
    const int* row = row_commit(slid, n);
    EXPECT_EQ(slid.capacity(), 8u) << "no regrowth: the live nodes slid";
    // Popping leaves the bottom where it is, so the next row of the emptied
    // stack starts at the bottom's slot.
    while (!slid.empty()) (void)slid.pop();
    const int* bottom = slid.top_row().data();
    slid.commit(0);
    EXPECT_EQ(row, bottom + 2) << "bottom at slot 0, row right above the top";
    WorkStack<int> got = linear_state(7, 5);
    row_commit(got, n);
    WorkStack<int> want = linear_state(7, 5);
    for (std::size_t i = 0; i < n; ++i) want.push(100 + static_cast<int>(i));
    expect_same_stack(got, want);
  }
}

TEST(WorkStack, TopRowGrowsWhenFourSlotsDoNotFit) {
  // Five of eight slots live: size + 4 > capacity, so even a commit of
  // zero nodes reserves room for four, keeping the bottom-to-top order.
  for (std::size_t n = 0; n <= 4; ++n) {
    WorkStack<int> got = linear_state(8, 3);
    ASSERT_EQ(got.capacity(), 8u);
    row_commit(got, n);
    EXPECT_EQ(got.capacity(), 16u);
    WorkStack<int> want;
    for (int v = 3; v <= 7; ++v) want.push(v);
    for (std::size_t i = 0; i < n; ++i) want.push(100 + static_cast<int>(i));
    expect_same_stack(got, want);
  }
}

TEST(WorkStack, PushSlidesAtTheEndAndGrowsWhenFull) {
  // Top at the physical end with the bottom moved up: push slides.
  WorkStack<int> s = linear_state(8, 2);
  ASSERT_EQ(s.capacity(), 8u);
  s.push(8);
  EXPECT_EQ(s.capacity(), 8u);
  s.push(9);
  EXPECT_EQ(s.capacity(), 8u);
  // Every slot live: the next push doubles the buffer.
  ASSERT_EQ(s.size(), 8u);
  s.push(10);
  EXPECT_EQ(s.capacity(), 16u);
  for (int v = 10; v >= 2; --v) EXPECT_EQ(s.pop(), v);
  EXPECT_TRUE(s.empty());
}

TEST(WorkStack, CommitZeroKeepsTheStackAndCommitFourTakesTheRow) {
  WorkStack<int> s = linear_state(3, 0);
  row_commit(s, 0);
  ASSERT_EQ(s.size(), 3u);
  // The uncommitted row is dead storage: the next row (or push) reuses it.
  row_commit(s, 4);
  ASSERT_EQ(s.size(), 7u);
  for (int v = 103; v >= 100; --v) EXPECT_EQ(s.pop(), v);
  EXPECT_EQ(s.pop(), 2);
}

/// The capacity a stack of `size` nodes has after a request for `k` more
/// under the growth rule: unchanged while size + k fits, else the smallest
/// power of two >= max(8, size + k).
std::size_t grown(std::size_t cap, std::size_t size, std::size_t k) {
  if (size + k <= cap) return cap;
  std::size_t c = 8;
  while (c < size + k) c *= 2;
  return c;
}

TEST(WorkStack, MatchesDequeModelAndTheCapacityRule) {
  // Random op sequences against a std::deque of the same values, with the
  // capacity each op must leave predicted independently of where the live
  // nodes sit in the buffer (so a slide never shows in capacity or bytes).
  std::mt19937 rng(20240611);
  int next_value = 0;
  for (int seq = 0; seq < 200; ++seq) {
    WorkStack<int> s;
    std::deque<int> model;
    std::size_t cap = 0;
    for (int op = 0; op < 400; ++op) {
      SCOPED_TRACE(testing::Message() << "seq " << seq << " op " << op);
      const unsigned kind = rng() % 100;
      if (kind < 30) {
        cap = grown(cap, model.size(), 1);
        s.push(next_value);
        model.push_back(next_value++);
      } else if (kind < 55) {
        if (model.empty()) continue;
        ASSERT_EQ(s.pop(), model.back());
        model.pop_back();
      } else if (kind < 70) {
        if (model.empty()) continue;
        ASSERT_EQ(s.take_bottom(), model.front());
        model.pop_front();
      } else if (kind < 88) {
        const std::size_t n = rng() % 5;
        cap = grown(cap, model.size(), 4);
        WorkStack<int>::Row& row = s.top_row();
        for (std::size_t i = 0; i < 4; ++i) {
          row[i] = next_value + static_cast<int>(i);
        }
        s.commit(n);
        for (std::size_t i = 0; i < n; ++i) model.push_back(next_value++);
        next_value += static_cast<int>(4 - n);
      } else if (kind < 97) {
        // Every split keeps the capacity: kHalf drains and pushes back.
        if (model.size() < 2) continue;
        std::vector<int> out;
        std::deque<int> kept;
        std::vector<int> donated;
        if (kind < 91) {
          split(s, SplitStrategy::kHalf, out);
          for (std::size_t i = 0; i < model.size(); ++i) {
            if (i % 2 == 0) {
              donated.push_back(model[i]);
            } else {
              kept.push_back(model[i]);
            }
          }
        } else {
          const bool bottom = kind < 94;
          split(s,
                bottom ? SplitStrategy::kBottomNode : SplitStrategy::kTopNode,
                out);
          kept = model;
          donated.push_back(bottom ? kept.front() : kept.back());
          if (bottom) {
            kept.pop_front();
          } else {
            kept.pop_back();
          }
        }
        ASSERT_EQ(out, donated);
        model = std::move(kept);
      } else {
        std::vector<int> out{-1};
        s.drain_into(out);
        std::vector<int> want{-1};
        want.insert(want.end(), model.begin(), model.end());
        ASSERT_EQ(out, want);
        model.clear();
      }
      ASSERT_EQ(s.size(), model.size());
      ASSERT_EQ(s.capacity(), cap);
      ASSERT_EQ(s.memory_bytes(), cap * sizeof(int));
    }
    // Pops, bottom takes and splits compared single nodes along the way;
    // the drain compares every node left.
    EXPECT_EQ(drained(s), std::vector<int>(model.begin(), model.end()));
  }
}

}  // namespace
}  // namespace simdts::search
