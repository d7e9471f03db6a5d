// lb::Lanes, the engine's lane state, against a per-lane recount.
//
// Random sequences of every write the engine makes — word settles (pops,
// row commits and goals), split and give-one transfers, kills with recovery
// donations, revives and iteration resets — run on both stacks at machine
// sizes on both sides of a word boundary.  After every step the flag
// planes, their summaries and the census must equal a recount from the
// stacks and the dead plane, one lane at a time.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "lb/lanes.hpp"
#include "lb_oracle.hpp"
#include "search/compact_stack.hpp"
#include "search/splitter.hpp"
#include "search/work_stack.hpp"
#include "simd/rendezvous.hpp"
#include "synthetic/tree.hpp"

namespace simdts::lb {
namespace {

using synthetic::Tree;
constexpr std::size_t kWordBits = simd::BitPlane::kWordBits;

/// Every plane, summary and census figure of `lanes` against a recount
/// from the stacks and the dead plane.
template <typename StackT>
void expect_matches_recount(const Lanes<StackT>& lanes,
                            const std::string& where) {
  const std::size_t p = lanes.size();
  std::vector<std::uint8_t> idle(p);
  std::vector<std::uint8_t> busy(p);
  std::vector<std::uint64_t> active(lanes.word_count());
  std::uint32_t alive = 0;
  std::uint32_t nonempty = 0;
  std::uint32_t splittable = 0;
  for (std::size_t i = 0; i < p; ++i) {
    const StackT& s = lanes.stack(i);
    if (lanes.dead().test(i)) {
      ASSERT_TRUE(s.empty()) << where << ": dead lane " << i << " holds work";
      continue;
    }
    ++alive;
    idle[i] = s.empty();
    busy[i] = s.splittable();
    if (!s.empty()) {
      ++nonempty;
      active[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
    }
    splittable += busy[i];
  }
  ASSERT_EQ(oracle::bytes_of(lanes.idle()), idle) << where;
  ASSERT_EQ(oracle::bytes_of(lanes.busy()), busy) << where;
  ASSERT_EQ(lanes.alive(), alive) << where;
  ASSERT_EQ(lanes.nonempty(), nonempty) << where;
  ASSERT_EQ(lanes.splittable(), splittable) << where;
  ASSERT_EQ(lanes.empty(), alive - nonempty) << where;
  const std::size_t last = lanes.word_count() - 1;
  const std::uint64_t tail = ~lanes.idle().word_mask(last);
  ASSERT_EQ(lanes.idle().words()[last] & tail, 0u) << where;
  ASSERT_EQ(lanes.busy().words()[last] & tail, 0u) << where;
  std::size_t next = lanes.word_count();
  for (std::size_t w = lanes.word_count(); w-- > 0;) {
    ASSERT_EQ(lanes.active_lanes(w), active[w]) << where << ", word " << w;
    ASSERT_EQ(lanes.busy_summary().test(w), lanes.busy().words()[w] != 0)
        << where << ", word " << w;
    ASSERT_EQ(lanes.idle_summary().test(w), lanes.idle().words()[w] != 0)
        << where << ", word " << w;
    if (active[w] != 0) next = w;
    ASSERT_EQ(lanes.next_occupied(w), next) << where << ", word " << w;
  }
}

/// Drives one Lanes through random engine writes on a synthetic tree.
template <typename StackT>
class LaneDriver {
 public:
  LaneDriver(const Tree& tree, std::size_t p, std::uint64_t seed)
      : tree_(tree), lanes_(p, tree), seed_(seed) {
    lanes_.reset(tree_.root());
  }

  const Lanes<StackT>& lanes() const { return lanes_; }

  /// One random write; returns its name for the failure message.
  std::string random_write() {
    if (lanes_.nonempty() == 0) {
      lanes_.reset(tree_.root());
      return "reset";
    }
    switch (draw() % 16) {
      case 0:
        lanes_.reset(tree_.root());
        return "reset";
      case 1:
        lanes_.revive_all();
        return "revive_all";
      case 2:
      case 3:
        return split_transfer();
      case 4:
      case 5:
        return give_one();
      case 6:
      case 7:
        return kill();
      case 8:
        return revive();
      default:
        return settle();
    }
  }

 private:
  std::uint64_t draw() { return fault::splitmix64(seed_); }

  std::size_t total_nodes() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      n += lanes_.stack(i).size();
    }
    return n;
  }

  /// A lock-step settle of one occupied word: each active lane pops, and
  /// either keeps its node as a goal or commits the node's first row of
  /// children.
  std::string settle() {
    const std::size_t w = lanes_.next_occupied(draw() % lanes_.word_count());
    if (w == lanes_.word_count()) return "settle (no work past the draw)";
    search::NextBound next;
    lanes_.settle_word(w, lanes_.active_lanes(w),
                       [&](StackT& st, std::uint64_t) {
                         const Tree::Node n = st.pop();
                         if (draw() % 4 == 0) return;  // a goal
                         st.commit(tree_.expand_row(n, search::kUnbounded,
                                                    st.top_row(), next, 0));
                       });
    return "settle word " + std::to_string(w);
  }

  std::string split_transfer() {
    simd::ranked_into(lanes_.busy(), lanes_.busy_summary(), simd::kNoPe,
                      donors_);
    simd::ranked_into(lanes_.idle(), lanes_.idle_summary(), simd::kNoPe,
                      receivers_);
    if (donors_.empty() || receivers_.empty()) return "split (no pair)";
    const simd::PeIndex d = donors_[draw() % donors_.size()];
    const simd::PeIndex r = receivers_[draw() % receivers_.size()];
    const auto strategy = static_cast<search::SplitStrategy>(draw() % 3);
    const std::size_t before = total_nodes();
    lanes_.reclassify(d, [&](StackT& s) { search::split(s, strategy, buf_); });
    lanes_.reclassify(r, [&](StackT& s) { search::receive(s, buf_); });
    EXPECT_EQ(total_nodes(), before);
    return "split " + std::to_string(d) + " -> " + std::to_string(r);
  }

  std::string give_one() {
    simd::ranked_into(lanes_.busy(), lanes_.busy_summary(), simd::kNoPe,
                      donors_);
    simd::ranked_into(lanes_.idle(), lanes_.idle_summary(), simd::kNoPe,
                      receivers_);
    if (donors_.empty() || receivers_.empty()) return "give-one (no pair)";
    const simd::PeIndex d = donors_[draw() % donors_.size()];
    const simd::PeIndex r = receivers_[draw() % receivers_.size()];
    Tree::Node n{};
    lanes_.reclassify(d, [&](StackT& s) { n = s.take_bottom(); });
    lanes_.reclassify(r, [&](StackT& s) { s.push(n); });
    return "give-one " + std::to_string(d) + " -> " + std::to_string(r);
  }

  /// Kills a random surviving lane (never the last) and deals its nodes to
  /// the receivers the engine picks, checking that the ranked idle
  /// enumeration equals the per-lane wrap-order scan.
  std::string kill() {
    if (lanes_.alive() < 2) return "kill (last survivor)";
    const std::size_t p = lanes_.size();
    std::size_t pe = draw() % p;
    while (lanes_.dead().test(pe)) pe = (pe + 1) % p;
    const std::size_t before = total_nodes();
    orphans_.clear();
    lanes_.kill(pe, orphans_);
    simd::ranked_into(lanes_.idle(), lanes_.idle_summary(),
                      static_cast<simd::PeIndex>(pe), receivers_);
    std::vector<simd::PeIndex> scan;
    std::vector<simd::PeIndex> survivors;
    for (std::size_t off = 1; off <= p; ++off) {
      const auto i = static_cast<simd::PeIndex>((pe + off) % p);
      if (lanes_.dead().test(i)) continue;
      survivors.push_back(i);
      if (lanes_.idle().test(i)) scan.push_back(i);
    }
    EXPECT_EQ(receivers_, scan) << "receivers after killing " << pe;
    if (receivers_.empty()) receivers_ = survivors;
    for (std::size_t j = 0; j < orphans_.size(); ++j) {
      lanes_.reclassify(receivers_[j % receivers_.size()],
                        [&](StackT& s) { s.push(orphans_[j]); });
    }
    EXPECT_EQ(total_nodes(), before);
    return "kill " + std::to_string(pe);
  }

  std::string revive() {
    const std::size_t p = lanes_.size();
    const std::size_t start = draw() % p;
    for (std::size_t off = 0; off < p; ++off) {
      const std::size_t i = (start + off) % p;
      if (lanes_.dead().test(i)) {
        lanes_.revive(i);
        return "revive " + std::to_string(i);
      }
    }
    return "revive (none dead)";
  }

  const Tree& tree_;
  Lanes<StackT> lanes_;
  std::uint64_t seed_;
  std::vector<simd::PeIndex> donors_;
  std::vector<simd::PeIndex> receivers_;
  std::vector<Tree::Node> buf_;
  std::vector<Tree::Node> orphans_;
};

template <typename StackT>
void run_random_writes(std::uint64_t seed) {
  const Tree tree(synthetic::Params{seed, 4, 0.9, 14});
  for (const std::size_t p : {1, 63, 64, 65, 130}) {
    LaneDriver<StackT> driver(tree, p, seed * 1000 + p);
    expect_matches_recount(driver.lanes(), "after construction");
    for (int step = 0; step < 600; ++step) {
      const std::string what = driver.random_write();
      ASSERT_NO_FATAL_FAILURE(expect_matches_recount(
          driver.lanes(), "P=" + std::to_string(p) + " step " +
                              std::to_string(step) + " (" + what + ")"));
    }
  }
}

TEST(Lanes, RandomWritesMatchPerLaneRecountOnWorkStack) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_random_writes<search::WorkStack<Tree::Node>>(seed);
  }
}

TEST(Lanes, RandomWritesMatchPerLaneRecountOnCompactStack) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_random_writes<search::CompactStack<Tree>>(seed);
  }
}

}  // namespace
}  // namespace simdts::lb
