// SimdSan shadow-state implementation.  The whole translation unit is gated
// on SIMDTS_SANITIZE so a default build contributes zero symbols to
// libsimdts.a — the lint.sanitizer_zero_cost ctest runs `nm` to hold us to
// that.
#ifdef SIMDTS_SANITIZE

#include "sanitizer/sanitizer.hpp"

#include <atomic>
#include <sstream>

#include "common/error.hpp"

namespace simdts::san {

namespace {

std::atomic<bool> g_armed{true};

MutationHooks g_mutation{};

[[noreturn]] void fail(const char* invariant, const std::string& what) {
  throw SanitizerError(invariant, what);
}

}  // namespace

bool armed() noexcept { return g_armed.load(std::memory_order_relaxed); }
void set_armed(bool value) noexcept {
  g_armed.store(value, std::memory_order_relaxed);
}

MutationHooks& mutation() noexcept { return g_mutation; }

void check_lane_index(std::size_t i, std::size_t lanes, const char* where) {
  if (!armed()) return;
  if (i >= lanes) {
    std::ostringstream os;
    os << where << ": lane index " << i << " out of range for " << lanes
       << " lanes";
    fail("lane-bounds", os.str());
  }
}

void check_stack_read(std::size_t have, std::size_t need, const char* op) {
  if (!armed()) return;
  if (have < need) {
    std::ostringstream os;
    os << op << " needs " << need << " node(s) but the stack holds " << have;
    fail("stack-underflow", os.str());
  }
}

void verify_tail_zero(const std::uint64_t* words, std::size_t word_count,
                      std::size_t lanes, const char* plane_name) {
  if (!armed()) return;
  if (word_count == 0) return;
  const std::size_t base = (word_count - 1) * 64;
  const std::size_t valid = lanes > base ? lanes - base : 0;
  const std::uint64_t mask =
      valid >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << valid) - 1;
  const std::uint64_t tail = words[word_count - 1] & ~mask;
  if (tail != 0) {
    std::ostringstream os;
    os << plane_name << ": bits set past lane " << lanes
       << " in the last word (tail=0x" << std::hex << tail << ")";
    fail("tail-bits", os.str());
  }
}

void check_census(std::uint64_t incremental, std::uint64_t reference,
                  const char* quantity) {
  if (!armed()) return;
  if (incremental != reference) {
    std::ostringstream os;
    os << quantity << ": incremental census " << incremental
       << " != reference recount " << reference;
    fail("census-divergence", os.str());
  }
}

void DeadLaneShadow::resize(std::size_t lanes) { dead_.assign(lanes, '\0'); }

void DeadLaneShadow::clear() noexcept {
  dead_.assign(dead_.size(), '\0');
}

void DeadLaneShadow::mark_dead(std::size_t lane) {
  if (lane < dead_.size()) dead_[lane] = '\1';
}

void DeadLaneShadow::mark_alive(std::size_t lane) {
  if (lane < dead_.size()) dead_[lane] = '\0';
}

bool DeadLaneShadow::is_dead(std::size_t lane) const noexcept {
  return lane < dead_.size() && dead_[lane] != '\0';
}

void DeadLaneShadow::check_alive(std::size_t lane, const char* action) const {
  if (!armed()) return;
  if (is_dead(lane)) {
    std::ostringstream os;
    os << action << " touched the stack of fault-killed lane " << lane;
    fail("dead-lane", os.str());
  }
}

void verify_unique_donors(const std::uint32_t* donors, std::size_t n) {
  if (!armed()) return;
  // Rendezvous rounds pair at most a few hundred lanes; O(n^2) keeps the
  // shadow state allocation-free.
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (donors[i] == donors[j]) {
        std::ostringstream os;
        os << "donor lane " << donors[i]
           << " matched twice in one rendezvous round (pairs " << i << " and "
           << j << ")";
        fail("double-donation", os.str());
      }
    }
  }
}

void verify_plan_cycles(const std::uint64_t* cycles, std::size_t n) {
  if (!armed()) return;
  for (std::size_t i = 1; i < n; ++i) {
    if (cycles[i] < cycles[i - 1]) {
      std::ostringstream os;
      os << "fault-plan event " << i << " at cycle " << cycles[i]
         << " precedes event " << i - 1 << " at cycle " << cycles[i - 1];
      fail("plan-order", os.str());
    }
  }
}

}  // namespace simdts::san

#endif  // SIMDTS_SANITIZE
