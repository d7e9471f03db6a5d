#include "fault/fault.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_set>

#include "common/error.hpp"
#include "sanitizer/sanitizer.hpp"

namespace simdts::fault {

const char* to_string(FaultKind k) {
  switch (k) {
    case FaultKind::kKillPe:
      return "kill";
    case FaultKind::kRevivePe:
      return "revive";
    case FaultKind::kDropMessages:
      return "drop";
  }
  return "?";
}

FaultPlan::FaultPlan(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
#ifdef SIMDTS_SANITIZE
  // Mutation: leave the plan in submission order so the SimdSan plan-order
  // verification below can be proven to fire on an out-of-order plan.
  const bool sort_plan = !san::mutation().skip_plan_sort;
#else
  const bool sort_plan = true;
#endif
  if (sort_plan) {
    std::stable_sort(events_.begin(), events_.end(),
                     [](const FaultEvent& a, const FaultEvent& b) {
                       return a.cycle < b.cycle;
                     });
  }
#ifdef SIMDTS_SANITIZE
  // The engine's due-event cursor walks the plan front to back and assumes
  // cycles never decrease; verify that here, where every plan is born.
  std::vector<std::uint64_t> cycles;
  cycles.reserve(events_.size());
  for (const FaultEvent& e : events_) cycles.push_back(e.cycle);
  san::verify_plan_cycles(cycles.data(), cycles.size());
#endif
}

FaultPlan FaultPlan::random_kills(std::uint64_t seed, std::uint32_t p,
                                  std::uint32_t kills,
                                  std::uint64_t first_cycle,
                                  std::uint64_t last_cycle) {
  if (p == 0) {
    throw ConfigError("FaultPlan::random_kills: machine size must be positive",
                      "P=0");
  }
  if (kills >= p) {
    std::ostringstream os;
    os << "kills=" << kills << " P=" << p;
    throw ConfigError(
        "FaultPlan::random_kills: must leave at least one survivor",
        os.str());
  }
  if (first_cycle == 0 || last_cycle < first_cycle) {
    std::ostringstream os;
    os << "first=" << first_cycle << " last=" << last_cycle;
    throw ConfigError("FaultPlan::random_kills: need 1 <= first <= last",
                      os.str());
  }
  std::uint64_t state = seed;
  std::vector<FaultEvent> events;
  events.reserve(kills);
  std::unordered_set<std::uint32_t> used;
  while (events.size() < kills) {
    const auto pe = static_cast<std::uint32_t>(splitmix64(state) % p);
    if (!used.insert(pe).second) continue;
    const std::uint64_t span = last_cycle - first_cycle + 1;
    const std::uint64_t cycle = first_cycle + splitmix64(state) % span;
    events.push_back(FaultEvent{cycle, FaultKind::kKillPe, pe, 0});
  }
  return FaultPlan(std::move(events));
}

void FaultPlan::validate(std::uint32_t p) const {
  std::unordered_set<std::uint32_t> killed;
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const FaultEvent& e = events_[i];
    std::ostringstream ctx;
    ctx << "event " << i << " (" << to_string(e.kind) << " @cycle " << e.cycle
        << ")";
    if (e.cycle == 0) {
      throw ConfigError("FaultPlan: events fire after a cycle; cycle 0 never "
                        "arrives",
                        ctx.str());
    }
    switch (e.kind) {
      case FaultKind::kKillPe:
      case FaultKind::kRevivePe:
        if (e.pe >= p) {
          ctx << " pe=" << e.pe << " P=" << p;
          throw ConfigError("FaultPlan: PE index out of range", ctx.str());
        }
        if (e.kind == FaultKind::kKillPe) {
          killed.insert(e.pe);
        } else {
          killed.erase(e.pe);
        }
        break;
      case FaultKind::kDropMessages:
        if (e.count == 0) {
          throw ConfigError("FaultPlan: drop event with count 0", ctx.str());
        }
        break;
    }
    if (killed.size() >= p) {
      throw ConfigError("FaultPlan: plan kills every PE with none revived",
                        ctx.str());
    }
  }
}

}  // namespace simdts::fault
