#include "service/request.hpp"

#include <sstream>

#include "common/error.hpp"
#include "fault/fault.hpp"

namespace simdts::service {

const char* to_string(Priority p) {
  switch (p) {
    case Priority::kBatch: return "batch";
    case Priority::kStandard: return "standard";
    case Priority::kInteractive: return "interactive";
  }
  return "?";
}

const char* to_string(ProblemKind k) {
  switch (k) {
    case ProblemKind::kSyntheticTree: return "synthetic";
    case ProblemKind::kFifteenPuzzle: return "fifteen";
  }
  return "?";
}

const char* to_string(SchemeKind s) {
  switch (s) {
    case SchemeKind::kNgpStatic: return "nGP-S";
    case SchemeKind::kGpStatic: return "GP-S";
    case SchemeKind::kNgpDp: return "nGP-DP";
    case SchemeKind::kGpDp: return "GP-DP";
    case SchemeKind::kNgpDk: return "nGP-DK";
    case SchemeKind::kGpDk: return "GP-DK";
  }
  return "?";
}

const char* to_string(SolveMode m) {
  switch (m) {
    case SolveMode::kExhaustive: return "exhaustive";
    case SolveMode::kFirstSolution: return "first-solution";
  }
  return "?";
}

const char* to_string(ResponseStatus s) {
  switch (s) {
    case ResponseStatus::kOk: return "ok";
    case ResponseStatus::kCacheHit: return "cache-hit";
    case ResponseStatus::kCoalesced: return "coalesced";
    case ResponseStatus::kBudgetExhausted: return "budget-exhausted";
    case ResponseStatus::kShed: return "shed";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kFailed: return "failed";
  }
  return "?";
}

namespace {

/// Throws the ConfigError for a rejected request.  Out of line, so the error
/// context is built only when a request fails: validate() runs once per
/// request on the service's serial admission path.
[[noreturn]] void reject(const Request& r, const char* what,
                         const char* field = nullptr, std::uint32_t value = 0) {
  std::ostringstream ctx;
  ctx << "request=" << r.id;
  if (field != nullptr) ctx << ' ' << field << '=' << value;
  throw ConfigError(what, ctx.str());
}

}  // namespace

void validate(const Request& r) {
  if (r.p < 2 || r.p > 4096 || (r.p & (r.p - 1)) != 0) {
    reject(r, "request machine size must be a power of two in [2, 4096]", "p",
           r.p);
  }
  if (r.instance_size == 0 || r.instance_size > 64) {
    reject(r, "request instance_size must be in [1, 64]", "instance_size",
           r.instance_size);
  }
  if (r.cost_hint == 0) {
    reject(r,
           "request cost_hint must be positive (admission uses it as the "
           "service-time estimate)");
  }
}

std::uint64_t canonical_key(const Request& r, std::uint32_t effective_p,
                            SolveMode effective_mode) {
  // A SplitMix64 absorption chain: feed each content field through the mixer
  // so every field perturbs the whole key (the same discipline as
  // synthetic::hash2).  Envelope fields are deliberately absent.
  std::uint64_t state = 0x53564B4559ULL;  // "SVKEY"
  const std::uint64_t fields[] = {
      static_cast<std::uint64_t>(r.problem),
      r.instance_seed,
      r.instance_size,
      static_cast<std::uint64_t>(r.scheme),
      effective_p,
      static_cast<std::uint64_t>(effective_mode),
      r.cycle_budget,
  };
  std::uint64_t key = 0;
  for (const std::uint64_t f : fields) {
    state ^= f;
    key = fault::splitmix64(state);
  }
  return key;
}

std::uint64_t canonical_key(const Request& r) {
  return canonical_key(r, r.p, r.mode);
}

std::string encode_response(const Response& r) {
  std::ostringstream os;
  os << "req=" << r.request_id << " tenant=" << r.tenant
     << " status=" << to_string(r.status) << " attempts=" << r.attempts
     << " backoff_ms=" << r.backoff_ms_total
     << " queue_ticks=" << r.queue_delay_ticks << " p=" << r.executed_p
     << " downshift=" << (r.downshifted_p ? 1 : 0)
     << " first_forced=" << (r.first_solution_forced ? 1 : 0)
     << " nodes=" << r.nodes_expanded << " cycles=" << r.expand_cycles
     << " goals=" << r.goals_found << " note=" << r.note;
  return os.str();
}

std::vector<Request> random_trace(std::uint64_t seed, std::size_t n,
                                  std::uint32_t tenants) {
  if (tenants == 0) {
    throw ConfigError("random_trace needs at least one tenant", "tenants=0");
  }
  std::uint64_t state = seed;
  std::vector<Request> trace;
  trace.reserve(n);
  std::uint64_t tick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Request r;
    r.id = 1000 + i;
    r.tenant = static_cast<std::uint32_t>(fault::splitmix64(state) % tenants);
    tick += fault::splitmix64(state) % 4;
    r.arrival_tick = tick;
    r.priority = static_cast<Priority>(fault::splitmix64(state) % 3);
    // Mostly synthetic trees (cheap, exhaustive) with a sprinkling of small
    // 15-puzzle scrambles, so a long trace stays fast enough for CI soaks.
    r.problem = fault::splitmix64(state) % 4 == 0
                    ? ProblemKind::kFifteenPuzzle
                    : ProblemKind::kSyntheticTree;
    r.instance_seed = fault::splitmix64(state);
    r.instance_size = r.problem == ProblemKind::kFifteenPuzzle
                          ? 4 + static_cast<std::uint32_t>(
                                    fault::splitmix64(state) % 7)
                          : 8 + static_cast<std::uint32_t>(
                                    fault::splitmix64(state) % 4);
    r.scheme = static_cast<SchemeKind>(fault::splitmix64(state) % 6);
    r.p = 4u << (fault::splitmix64(state) % 3);  // 4, 8, or 16
    r.mode = fault::splitmix64(state) % 5 == 0 ? SolveMode::kFirstSolution
                                               : SolveMode::kExhaustive;
    // Every fourth request carries a deadline tight enough that some runs
    // exhaust it — the soak must exercise the budget path, not just kOk.
    r.cycle_budget =
        fault::splitmix64(state) % 4 == 0
            ? 8 + fault::splitmix64(state) % 64
            : 0;
    r.cost_hint = 256 + 128 * static_cast<std::uint64_t>(r.instance_size) +
                  fault::splitmix64(state) % 512;
    trace.push_back(r);
  }
  return trace;
}

}  // namespace simdts::service
