// Deterministic fault injection for the emulated SIMD machine.
//
// The paper's guarantees (GP's V(P) = 1/(1-x) phase bound, D^K's
// 2x-of-optimal trigger overhead) assume every PE survives the whole run.
// Production substrates lose lanes mid-run, so the reproduction grows a fault
// model that lets the same count-based experiments answer: how do the
// matching schemes and triggers degrade when PEs fail, and what does recovery
// cost in the currency (cycles, phases, efficiency) the repo already reports?
//
// A FaultPlan is a schedule of events anchored to the *simulated* expand-cycle
// clock — event k fires after `cycle` node-expansion cycles have executed.
// Because the simulated clock is a pure function of (problem, P, config), a
// seeded plan replays bit-identically for any host thread count: fault runs
// keep the repo's determinism contract.
//
// Event semantics (implemented by lb::Engine, see docs/robustness.md):
//   kKillPe       the PE leaves the machine.  Its unexpanded stack intervals
//                 are journaled and re-donated to survivors in a *recovery
//                 phase*, costed in MachineClock like a load-balancing phase.
//   kRevivePe     the PE rejoins with an empty stack (an idle receiver).
//   kDropMessages the next `count` matched donor->receiver transfers are
//                 silently lost by the router.  The work stays on the donor
//                 (detected retransmission at the next phase), so the drop
//                 wastes lb cost but never loses a subtree.
#pragma once

#include <cstdint>
#include <vector>

#include "simd/bitplane.hpp"

namespace simdts::fault {

/// The dead-lane plane: one bit per lane, set while the lane is killed.
/// Packed so the engine's expansion loop can test 64 lanes with one word
/// load (a clear word means "no dead lane in this block" — the unarmed and
/// fault-free paths never take a per-lane branch).  Owned by lb::Engine;
/// the alias lives here so fault tooling and the engine agree on the type.
using DeadLanePlane = simd::BitPlane;

enum class FaultKind : std::uint8_t {
  kKillPe,
  kRevivePe,
  kDropMessages,
};

[[nodiscard]] const char* to_string(FaultKind k);

struct FaultEvent {
  /// Fires once this many node-expansion cycles have executed on the engine
  /// the plan is armed on (cumulative across IDA* iterations).
  std::uint64_t cycle = 0;
  FaultKind kind = FaultKind::kKillPe;
  /// Target PE (kKillPe / kRevivePe).
  std::uint32_t pe = 0;
  /// Number of transfer messages to drop (kDropMessages).
  std::uint32_t count = 0;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

/// An immutable, cycle-ordered schedule of fault events.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Takes ownership of `events` and stable-sorts them by cycle (events at
  /// the same cycle keep their given order).
  explicit FaultPlan(std::vector<FaultEvent> events);

  /// A seeded random plan: `kills` kill events of distinct PEs on a machine
  /// of size `p`, at cycles uniformly drawn from [first_cycle, last_cycle].
  /// The generator is SplitMix64 with modulo reduction — deterministic across
  /// platforms and standard libraries, unlike std::uniform_int_distribution.
  /// Requires kills < p (killing every PE can never complete a search).
  [[nodiscard]] static FaultPlan random_kills(std::uint64_t seed,
                                              std::uint32_t p,
                                              std::uint32_t kills,
                                              std::uint64_t first_cycle,
                                              std::uint64_t last_cycle);

  [[nodiscard]] const std::vector<FaultEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }

  /// Rejects plans that reference PEs outside a machine of size `p`, kill
  /// more distinct PEs than the machine has, or schedule an event at cycle 0
  /// (faults fire *after* an expansion cycle; cycle 0 never arrives).
  /// Throws simdts::ConfigError with the offending event's index.
  void validate(std::uint32_t p) const;

  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;

 private:
  std::vector<FaultEvent> events_;
};

/// SplitMix64 step: advances `state` and returns the next output.  The
/// repo's one seeded generator — random fault and service plans, puzzle
/// scrambles, TSP instances, MIMD random polling and the retry jitter all
/// draw from it.  Inline, so the MIMD engine's per-steal draw costs no call.
[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

/// One entry of the engine's lost-work journal: at simulated cycle `cycle`,
/// PE `pe` died holding `nodes` unexpanded stack intervals, which were
/// re-donated to survivors in `rounds` recovery transfer rounds.  The engine
/// checks the conservation invariant (every journaled node re-donated
/// exactly once) against this journal at the end of each iteration.
struct RecoveryRecord {
  std::uint64_t cycle = 0;
  std::uint32_t pe = 0;
  std::uint64_t nodes = 0;
  std::uint64_t rounds = 0;

  friend bool operator==(const RecoveryRecord&,
                         const RecoveryRecord&) = default;
};

}  // namespace simdts::fault
