// SimdSan: shadow instrumentation for the determinism disciplines.
//
// Every number the reproduction reports is a function of simulated cycle
// counts that must stay bit-identical across host thread counts.  The
// invariants that guarantee this — tail-bits-zero flag planes, dead-lane
// stack hygiene, single-donor rendezvous matching, incremental-census/
// flag-plane agreement, sorted fault plans — were previously enforced only
// by golden-CSV diffs after the fact.
// SimdSan checks them at the access: instrumented call sites in
// simd/bitplane, search/work_stack, lb/engine, lb/matching, and fault/
// consult a shadow state and throw a typed simdts::SanitizerError (naming the
// broken invariant) the moment a discipline is violated.
//
// Cost model: everything here is compiled in only under SIMDTS_SANITIZE (a
// CMake option, OFF by default).  In a default build this header contributes
// the constexpr `kCompiledIn = false` and empty macros — no symbols, no
// branches, provably zero cost (the lint.sanitizer_zero_cost ctest runs `nm`
// over libsimdts.a to prove it, and Sanitizer.CompiledInFlagMatchesBuild
// checks the flag in both build flavors).  In a sanitize build the checks can
// additionally be disarmed at run time (set_armed(false)), so one binary can
// show that arming them changes no simulated result.
//
// Layering: this module sits between common/ and simd/ so that the substrate
// itself can hook it.  It therefore speaks only in raw words and lane
// indices — no BitPlane, no Pair, no engine types.
#pragma once

#include <cstddef>
#include <cstdint>

#ifdef SIMDTS_SANITIZE
#include <string>
#endif

namespace simdts::san {

/// True when the library was built with -DSIMDTS_SANITIZE=ON.  Available in
/// both build flavors so a test can check which flavor it was built in.
#ifdef SIMDTS_SANITIZE
inline constexpr bool kCompiledIn = true;
#else
inline constexpr bool kCompiledIn = false;
#endif

#ifdef SIMDTS_SANITIZE

/// Runtime master switch.  Armed by default; a test disarms it to show that
/// the checks change no simulated result on the same binary.
[[nodiscard]] bool armed() noexcept;
void set_armed(bool value) noexcept;

/// Test-only mutation hooks.  Each flag makes one instrumented call site
/// deliberately violate its discipline so the mutation-test suite can prove
/// the sanitizer catches it (and names the right invariant).  All false in
/// normal operation, including under ctest's positive tests.
struct MutationHooks {
  bool expand_dead_lane = false;     // expansion ignores the dead plane
  bool donate_from_dead = false;     // rendezvous pairs a dead donor
  bool duplicate_match_pair = false; // same donor matched twice in one round
  bool corrupt_tail = false;         // set a bit past size() in a flag plane
  bool drop_census_delta = false;    // lose one lane's census update
  bool skip_plan_sort = false;       // fault plan left in submission order

  void reset() noexcept { *this = MutationHooks{}; }
};
[[nodiscard]] MutationHooks& mutation() noexcept;

// ---------------------------------------------------------------------------
// Lane bounds ("lane-bounds") and stack reads ("stack-underflow")

/// Throws SanitizerError("lane-bounds") unless i < lanes.
void check_lane_index(std::size_t i, std::size_t lanes, const char* where);

/// Throws SanitizerError("stack-underflow") when an operation needing `need`
/// nodes runs against a stack holding `have`.
void check_stack_read(std::size_t have, std::size_t need, const char* op);

// ---------------------------------------------------------------------------
// Tail bits ("tail-bits")

/// Verifies bits at positions >= lanes in a packed plane are zero.  Throws
/// SanitizerError("tail-bits") naming the plane otherwise.
void verify_tail_zero(const std::uint64_t* words, std::size_t word_count,
                      std::size_t lanes, const char* plane_name);

// ---------------------------------------------------------------------------
// Census agreement ("census-divergence")

/// Compares an incrementally maintained census against a reference recount.
/// Throws SanitizerError("census-divergence") when they disagree.
void check_census(std::uint64_t incremental, std::uint64_t reference,
                  const char* quantity);

// ---------------------------------------------------------------------------
// Dead-lane discipline ("dead-lane")
//
// Shadow copy of the fault-dead plane, maintained by the engine's
// kill/revive path.  Expansion and donation sites ask it whether a lane is
// allowed to participate — catching reads from (or donations out of) a
// killed lane's stack even when the packed dead-mask test was bypassed.

class DeadLaneShadow {
 public:
  void resize(std::size_t lanes);
  void clear() noexcept;
  void mark_dead(std::size_t lane);
  void mark_alive(std::size_t lane);
  [[nodiscard]] bool is_dead(std::size_t lane) const noexcept;

  /// Throws SanitizerError("dead-lane") when `lane` is dead.  `action` names
  /// the attempted operation ("expand", "donate", ...).
  void check_alive(std::size_t lane, const char* action) const;

 private:
  std::string dead_;  // one byte per lane; values 0/1
};

// ---------------------------------------------------------------------------
// Single-donor matching ("double-donation")

/// Verifies a rendezvous round's donor list contains no repeats: `donors`
/// holds `n` donor lane indices from one match.  Throws
/// SanitizerError("double-donation") on the first repeated donor.
void verify_unique_donors(const std::uint32_t* donors, std::size_t n);

// ---------------------------------------------------------------------------
// Fault-plan ordering ("plan-order")

/// Verifies the event cycle sequence is non-decreasing (the ordering the
/// engine's due-event cursor depends on).  Throws
/// SanitizerError("plan-order") at the first inversion.
void verify_plan_cycles(const std::uint64_t* cycles, std::size_t n);

#endif  // SIMDTS_SANITIZE

}  // namespace simdts::san

// Instrumented call sites in otherwise-noexcept hot paths use this in place
// of `noexcept`: sanitize builds must be able to throw SanitizerError out of
// them, default builds keep the noexcept contract (and codegen) unchanged.
#ifdef SIMDTS_SANITIZE
#define SIMDTS_SAN_NOEXCEPT
#else
#define SIMDTS_SAN_NOEXCEPT noexcept
#endif

// Bounds check for per-lane accessors: active only under SIMDTS_SANITIZE,
// expands to nothing (not even a branch) otherwise.
#ifdef SIMDTS_SANITIZE
#define SIMDTS_SAN_LANE_CHECK(i, lanes, where) \
  ::simdts::san::check_lane_index((i), (lanes), (where))
#else
#define SIMDTS_SAN_LANE_CHECK(i, lanes, where) \
  do {                                         \
  } while (false)
#endif
