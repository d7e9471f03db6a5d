// Run metrics: everything the paper's tables report, plus the fault and
// recovery counters of the robustness extension (docs/robustness.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "search/problem.hpp"
#include "simd/machine.hpp"

namespace simdts::lb {

/// Per-cycle activity snapshot (Figure 8 traces).
struct TracePoint {
  std::uint32_t working;     ///< PEs that expanded a node this cycle
  std::uint32_t splittable;  ///< PEs that were busy in the paper's sense
  std::uint32_t alive = 0;   ///< surviving lanes (== P with no faults)

  friend bool operator==(const TracePoint&, const TracePoint&) = default;
};

/// Metrics of one bounded parallel DFS (one IDA* iteration).
struct IterationStats {
  search::Bound bound = 0;
  std::uint64_t nodes_expanded = 0;  ///< pops (== serial W of the iteration)
  std::uint64_t goals_found = 0;
  search::Bound next_bound = search::kUnbounded;
  std::uint64_t expand_cycles = 0;   ///< N_expand
  std::uint64_t lb_phases = 0;       ///< N_lb (phases)
  std::uint64_t lb_rounds = 0;       ///< *N_lb (transfer rounds)
  std::uint64_t transfers = 0;       ///< individual donor->receiver transfers
  // Fault / recovery counters (all zero unless a FaultPlan was armed).
  std::uint64_t pes_killed = 0;       ///< kill events applied this iteration
  std::uint64_t pes_revived = 0;      ///< revive events applied
  std::uint64_t nodes_recovered = 0;  ///< stack nodes re-donated from dead PEs
  std::uint64_t recovery_phases = 0;  ///< kill events that required recovery
  std::uint64_t recovery_rounds = 0;  ///< recovery transfer rounds charged
  std::uint64_t messages_dropped = 0; ///< lb transfers lost by the router
  simd::MachineClock clock;          ///< simulated-time accounting
  std::vector<TracePoint> trace;     ///< per-cycle activity, if recorded

  /// E = T_calc / (T_calc + T_idle + T_lb + T_recover), Section 3.1.
  [[nodiscard]] double efficiency() const { return clock.efficiency(); }

  IterationStats& operator+=(const IterationStats& o);

  /// Field-by-field (and bitwise for the clock) equality; the determinism
  /// tests assert fault runs are identical across host thread counts.
  friend bool operator==(const IterationStats&,
                         const IterationStats&) = default;
};

/// Metrics of a full parallel IDA* run (all iterations).
struct RunStats {
  search::Bound solution_bound = search::kUnbounded;
  std::uint64_t goals_found = 0;  ///< goals at the solution threshold
  IterationStats total;           ///< aggregated over all iterations
  IterationStats final_iteration;
  std::vector<IterationStats> iterations;

  [[nodiscard]] double efficiency() const { return total.efficiency(); }

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// One-line human-readable summary.
[[nodiscard]] std::string summarize(const IterationStats& s);
[[nodiscard]] std::string summarize(const RunStats& s);

/// Exact single-line serialization for sweep journals (checkpoint/resume of
/// long table sweeps): every integer verbatim, every double as its IEEE-754
/// bit pattern, so a decoded record is bit-identical to the original and a
/// resumed sweep prints byte-identical CSVs.  The per-cycle trace is NOT
/// journaled (resumable sweeps run with record_trace off); decoding yields an
/// empty trace.
[[nodiscard]] std::string encode_journal(const IterationStats& s);

/// Inverse of encode_journal(), read strictly (common/parse.hpp).  Returns
/// false (leaving `out` untouched) on any malformed or truncated payload — a
/// torn journal line is skipped, and the task is simply re-run.
[[nodiscard]] bool decode_journal(std::string_view payload,
                                  IterationStats& out);

}  // namespace simdts::lb
