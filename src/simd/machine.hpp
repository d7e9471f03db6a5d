// The emulated lock-step SIMD machine.
//
// The Machine owns the global simulated clock and the phase-level cost
// accounting of a run: how much simulated time was spent in node-expansion
// cycles, how much of that was wasted on idle PEs, and how much went to
// load-balancing rounds.  It deliberately knows nothing about tree search —
// the load-balancing engine drives it by reporting, each lock-step phase, how
// many PEs did useful work.
//
// Accounting follows Section 3.1 of the paper exactly:
//   T_calc = (nodes expanded) * t_expand           (useful computation)
//   T_idle = sum over cycles of (alive - working) * t_expand
//   T_lb   = (transfer rounds) * lb_round_cost * P
//   P * T_par = T_calc + T_idle + T_lb,   E = T_calc / (P * T_par)
//
// Fault extension: when PEs are killed mid-run (see fault::FaultPlan), a
// degraded machine charges idle time only for *surviving* lanes, and the
// recovery phases that re-donate a dead PE's work are costed like
// load-balancing rounds in a separate T_recover bucket, so efficiency tables
// extend naturally with a fault axis.  With no faults, alive == P and
// T_recover == 0: the accounting below is bit-identical to the fault-free
// formulas.
#pragma once

#include <cstdint>

#include "simd/cost_model.hpp"

namespace simdts::simd {

/// Aggregated simulated-time accounting for one run (one IDA* iteration or a
/// whole search).
struct MachineClock {
  double elapsed = 0.0;        ///< simulated wall time T_par
  double calc_time = 0.0;      ///< useful work, T_calc
  double idle_time = 0.0;      ///< wasted expansion-cycle time, T_idle
  double lb_time = 0.0;        ///< P * (time spent in lb rounds), T_lb
  double recovery_time = 0.0;  ///< P * (time spent re-donating dead PEs' work)
  std::uint64_t expand_cycles = 0;   ///< node-expansion cycles executed
  std::uint64_t lb_rounds = 0;       ///< work-transfer rounds executed
  std::uint64_t recovery_rounds = 0; ///< fault-recovery transfer rounds
  std::uint64_t nodes_expanded = 0;  ///< total useful node expansions

  /// E = T_calc / (T_calc + T_idle + T_lb + T_recover).
  [[nodiscard]] double efficiency() const {
    const double total = calc_time + idle_time + lb_time + recovery_time;
    return total > 0.0 ? calc_time / total : 1.0;
  }

  MachineClock& operator+=(const MachineClock& o);

  /// Exact (bitwise double) equality — the determinism tests assert that
  /// simulated time never depends on host threading.
  friend bool operator==(const MachineClock&, const MachineClock&) = default;

  /// Difference of two snapshots (for measuring one run against a shared
  /// machine clock).
  [[nodiscard]] friend MachineClock operator-(MachineClock a,
                                              const MachineClock& b) {
    a.elapsed -= b.elapsed;
    a.calc_time -= b.calc_time;
    a.idle_time -= b.idle_time;
    a.lb_time -= b.lb_time;
    a.recovery_time -= b.recovery_time;
    a.expand_cycles -= b.expand_cycles;
    a.lb_rounds -= b.lb_rounds;
    a.recovery_rounds -= b.recovery_rounds;
    a.nodes_expanded -= b.nodes_expanded;
    return a;
  }
};

class Machine {
 public:
  /// A machine of `p` PEs with the given cost model.  Throws
  /// simdts::ConfigError on a zero-size machine or a cost model with
  /// non-positive expansion cost / negative transfer costs.
  Machine(std::uint32_t p, CostModel cost);

  [[nodiscard]] std::uint32_t size() const noexcept { return p_; }
  [[nodiscard]] const CostModel& cost() const noexcept { return cost_; }

  /// Charges one lock-step node-expansion cycle in which `working` PEs popped
  /// and expanded a node and the other alive - working surviving PEs idled
  /// through the cycle.  `alive == 0` means all P lanes survive (the
  /// fault-free machine); dead lanes contribute neither calc nor idle time.
  void charge_expand_cycle(std::uint32_t working, std::uint32_t alive = 0);

  /// Charges one load-balancing transfer round (matching setup + router
  /// transfer).  All P PEs pay for it: the machine is single-program.
  void charge_lb_round();

  /// Charges one nearest-neighbour transfer step (cheaper than a general
  /// router round; used by the Frye baseline).
  void charge_neighbor_round();

  /// Charges one fault-recovery transfer round: re-donating a dead PE's
  /// journaled stack intervals to survivors costs a router round, booked in
  /// the clock's recovery bucket so fault overhead is separable from regular
  /// load balancing.
  void charge_recovery_round();

  /// Cost one lb round would have, without charging it (the L estimate for
  /// the dynamic triggers is based on the *previous* phase's measured cost,
  /// but the first phase needs a prior).
  [[nodiscard]] double lb_round_cost() const {
    return cost_.lb_round_cost(p_);
  }

  [[nodiscard]] const MachineClock& clock() const noexcept { return clock_; }
  void reset_clock() { clock_ = MachineClock{}; }

 private:
  std::uint32_t p_;
  CostModel cost_;
  MachineClock clock_;
};

}  // namespace simdts::simd
