#include "simd/machine.hpp"

#include <sstream>

#include "common/error.hpp"

namespace simdts::simd {

MachineClock& MachineClock::operator+=(const MachineClock& o) {
  elapsed += o.elapsed;
  calc_time += o.calc_time;
  idle_time += o.idle_time;
  lb_time += o.lb_time;
  recovery_time += o.recovery_time;
  expand_cycles += o.expand_cycles;
  lb_rounds += o.lb_rounds;
  recovery_rounds += o.recovery_rounds;
  nodes_expanded += o.nodes_expanded;
  return *this;
}

Machine::Machine(std::uint32_t p, CostModel cost, ThreadPool* pool)
    : p_(p), cost_(cost), pool_(pool) {
  if (p_ == 0) {
    throw ConfigError("Machine: need at least one PE", "P=0");
  }
  cost_.validate();
}

namespace {

/// Out of line and cold so the per-cycle charge keeps only the range test.
[[noreturn, gnu::cold, gnu::noinline]] void throw_lane_counts(
    std::uint32_t working, std::uint32_t alive, std::uint32_t p,
    std::uint64_t cycle) {
  std::ostringstream os;
  os << "Machine: working/alive lane counts out of range (working="
     << working << " alive=" << alive << " P=" << p << ")";
  throw EngineError(os.str(), "-", p, cycle);
}

}  // namespace

void Machine::charge_expand_cycle(std::uint32_t working, std::uint32_t alive) {
  if (alive == 0) alive = p_;
  if (working > alive || alive > p_) [[unlikely]] {
    throw_lane_counts(working, alive, p_, clock_.expand_cycles);
  }
  const double t = cost_.t_expand;
  clock_.elapsed += t;
  clock_.calc_time += static_cast<double>(working) * t;
  clock_.idle_time += static_cast<double>(alive - working) * t;
  clock_.expand_cycles += 1;
  clock_.nodes_expanded += working;
}

void Machine::charge_lb_round() {
  const double t = cost_.lb_round_cost(p_);
  clock_.elapsed += t;
  clock_.lb_time += static_cast<double>(p_) * t;
  clock_.lb_rounds += 1;
}

void Machine::charge_neighbor_round() {
  const double t = cost_.neighbor_cost();
  clock_.elapsed += t;
  clock_.lb_time += static_cast<double>(p_) * t;
  clock_.lb_rounds += 1;
}

void Machine::charge_recovery_round() {
  const double t = cost_.lb_round_cost(p_);
  clock_.elapsed += t;
  clock_.recovery_time += static_cast<double>(p_) * t;
  clock_.recovery_rounds += 1;
}

}  // namespace simdts::simd
