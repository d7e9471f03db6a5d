// The per-layer metric set of a traced run.  Every workload reports every
// metric, in this order; a layer the workload does not reach reports 0 (see
// NOTES.md for which workload stresses and which bypasses each layer).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Layers {
  // domain: the timing decorator passed to the engine as its Problem
  double expand_calls = 0;
  double children = 0;
  double expand_s = 0;
  double expand_in_lb_s = 0;  ///< part of expand_s inside lb.iteration spans
  // lb: Engine::run_iteration spans, Machine + Engine constructors, and the
  // IterationStats counts
  double iterations = 0;
  double expand_cycles = 0;
  double lb_phases = 0;
  double lb_rounds = 0;
  double transfers = 0;
  double sim_efficiency = 0;
  double iteration_s = 0;
  double construct_s = 0;
  // simd / lb.matching probes at the workload's P
  double rendezvous_flat_ns = 0;
  double rendezvous_hier_ns = 0;
  double match_gp_ns = 0;
  // search: SchemeConfig::track_stack_memory
  double stack_peak_bytes = 0;
  double stack_avg_bytes_per_lane = 0;
  // runtime: one span per SweepRunner task
  double tasks = 0;
  double task_busy_s = 0;
  double max_task_s = 0;
  double tail_idle_s = 0;
  double imbalance = 0;
  // service: ServiceCounters of the cold pass, pass spans, standalone calls
  double requests = 0;
  double admitted = 0;
  double ok = 0;
  double cache_hits = 0;  ///< of the warm pass
  double budget_exhausted = 0;
  double rejected = 0;
  double shed = 0;
  double degraded = 0;
  double cold_pass_s = 0;
  double warm_pass_s = 0;
  double admission_s = 0;
  double cache_insert_us = 0;
  double cache_lookup_us = 0;
  // trace: the traced body's wall time and how it is accounted for
  double traced_wall_s = 0;
  double host_threads = 1;
  std::vector<std::pair<std::string, double>> self_times;  ///< per layer
};

/// Residual of the accounting: host-thread time of the traced body that no
/// layer's self time (nor the runtime's tail idle) covers.
inline double residual_s(const Layers& l) {
  double covered = l.tail_idle_s;
  for (const auto& [layer, t] : l.self_times) covered += t;
  return l.host_threads * l.traced_wall_s - covered;
}

inline void emit_layers(Report& r, const Layers& l, double untraced_wall_s) {
  const auto per = [](double num, double den, double scale) {
    return den > 0 ? num / den * scale : 0.0;
  };
  const double lb_self = std::max(0.0, l.iteration_s - l.expand_in_lb_s);
  r.add("domain.expand_calls", l.expand_calls, "count");
  r.add("domain.children", l.children, "count");
  r.add("domain.expand_s", l.expand_s, "s");
  r.add("domain.ns_per_expand", per(l.expand_s, l.expand_calls, 1e9), "ns");
  r.add("lb.iterations", l.iterations, "count");
  r.add("lb.expand_cycles", l.expand_cycles, "count");
  r.add("lb.lb_phases", l.lb_phases, "count");
  r.add("lb.lb_rounds", l.lb_rounds, "count");
  r.add("lb.transfers", l.transfers, "count");
  r.add("lb.sim_efficiency", l.sim_efficiency, "ratio");
  r.add("lb.iteration_s", l.iteration_s, "s");
  r.add("lb.self_s", lb_self, "s");
  r.add("lb.self_ns_per_cycle", per(lb_self, l.expand_cycles, 1e9), "ns");
  r.add("lb.construct_s", l.construct_s, "s");
  r.add("simd.rendezvous_flat_ns", l.rendezvous_flat_ns, "ns");
  r.add("simd.rendezvous_hier_ns", l.rendezvous_hier_ns, "ns");
  r.add("lb.match_gp_ns", l.match_gp_ns, "ns");
  r.add("search.stack_peak_bytes", l.stack_peak_bytes, "bytes");
  r.add("search.stack_avg_bytes_per_lane", l.stack_avg_bytes_per_lane, "bytes");
  r.add("runtime.tasks", l.tasks, "count");
  r.add("runtime.task_busy_s", l.task_busy_s, "s");
  r.add("runtime.max_task_s", l.max_task_s, "s");
  r.add("runtime.tail_idle_s", l.tail_idle_s, "s");
  r.add("runtime.imbalance", l.imbalance, "ratio");
  r.add("service.requests", l.requests, "count");
  r.add("service.admitted", l.admitted, "count");
  r.add("service.ok", l.ok, "count");
  r.add("service.cache_hits", l.cache_hits, "count");
  r.add("service.budget_exhausted", l.budget_exhausted, "count");
  r.add("service.rejected", l.rejected, "count");
  r.add("service.shed", l.shed, "count");
  r.add("service.degraded", l.degraded, "count");
  r.add("service.cold_pass_s", l.cold_pass_s, "s");
  r.add("service.warm_pass_s", l.warm_pass_s, "s");
  r.add("service.admission_s", l.admission_s, "s");
  r.add("service.cache_insert_us", l.cache_insert_us, "us");
  r.add("service.cache_lookup_us", l.cache_lookup_us, "us");
  r.add("trace.wall_s", l.traced_wall_s, "s");
  r.add("trace.overhead_s", l.traced_wall_s - untraced_wall_s, "s");
  r.add("trace.residual_s", residual_s(l), "s");
}

}  // namespace perfbench
