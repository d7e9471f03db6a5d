// An asynchronous MIMD work-stealing comparator.
//
// The paper's headline conclusion (Section 9) is that the SIMD schemes'
// scalability is "no worse than that of the best load balancing schemes on
// MIMD architectures".  This module provides the other side of that
// comparison: a time-stepped simulator of receiver-initiated work stealing
// as analysed by Kumar, Grama & Rao — Global Round Robin (GRR),
// Asynchronous Round Robin (ARR), and Random Polling (RP) victim selection.
//
// Model: every processor has its own clock, discretised in node-expansion
// steps.  Busy processors expand one node per step.  An idle processor
// sends a steal request to a victim chosen by the policy; the request takes
// `latency` steps to arrive, the victim — *without stopping the rest of the
// machine*, the defining MIMD advantage — answers with half its stack (or a
// reject) which takes another `latency` steps to return.  Serving a request
// costs the victim one expansion step.  Rejected thieves immediately retry
// with the next victim.
//
// The simulation is deterministic: RP draws victims from per-processor
// counters hashed with splitmix64, nothing depends on host timing.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "search/problem.hpp"
#include "search/splitter.hpp"
#include "search/work_stack.hpp"

namespace simdts::mimd {

enum class StealPolicy : std::uint8_t {
  kGlobalRoundRobin,  ///< one shared victim counter (GRR)
  kAsyncRoundRobin,   ///< a private victim counter per thief (ARR)
  kRandomPolling,     ///< uniformly random victim per attempt (RP)
};

[[nodiscard]] const char* to_string(StealPolicy p);

struct MimdConfig {
  StealPolicy policy = StealPolicy::kRandomPolling;
  /// One-way message latency in expansion-step units (>= 1).
  std::uint32_t latency = 1;
  search::SplitStrategy split = search::SplitStrategy::kHalf;
  std::uint64_t seed = 1;
};

struct MimdStats {
  std::uint64_t nodes_expanded = 0;
  std::uint64_t goals_found = 0;
  std::uint64_t steps = 0;            ///< parallel time in expansion steps
  std::uint64_t steal_requests = 0;   ///< requests sent
  std::uint64_t steals = 0;           ///< successful transfers
  std::uint64_t rejections = 0;       ///< requests that found no work
  std::uint64_t service_steps = 0;    ///< victim steps lost to serving
  search::Bound next_bound = search::kUnbounded;

  /// E = useful work / (P * elapsed): idle steps, service steps and
  /// in-flight waiting all count against the denominator.
  [[nodiscard]] double efficiency(std::uint32_t p) const {
    const double total = static_cast<double>(p) * static_cast<double>(steps);
    return total > 0.0 ? static_cast<double>(nodes_expanded) / total : 1.0;
  }
};

template <search::TreeProblem P>
class MimdEngine {
 public:
  using Node = typename P::Node;

  MimdEngine(const P& problem, std::uint32_t p, MimdConfig cfg)
      : problem_(problem), p_(p), cfg_(cfg) {
    if (p_ == 0) throw ConfigError("MimdEngine: need >= 1 PE", "P=0");
    if (cfg_.latency == 0) {
      throw ConfigError("MimdEngine: latency must be >= 1", "latency=0");
    }
  }

  /// One bounded exhaustive DFS (the same semantics as the SIMD engine's
  /// run_iteration): root on processor 0, runs until the whole space is
  /// searched, returns the stats.
  MimdStats run_iteration(search::Bound bound) {
    MimdStats stats;
    search::NextBound next;

    std::vector<search::WorkStack<Node>> stacks(p_);
    stacks[0].push(problem_.root());

    struct Pe {
      bool waiting = false;       ///< steal request in flight
      bool serving = false;       ///< loses this step to request service
      std::uint32_t rr = 0;       ///< ARR victim counter
      std::uint64_t rng = 0;      ///< RP state
    };
    std::vector<Pe> pes(p_);
    for (std::uint32_t i = 0; i < p_; ++i) {
      pes[i].rr = (i + 1) % p_;
      pes[i].rng = cfg_.seed * 0x9E3779B97F4A7C15ULL + i;
    }
    std::uint32_t grr = 0;  // shared GRR counter

    struct Message {
      std::uint32_t to;
      std::uint32_t from;
      bool is_request;
      std::vector<Node> payload;  // response only
    };
    // Ring buffer of per-step delivery lists.
    const std::uint32_t horizon = cfg_.latency + 1;
    std::vector<std::vector<Message>> ring(horizon);
    std::uint64_t in_flight = 0;

    auto send = [&](Message m) {
      ring[(stats.steps + cfg_.latency) % horizon].push_back(std::move(m));
      ++in_flight;
    };
    auto pick_victim = [&](std::uint32_t self) -> std::uint32_t {
      std::uint32_t v = self;
      switch (cfg_.policy) {
        case StealPolicy::kGlobalRoundRobin:
          v = grr;
          grr = (grr + 1) % p_;
          break;
        case StealPolicy::kAsyncRoundRobin:
          v = pes[self].rr;
          pes[self].rr = (pes[self].rr + 1) % p_;
          break;
        case StealPolicy::kRandomPolling:
          v = static_cast<std::uint32_t>(fault::splitmix64(pes[self].rng) %
                                         p_);
          break;
      }
      if (v == self) v = (v + 1) % p_;
      return v;
    };

    std::vector<Node> children;
    // Live node count (stacks + donated payloads in transit): the global
    // termination criterion.  A real machine needs a termination-detection
    // protocol (e.g. Dijkstra's token) because idle thieves keep polling
    // empty victims forever; the simulator sees the global state directly.
    std::uint64_t live = 1;
    for (;;) {
      // 1. Deliver this step's messages.
      auto& slot = ring[stats.steps % horizon];
      std::vector<Message> arrivals;
      arrivals.swap(slot);
      for (auto& m : arrivals) {
        --in_flight;
        if (m.is_request) {
          auto& victim = stacks[m.to];
          Message resp{m.from, m.to, false, {}};
          if (victim.splittable()) {
            search::split(victim, cfg_.split, resp.payload);
            pes[m.to].serving = true;  // the victim loses one step
            ++stats.service_steps;
            ++stats.steals;
          } else {
            ++stats.rejections;
          }
          send(std::move(resp));
        } else {
          pes[m.to].waiting = false;
          if (!m.payload.empty()) {
            search::receive(stacks[m.to], m.payload);
          }
        }
      }

      // 2. Everyone takes a step: busy PEs expand, idle ones beg.
      std::uint64_t working = 0;
      for (std::uint32_t i = 0; i < p_; ++i) {
        auto& st = stacks[i];
        if (pes[i].serving) {
          pes[i].serving = false;
          if (!st.empty()) ++working;  // still busy, just lost the step
          continue;
        }
        if (!st.empty()) {
          ++working;
          Node n = st.pop();
          ++stats.nodes_expanded;
          --live;
          if (problem_.is_goal(n)) {
            ++stats.goals_found;
          } else {
            children.clear();
            problem_.expand(n, bound, children, next);
            live += children.size();
            for (auto& c : children) st.push(std::move(c));
          }
        } else if (!pes[i].waiting && p_ > 1 && live > 0) {
          pes[i].waiting = true;
          ++stats.steal_requests;
          send(Message{pick_victim(i), i, true, {}});
        }
      }
      // Once no node exists anywhere — in a stack or in a donated payload
      // in transit — the search is over; outstanding beg messages can only
      // produce rejections and are dropped with the machine.  The final
      // pass still counts as a step when it expanded something.
      if (live == 0) {
        if (working > 0) ++stats.steps;
        break;
      }
      ++stats.steps;
    }

    if (next.has_value()) stats.next_bound = next.value();
    return stats;
  }

 private:
  const P& problem_;
  std::uint32_t p_;
  MimdConfig cfg_;
};

}  // namespace simdts::mimd
