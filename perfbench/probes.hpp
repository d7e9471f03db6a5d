// Standalone probes of the load-balancing primitives at a workload's P:
// simd::rendezvous_into without and with a SummaryPlane, and the GP
// Matcher::match_into the engine calls.  Probe inputs are random planes whose
// donor / receiver densities come from the traced run's per-cycle activity
// (SchemeConfig::record_trace), so the probe sees the occupancy the workload
// produces.  Flat and hierarchical rendezvous must produce the same pairs on
// every input.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "harness.hpp"
#include "lb/matching.hpp"
#include "lb/metrics.hpp"
#include "simd/bitplane.hpp"
#include "simd/rendezvous.hpp"
#include "simd/summary.hpp"

namespace perfbench {

struct Density {
  double donors = 0;     ///< splittable share of the lanes
  double receivers = 0;  ///< empty share of the lanes
};

struct ProbeResult {
  double flat_ns = 0;
  double hier_ns = 0;
  double match_ns = 0;
  std::size_t inputs = 0;
  std::size_t mismatches = 0;  ///< inputs where flat and hier pairs differ
};

/// Densities of `count` cycles spread evenly over a recorded activity trace.
inline std::vector<Density> densities_from_trace(
    const std::vector<simdts::lb::TracePoint>& trace, std::size_t count) {
  std::vector<Density> out;
  if (trace.empty()) return out;
  for (std::size_t k = 0; k < count; ++k) {
    const auto& t = trace[(2 * k + 1) * trace.size() / (2 * count)];
    const double alive = t.alive;
    out.push_back(Density{t.splittable / alive, (alive - t.working) / alive});
  }
  return out;
}

/// Nanoseconds per call of `fn`, repeated until at least 2 ms have passed.
template <typename F>
double ns_per_call(F&& fn) {
  std::size_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0;
  do {
    for (int i = 0; i < 8; ++i) fn();
    calls += 8;
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < 2e-3);
  return elapsed / static_cast<double>(calls) * 1e9;
}

inline ProbeResult probe_lb(std::uint32_t p, const std::vector<Density>& inputs,
                            std::uint64_t seed) {
  using namespace simdts;
  ProbeResult res;
  std::vector<double> flat, hier, match;
  std::uint64_t state = seed;
  std::vector<simd::Pair> a, b;
  for (const Density& d : inputs) {
    simd::BitPlane donors(p), receivers(p);
    for (std::uint32_t i = 0; i < p; ++i) {
      const double u =
          static_cast<double>(fault::splitmix64(state) >> 11) * 0x1.0p-53;
      if (u < d.donors) {
        donors.set(i);
      } else if (u < d.donors + d.receivers) {
        receivers.set(i);
      }
    }
    simd::SummaryPlane donor_sum, receiver_sum;
    donor_sum.assign_for_lanes(p);
    receiver_sum.assign_for_lanes(p);
    donor_sum.rebuild(donors);
    receiver_sum.rebuild(receivers);
    const auto start = static_cast<simd::PeIndex>(fault::splitmix64(state) % p);
    const std::size_t all = static_cast<std::size_t>(-1);

    simd::rendezvous_into(donors, receivers, start, all, a);
    simd::rendezvous_into(donors, donor_sum, receivers, receiver_sum, start,
                          all, b);
    ++res.inputs;
    if (a != b) ++res.mismatches;

    flat.push_back(ns_per_call(
        [&] { simd::rendezvous_into(donors, receivers, start, all, a); }));
    hier.push_back(ns_per_call([&] {
      simd::rendezvous_into(donors, donor_sum, receivers, receiver_sum, start,
                            all, b);
    }));
    lb::Matcher matcher(lb::MatchScheme::kGP);
    match.push_back(ns_per_call([&] {
      matcher.match_into(donors, donor_sum, receivers, receiver_sum, all, a);
    }));
  }
  res.flat_ns = median(flat);
  res.hier_ns = median(hier);
  res.match_ns = median(match);
  return res;
}

}  // namespace perfbench
