// Mega-P smoke: a quick P = 2^20 run that must stay cheap, deterministic,
// and memory-bounded — the CI face of the mega-P machinery (memory-bounded
// CompactStack lanes + hierarchical census/rendezvous).
//
// Three hard gates, each a non-zero exit:
//  1. Determinism: the same 2^20-lane iteration run again — with a
//     FaultPlan armed (kills across the whole lane range, one revival) and
//     without — produces bit-identical IterationStats on both stack
//     representations.
//  2. Representation transparency: CompactStack results equal WorkStack
//     results (the delta encoding may never change a simulated count).
//  3. Memory: peak RSS of the whole process stays under a fixed ceiling.
//     The default 256 MB leaves ~5x headroom over the measured ~51 MB peak,
//     so noise never trips it, while a regression of kind — any accidental
//     O(P) per-lane cost, e.g. a kilobyte of retained stack per lane at
//     P = 2^20 — blows straight through it (SIMDTS_MEGA_RSS_MB overrides).
//
// Runs in tens of seconds; wired into the CI perf-smoke job.
#include <sys/resource.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "analysis/report.hpp"
#include "fault/fault.hpp"
#include "lb/engine.hpp"
#include "synthetic/tree.hpp"

namespace {

using namespace simdts;

/// ~600k nodes: a few dozen expand cycles at P = 2^20, nearly all lanes
/// idle — the sparse regime the summary planes exist for.
synthetic::Params tree_params() { return {42, 4, 0.6, 16}; }

long peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  // Linux reports ru_maxrss in KiB.
  return usage.ru_maxrss / 1024;
}

template <typename EngineT>
lb::IterationStats run_once(const synthetic::Tree& tree, std::uint32_t p,
                            const fault::FaultPlan* plan) {
  simd::Machine machine(p, simd::cm2_cost_model());
  EngineT engine(tree, machine, lb::gp_static(0.9));
  if (plan != nullptr) engine.arm_faults(plan);
  return engine.run_iteration(search::kUnbounded);
}

}  // namespace

int main() {
  analysis::print_banner(
      "Mega-P smoke — P = 2^20 lanes, quick and deterministic",
      "repo infrastructure (no paper counterpart)",
      "bit-identical across reruns and both stack representations, faults "
      "armed and unarmed, under a fixed RSS ceiling");

  const std::uint32_t p = 1u << 20;
  const synthetic::Tree tree(tree_params());
  // Kills span the whole index range — the top word region is where a
  // narrowed lane index would alias a low lane — plus one revival.
  const fault::FaultPlan plan({
      {3, fault::FaultKind::kKillPe, 0, 0},
      {4, fault::FaultKind::kKillPe, p - 1, 0},
      {5, fault::FaultKind::kKillPe, 70001, 0},
      {7, fault::FaultKind::kRevivePe, 70001, 0},
  });

  const lb::IterationStats base =
      run_once<lb::Engine<synthetic::Tree>>(tree, p, nullptr);
  const lb::IterationStats base_faulted =
      run_once<lb::Engine<synthetic::Tree>>(tree, p, &plan);
  if (base.nodes_expanded == 0 || base_faulted.pes_killed != 3 ||
      base_faulted.pes_revived != 1) {
    std::cout << "FATAL: the smoke scenario degenerated (nodes="
              << base.nodes_expanded << ", killed=" << base_faulted.pes_killed
              << ", revived=" << base_faulted.pes_revived
              << ") — the gates below would be vacuous.\n";
    return 1;
  }

  bool identical = true;
  const auto check = [&](const char* label, const lb::IterationStats& got,
                         const lb::IterationStats& want) {
    const bool ok = got == want;
    std::cout << "  " << label << ": "
              << (ok ? "bit-identical" : "DIVERGED") << '\n';
    identical = identical && ok;
  };
  check("full    unarmed",
        run_once<lb::Engine<synthetic::Tree>>(tree, p, nullptr), base);
  check("full    faults ",
        run_once<lb::Engine<synthetic::Tree>>(tree, p, &plan), base_faulted);
  check("compact unarmed",
        run_once<lb::CompactEngine<synthetic::Tree>>(tree, p, nullptr), base);
  check("compact faults ",
        run_once<lb::CompactEngine<synthetic::Tree>>(tree, p, &plan),
        base_faulted);
  if (!identical) {
    std::cout << "\nFATAL: a P = 2^20 run diverged across reruns, fault "
                 "arming, or stack representation.\n";
    return 1;
  }

  long ceiling_mb = 256;
  if (const char* env = std::getenv("SIMDTS_MEGA_RSS_MB"); env != nullptr) {
    ceiling_mb = std::atol(env);
  }
  const long rss_mb = peak_rss_mb();
  std::cout << "\npeak RSS " << rss_mb << " MB (ceiling " << ceiling_mb
            << " MB)\n";
  if (rss_mb > ceiling_mb) {
    std::cout << "FATAL: P = 2^20 is no longer memory-bounded.\n";
    return 1;
  }
  std::cout << "mega-P smoke: PASS (" << base.nodes_expanded
            << " nodes, 4 runs bit-identical, RSS within ceiling)\n";
  return 0;
}
