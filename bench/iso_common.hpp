// Shared harness for the isoefficiency figures (4 and 7).
//
// Checkpoint/resume: each grid journals completed (P, W) cells to
// $SIMDTS_OUT_DIR/<name>_grid.journal as it runs.  Re-running the driver
// with --resume replays the journaled cells and computes only the missing
// ones; determinism makes the resumed CSVs byte-identical to an
// uninterrupted run.  The journal is deleted once the experiment's CSVs are
// safely written.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "analysis/report.hpp"
#include "analysis/table.hpp"
#include "common.hpp"
#include "common/parse.hpp"
#include "runtime/journal.hpp"
#include "synthetic/workloads.hpp"

namespace simdts::bench {

/// Machine-size grid for the isoefficiency figures.
inline std::vector<std::uint32_t> iso_machine_sizes() {
  if (analysis::quick_mode()) return {256, 512, 1024};
  return {512, 1024, 2048, 4096, 8192};
}

/// Workload ladder (quick mode drops the largest trees).
inline std::vector<synthetic::SyntheticWorkload> iso_ladder() {
  const auto all = synthetic::iso_workloads();
  std::vector<synthetic::SyntheticWorkload> out(all.begin(), all.end());
  if (analysis::quick_mode() && out.size() > 5) {
    out.resize(5);
  }
  return out;
}

/// Target efficiencies for the extracted curves.
inline std::vector<double> iso_targets() { return {0.50, 0.65, 0.80}; }

/// Machine sizes for the opt-in mega-P sweeps (--mega): the memory-bounded
/// stack + summary-plane machinery makes 2^20 lanes practical, and these
/// sweeps are the standing proof.  Run under *new* experiment names so the
/// plain figures' CSVs stay byte-identical.
inline std::vector<std::uint32_t> mega_machine_sizes() {
  return {1u << 14, 1u << 17, 1u << 20};
}

/// True when the command line asks for the mega-P extension sweeps.
inline bool parse_mega_flag(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--mega") == 0) return true;
  }
  return false;
}

/// Runs the grid for one scheme — every (P, W) cell concurrently via the
/// parallel sweep runner inside analysis::run_grid — then prints the raw
/// grid, the extracted curves in the paper's (P log P, W) coordinates, and a
/// straight-line verdict; emits CSVs under the given name.  Results are
/// bit-identical to the serial run for any host thread count.
inline void run_iso_experiment(const std::string& name,
                               const lb::SchemeConfig& cfg,
                               bool resume = false,
                               std::vector<std::uint32_t> sizes = {}) {
  std::cout << "--- " << name << " (" << cfg.name() << ") ---\n";
  if (sizes.empty()) sizes = iso_machine_sizes();
  const auto ladder = iso_ladder();
  analysis::GridOptions options;
  options.journal_path = journal_path(name + "_grid");
  options.resume = resume;
  // Watchdog prior: generous multiple of the whole ladder's serial work, so
  // only a genuinely wedged simulation trips it.
  options.cycle_budget = positive_or<std::uint64_t>(
      std::getenv("SIMDTS_CYCLE_BUDGET"), 500000000);
  if (resume) {
    std::cout << "[resume] replaying completed cells from "
              << options.journal_path << '\n';
  }
  const analysis::GridResult grid =
      analysis::run_grid(cfg, ladder, sizes, simd::cm2_cost_model(), options);

  analysis::Table raw({"P", "W", "E", "Nexpand", "Nlb"});
  for (const auto& pt : grid.points) {
    raw.row()
        .add(static_cast<std::uint64_t>(pt.p))
        .add(pt.w)
        .add(pt.efficiency, 3)
        .add(pt.expand_cycles)
        .add(pt.lb_phases);
  }
  std::cout << raw << '\n';
  analysis::emit_csv(name + "_grid", raw);

  const auto targets = iso_targets();
  const auto curves = analysis::extract_curves(grid, targets);
  analysis::Table curve_table(
      {"E", "P", "PlogP", "W-needed", "W/(PlogP)", "note"});
  for (const auto& curve : curves) {
    for (const auto& pt : curve.points) {
      curve_table.row()
          .add(curve.efficiency, 2)
          .add(static_cast<std::uint64_t>(pt.p))
          .add(pt.p_log_p, 0)
          .add(pt.w_needed, 0)
          .add(pt.w_needed / pt.p_log_p, 1)
          .add(pt.extrapolated ? "extrapolated" : "");
    }
  }
  std::cout << curve_table;
  for (const auto& curve : curves) {
    const analysis::LineFit fit = analysis::fit_p_log_p(curve);
    std::cout << "E=" << analysis::format_double(curve.efficiency, 2)
              << ": least-squares W ~ " << analysis::format_double(fit.slope, 1)
              << " * P log P, max relative deviation "
              << analysis::format_double(100.0 * fit.max_rel_deviation, 0)
              << "% ("
              << (fit.max_rel_deviation < 0.5 ? "near-linear in P log P"
                                              : "super-linear growth")
              << ")\n";
  }
  std::cout << '\n';
  analysis::emit_csv(name + "_curves", curve_table);
  // The CSVs are on disk; the checkpoint has served its purpose.
  runtime::Journal(options.journal_path).remove();
}

}  // namespace simdts::bench
