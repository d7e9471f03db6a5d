// Pool calibration for the benchmark's seeded workloads.
//
// A random-walk 15-puzzle instance or a synthetic tree seed changes the
// searched tree size W by orders of magnitude, and every host time the
// benchmark reports scales with W.  So a benchmark seed selects an input
// from a pool of seeds whose serial W lies within a narrow band around the
// workload's reference size (pools.hpp).  This tool scans seeds and prints
// every candidate inside the band, ready to paste into pools.hpp.
//
//   perfbench_calibrate puzzle <seed_base> <count> [tolerance]
//   perfbench_calibrate synthetic <ladder_index> <seed_base> <count> [tolerance]
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "puzzle/workloads.hpp"
#include "search/serial.hpp"
#include "synthetic/calibrate.hpp"
#include "synthetic/workloads.hpp"

namespace {

bool in_band(std::uint64_t w, std::uint64_t target, double tolerance) {
  return std::abs(static_cast<double>(w) / static_cast<double>(target) - 1.0) <=
         tolerance;
}

int calibrate_puzzle(std::uint64_t seed_base, std::uint64_t count,
                     double tolerance) {
  using namespace simdts;
  const puzzle::PuzzleWorkload& ref = puzzle::paper_workloads().back();
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(ref.serial_total) * (1.0 + tolerance));
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t seed = seed_base + i;
    const puzzle::FifteenPuzzle problem(
        puzzle::random_walk(seed, ref.walk_steps));
    const search::SerialIdaResult r = search::serial_ida(problem, budget);
    if (r.solution_bound == search::kUnbounded) continue;
    if (!in_band(r.total_expanded, ref.serial_total, tolerance)) continue;
    std::cout << "    {" << seed << ", " << r.total_expanded << ", "
              << r.final_expanded << ", " << r.solution_bound << ", "
              << r.goals_found << "},\n"
              << std::flush;
  }
  return 0;
}

int calibrate_synthetic(std::size_t index, std::uint64_t seed_base,
                        std::uint64_t count, double tolerance) {
  using namespace simdts;
  const auto ladder = synthetic::iso_workloads();
  if (index >= ladder.size()) {
    std::cerr << "error: ladder index out of range\n";
    return 2;
  }
  const synthetic::SyntheticWorkload& ref = ladder[index];
  const auto budget = static_cast<std::uint64_t>(
      static_cast<double>(ref.w) * (1.0 + tolerance));
  for (std::uint64_t i = 0; i < count; ++i) {
    synthetic::Params params = ref.params;
    params.seed = seed_base + i;
    const std::uint64_t w = synthetic::measure(params, budget);
    if (!in_band(w, ref.w, tolerance)) continue;
    std::cout << "    {" << params.seed << ", " << w << "},\n" << std::flush;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "puzzle" && argc >= 4) {
    return calibrate_puzzle(std::stoull(argv[2]), std::stoull(argv[3]),
                            argc > 4 ? std::stod(argv[4]) : 0.01);
  }
  if (mode == "synthetic" && argc >= 5) {
    return calibrate_synthetic(std::stoul(argv[2]), std::stoull(argv[3]),
                               std::stoull(argv[4]),
                               argc > 5 ? std::stod(argv[5]) : 0.01);
  }
  std::cerr << "usage: perfbench_calibrate puzzle <seed_base> <count> [tol]\n"
               "       perfbench_calibrate synthetic <ladder_index> "
               "<seed_base> <count> [tol]\n";
  return 2;
}
