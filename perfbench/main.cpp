// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tmp-dir <dir>] [--spans-out <file>]
//   perfbench --pin [--tmp-dir <dir>]
//
// Workloads: puzzle-p8192, fig4-sweep, service-trace (NOTES.md).
// With --trace 0 the run reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of a traced run.  Every simulated output is checked;
// the last line of standard output is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit code is non-zero if any check failed.  --pin prints the
// pinned values of pools.hpp, recomputed.
#include <cmath>
#include <cstdio>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace {

using perfbench::Options;
using perfbench::Report;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <puzzle-p8192|fig4-sweep|"
               "service-trace> --seed <n> --seconds <s> --trace <0|1> "
               "[--tmp-dir <dir>] [--spans-out <file>]\n"
               "       perfbench --pin [--tmp-dir <dir>]\n");
  return 2;
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const auto& m = r.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(),
                std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool pin = false;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_value = i + 1 < argc;
      if (arg == "--pin") {
        pin = true;
      } else if (arg == "--workload" && has_value) {
        opt.workload = argv[++i];
        have_workload = true;
      } else if (arg == "--seed" && has_value) {
        opt.seed = std::stoull(argv[++i]);
      } else if (arg == "--seconds" && has_value) {
        opt.seconds = std::stod(argv[++i]);
      } else if (arg == "--trace" && has_value) {
        opt.trace = std::stoi(argv[++i]) != 0;
      } else if (arg == "--tmp-dir" && has_value) {
        opt.tmp_dir = argv[++i];
      } else if (arg == "--spans-out" && has_value) {
        opt.spans_out = argv[++i];
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!(opt.seconds > 0)) return usage();

  try {
    if (pin) {
      perfbench::print_pins();
      perfbench::print_service_pins(opt);
      return 0;
    }
    if (!have_workload) return usage();
    Report report;
    if (opt.workload == "puzzle-p8192") {
      perfbench::run_puzzle(opt, report);
    } else if (opt.workload == "fig4-sweep") {
      perfbench::run_fig4(opt, report);
    } else if (opt.workload == "service-trace") {
      perfbench::run_service(opt, report);
    } else {
      return usage();
    }
    std::printf("workload=%s seed=%llu trace=%d\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.trace ? 1 : 0);
    for (const auto& line : report.info) std::printf("  %s\n", line.c_str());
    for (const auto& m : report.metrics) {
      std::printf("  %-34s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("  failed_share = %.6g (%llu of %llu checked outputs)\n",
                report.attempted == 0
                    ? 0.0
                    : static_cast<double>(report.failed) /
                          static_cast<double>(report.attempted),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.attempted));
    print_json(report);
    return report.failed == 0 && report.attempted > 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
