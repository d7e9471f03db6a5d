#include "analysis/report.hpp"

#include <cstdlib>
#include <iostream>

namespace simdts::analysis {

void print_banner(const std::string& experiment, const std::string& paper_ref,
                  const std::string& shape_note) {
  std::cout << "==============================================================="
               "=\n"
            << experiment << '\n'
            << "Paper: " << paper_ref << '\n'
            << "Shape expectation: " << shape_note << '\n'
            << "==============================================================="
               "=\n";
}

std::string out_dir() {
  if (const char* dir = std::getenv("SIMDTS_OUT_DIR"); dir != nullptr) {
    return dir;
  }
  return "bench_out";
}

void emit_csv(const std::string& name, const Table& table) {
  const std::string path = out_dir() + "/" + name + ".csv";
  if (write_file(path, table.to_csv())) {
    std::cout << "[csv] " << path << '\n';
  } else {
    std::cout << "[csv] failed to write " << path << '\n';
  }
}

bool quick_mode() { return std::getenv("SIMDTS_QUICK") != nullptr; }

}  // namespace simdts::analysis
