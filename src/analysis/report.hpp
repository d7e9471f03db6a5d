// Experiment report helpers shared by the bench binaries: a standard header,
// paper-vs-measured framing, and CSV artifact emission.
#pragma once

#include <string>

#include "analysis/table.hpp"

namespace simdts::analysis {

/// Prints a bench banner: experiment id, paper reference, and what "shape
/// holds" means for it.
void print_banner(const std::string& experiment, const std::string& paper_ref,
                  const std::string& shape_note);

/// Directory for CSV artifacts: $SIMDTS_OUT_DIR or "bench_out".
[[nodiscard]] std::string out_dir();

/// Writes a table as CSV under out_dir()/<name>.csv and reports the path to
/// stdout (best-effort: failure to write is reported but not fatal).
void emit_csv(const std::string& name, const Table& table);

/// True when $SIMDTS_QUICK is set (reduced-scale bench runs).
[[nodiscard]] bool quick_mode();

}  // namespace simdts::analysis
