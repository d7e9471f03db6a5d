// simdlint v3: cross-TU call-graph effect analysis.
//
// The lockstep determinism contract is a *reachability* property: nothing a
// parallel-region root can reach — across any number of translation units —
// may allocate, lock, do host I/O, read nondeterminism sources, throw
// untyped, or recurse unboundedly.  Token rules (D1–D4) only see single
// files; this layer closes the gap statically:
//
//   1. extract_functions (symbols.hpp) recovers every function definition
//      with its qualified name, outgoing calls, and intrinsic effect uses;
//   2. calls are resolved across the whole parsed file set — qualified
//      names by component-suffix match, member/bare calls by last name
//      (explicit-receiver calls never resolve to the caller itself, so
//      `problem.expand(...)` inside a forwarding `expand` wrapper is not fake
//      recursion); unresolved calls fall back to intrinsic tables
//      (push_back/resize → allocates, fetch_add/wait → locks, ...) and are
//      otherwise treated as effect-free (optimistic: external code is
//      trusted, repo code is analyzed);
//   3. effects propagate bottom-up over the call graph to a fixpoint;
//      call-graph cycles (SCCs) seed `unbounded-recursion`; `try` in a body
//      stops throw propagation from callees (heuristic, documented);
//   4. region roots come from tools/simdlint/effects.conf (`region
//      lockstep <suffix>`) and inline SIMDLINT-REGION markers (see
//      lexer.hpp for the comment syntax); rules fire when a root's effect
//      set intersects its forbidden set, with a call-path witness
//      ("expand_cycle -> stage_children -> ls.children.push_back
//      [allocates]") in the message.
//
// Escape hatches, each with teeth:
//   * `assume <effect> <suffix>` in the conf file strips a trusted effect
//     from a function's exported summary (e.g. the thread-pool dispatch IS
//     the lockstep cycle barrier, so its `locks` stops there); stale when
//     the function no longer has the effect → "stale-assume".
//   * an inline SIMDLINT-EFFECT-OK marker absolves intrinsic uses and call
//     edges on its own or the next line (amortized growth into
//     persistent-capacity scratch); stale when it absolves nothing →
//     "stale-effect-ok".
//   * a conf `region` entry matching no function, or an inline REGION
//     marker attached to no definition → "stale-region".
// Stale findings mirror unused-suppression: never baselineable, and the
// conf-wide checks are skipped under --changed-files / explicit-path runs
// (the full-tree `ctest -R lint.simdlint` gate stays authoritative).
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "simdlint/lexer.hpp"
#include "simdlint/rules.hpp"

namespace simdlint {

struct RegionDecl {
  std::string kind;     // "lockstep" or "serial"
  std::string pattern;  // qualified-name suffix, e.g. "Engine::expand_cycle"
  std::size_t line = 0;  // conf line, for stale findings
  std::string text;      // conf line text, for excerpts
};

struct AssumeDecl {
  std::string effect;   // effect stripped from the matching summaries
  std::string pattern;  // qualified-name suffix
  std::size_t line = 0;
  std::string text;
};

struct ConfError {
  std::string message;
  std::size_t line = 0;
  std::string text;
};

/// `source <qualified-suffix>`: a function whose return value is
/// partition-derived (worker counts, lane indices).  Consumed by the taint
/// analysis (taint.hpp); matches both repo definitions and external calls
/// as written (`std::thread::hardware_concurrency`).
struct SourceDecl {
  std::string pattern;
  std::size_t line = 0;
  std::string text;
};

/// `sink member <name>` (a result-bearing member field) or
/// `sink <qualified-suffix>` (a result-emitting function: any call passing
/// it a tainted argument is a sink hit).
struct SinkDecl {
  std::string pattern;
  bool member = false;
  std::size_t line = 0;
  std::string text;
};

/// `merge <kind> <qualified-suffix>`: an order-independent reduction point
/// that launders partition taint.  Only kind "commutative" is justified;
/// any other kind parses but fires merge-unjustified.
struct MergeDecl {
  std::string kind;
  std::string pattern;
  std::size_t line = 0;
  std::string text;
};

struct EffectConfig {
  std::string path;  // repo-relative conf path, for findings
  std::vector<RegionDecl> regions;
  std::vector<AssumeDecl> assumes;
  std::vector<SourceDecl> sources;
  std::vector<SinkDecl> sinks;
  std::vector<MergeDecl> merges;
  std::vector<ConfError> errors;
};

/// Parse an effects.conf document.  Grammar (one directive per line, `#`
/// comments): `region <lockstep|serial> <qualified-suffix>`,
/// `assume <effect> <qualified-suffix>`, `source <qualified-suffix>`,
/// `sink <qualified-suffix>`, `sink member <name>`, and
/// `merge <kind> <qualified-suffix>`.
EffectConfig parse_effects_conf(std::string path, const std::string& text);

/// The cross-file effect rules, for --list-rules and the docs.
std::vector<std::pair<std::string, std::string>> effect_rule_catalog();

/// Run the whole analysis over the parsed file set.  `subset` marks
/// --changed-files / explicit-path runs: conf-wide staleness checks are
/// skipped there because the conf legitimately names functions outside the
/// subset.  Findings are not SIMDLINT-ALLOW-suppressible (reachability has
/// no single owning line); region/noexcept findings respect the baseline,
/// stale findings do not.
std::vector<Finding> find_effect_findings(const std::vector<SourceFile>& files,
                                          const EffectConfig& config,
                                          bool subset);

}  // namespace simdlint
