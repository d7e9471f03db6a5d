// The linter that guards the determinism invariant needs its own guardrails:
// every rule is exercised with true positives AND the tricky negatives that
// would make it cry wolf — banned tokens inside strings/comments/raw
// strings, member calls that shadow banned names, declarations that look
// like calls.  Suppression and baseline semantics are pinned too, since CI
// exit codes hang off them.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "simdlint/baseline.hpp"
#include "simdlint/effects.hpp"
#include "simdlint/include_graph.hpp"
#include "simdlint/lexer.hpp"
#include "simdlint/report.hpp"
#include "simdlint/rules.hpp"
#include "simdlint/symbols.hpp"
#include "simdlint/taint.hpp"

namespace {

using simdlint::Finding;

std::vector<Finding> lint(const std::string& path, const std::string& code) {
  static const auto rules = simdlint::default_rules();
  return simdlint::lint_file(simdlint::SourceFile::parse(path, code), rules);
}

/// Findings that would fail the build (not suppressed, not baselined).
std::vector<Finding> active(const std::string& path, const std::string& code) {
  std::vector<Finding> out;
  for (auto& f : lint(path, code)) {
    if (!f.suppressed) out.push_back(std::move(f));
  }
  return out;
}

bool has_rule(const std::vector<Finding>& fs, const std::string& rule) {
  for (const auto& f : fs) {
    if (f.rule == rule) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Lexer: prose never trips code rules
// ---------------------------------------------------------------------------

TEST(SimdlintLexer, BannedTokensInCommentsAndStringsAreIgnored) {
  const std::string code = R"--(
// rand() in a comment is fine, as is std::random_device.
/* block comment: srand(42); assert(false); */
const char* msg = "call rand() and assert() and abort()";
char c = '"';  // a quote char literal must not open a string
int separators = 1'000'000;
)--";
  EXPECT_TRUE(active("src/lb/foo.cpp", code).empty());
}

TEST(SimdlintLexer, RawStringsAreBlankedButCodeAfterIsStillSeen) {
  const std::string code = R"--(
const char* fixture = R"(int x = rand(); assert(x);)";
int y = std::rand();
)--";
  const auto fs = active("src/lb/foo.cpp", code);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "no-rand");
  EXPECT_EQ(fs[0].line, 3u);
}

TEST(SimdlintLexer, PreprocessorLinesAreExempt) {
  const std::string code = "#include <random>\n#include <ctime>\n";
  EXPECT_TRUE(active("src/lb/foo.cpp", code).empty());
}

TEST(SimdlintLexer, LineTextTrimsAndMatchesLineNumbers) {
  const auto f = simdlint::SourceFile::parse("src/a.cpp",
                                             "int a;\n   int b;  \nint c;\n");
  EXPECT_EQ(f.line_text(2), "int b;");
}

// ---------------------------------------------------------------------------
// D1: no-rand
// ---------------------------------------------------------------------------

TEST(SimdlintNoRand, FlagsRandSrandAndRandomDevice) {
  EXPECT_TRUE(has_rule(active("src/a.cpp", "int x = std::rand();\n"),
                       "no-rand"));
  EXPECT_TRUE(has_rule(active("bench/b.cpp", "void f() { srand(42); }\n"),
                       "no-rand"));
  EXPECT_TRUE(has_rule(
      active("tests/t.cpp", "std::random_device rd;\nint s = rd();\n"),
      "no-rand"));
}

TEST(SimdlintNoRand, SeededEnginesAndMemberNamesAreFine) {
  EXPECT_TRUE(active("src/a.cpp", "std::mt19937 rng(1234);\n").empty());
  EXPECT_TRUE(active("src/a.cpp", "int x = obj.rand();\n").empty());
}

// ---------------------------------------------------------------------------
// D1/D3: no-wall-clock
// ---------------------------------------------------------------------------

TEST(SimdlintWallClock, FlagsChronoClocksAndTimeCallsInSrc) {
  EXPECT_TRUE(has_rule(
      active("src/lb/a.cpp",
             "auto t0 = std::chrono::steady_clock::now();\n"),
      "no-wall-clock"));
  EXPECT_TRUE(has_rule(active("src/simd/m.cpp", "auto t = time(nullptr);\n"),
                       "no-wall-clock"));
  EXPECT_TRUE(has_rule(active("src/simd/m.cpp", "auto t = std::time(0);\n"),
                       "no-wall-clock"));
}

TEST(SimdlintWallClock, BenchRuntimeAndSimulatedClockAreExempt) {
  const std::string wall = "auto t0 = std::chrono::steady_clock::now();\n";
  EXPECT_TRUE(active("bench/perf.cpp", wall).empty());
  EXPECT_TRUE(active("src/runtime/sweep.cpp", wall).empty());
  // Member access on the simulated clock and declarations are not calls.
  EXPECT_TRUE(active("src/lb/a.cpp", "double e = machine.time();\n").empty());
  EXPECT_TRUE(active("src/lb/a.cpp", "MachineClock clock(3);\n").empty());
  EXPECT_TRUE(active("src/lb/a.cpp", "double lb_time = 0.0;\n").empty());
}

// ---------------------------------------------------------------------------
// D1: no-unordered-io-iter
// ---------------------------------------------------------------------------

namespace fixtures {

const char* kIterInCsvWriter = R"--(
#include <unordered_map>
void write_csv(std::ostream& os) {
  std::unordered_map<int, int> counts;
  for (const auto& kv : counts) {
    os << kv.first;
  }
}
)--";

const char* kBeginInJournal = R"--(
void append_journal() {
  std::unordered_set<int> seen;
  auto it = seen.begin();
  journal.write(*it);
}
)--";

const char* kIterWithoutOutput = R"--(
int sum_all() {
  std::unordered_map<int, int> counts;
  int s = 0;
  for (const auto& kv : counts) s += kv.second;
  return s;
}
)--";

const char* kOrderedIterInWriter = R"--(
void write_csv(std::ostream& os) {
  std::map<int, int> counts;
  for (const auto& kv : counts) os << kv.first;
}
)--";

}  // namespace fixtures

TEST(SimdlintUnorderedIter, FlagsIterationInOutputWritingFunctions) {
  EXPECT_TRUE(has_rule(active("src/lb/metrics.cpp", fixtures::kIterInCsvWriter),
                       "no-unordered-io-iter"));
  EXPECT_TRUE(has_rule(
      active("src/runtime/journal.cpp", fixtures::kBeginInJournal),
      "no-unordered-io-iter"));
}

TEST(SimdlintUnorderedIter, MembershipUseAndOrderedMapsAreFine) {
  EXPECT_TRUE(active("src/lb/metrics.cpp", fixtures::kIterWithoutOutput)
                  .empty());
  EXPECT_TRUE(active("src/lb/metrics.cpp", fixtures::kOrderedIterInWriter)
                  .empty());
}

// ---------------------------------------------------------------------------
// D1: no-pointer-order
// ---------------------------------------------------------------------------

TEST(SimdlintPointerOrder, FlagsPointerComparatorsAndPointerHash) {
  const std::string sort_by_ptr = R"--(
void f(std::vector<Node*>& v) {
  std::sort(v.begin(), v.end(),
            [](const Node* a, const Node* b) { return a < b; });
}
)--";
  EXPECT_TRUE(has_rule(active("src/lb/a.cpp", sort_by_ptr),
                       "no-pointer-order"));
  EXPECT_TRUE(has_rule(
      active("src/lb/a.cpp", "std::hash<Node*> h;\nauto v = h(p);\n"),
      "no-pointer-order"));
}

TEST(SimdlintPointerOrder, ComparingFieldsThroughPointersIsFine) {
  const std::string sort_by_field = R"--(
void f(std::vector<Node*>& v) {
  std::sort(v.begin(), v.end(),
            [](const Node* a, const Node* b) { return a->id < b->id; });
}
)--";
  EXPECT_TRUE(active("src/lb/a.cpp", sort_by_field).empty());
  EXPECT_TRUE(
      active("src/lb/a.cpp",
             "void g(std::vector<int>& v) {\n"
             "  std::sort(v.begin(), v.end(),\n"
             "            [](const int a, const int b) { return a < b; });\n"
             "}\n")
          .empty());
}

// ---------------------------------------------------------------------------
// D2: typed-errors
// ---------------------------------------------------------------------------

TEST(SimdlintTypedErrors, FlagsAssertAbortExitAndBareStdExceptions) {
  EXPECT_TRUE(has_rule(active("src/lb/a.cpp", "void f() { assert(x); }\n"),
                       "typed-errors"));
  EXPECT_TRUE(has_rule(active("src/lb/a.cpp", "void f() { std::abort(); }\n"),
                       "typed-errors"));
  EXPECT_TRUE(has_rule(active("src/lb/a.cpp", "void f() { exit(1); }\n"),
                       "typed-errors"));
  EXPECT_TRUE(has_rule(
      active("src/lb/a.cpp",
             "void f() { throw std::runtime_error(\"boom\"); }\n"),
      "typed-errors"));
  EXPECT_TRUE(has_rule(
      active("src/lb/a.cpp",
             "void f() { throw std::invalid_argument(\"bad\"); }\n"),
      "typed-errors"));
}

TEST(SimdlintTypedErrors, TypedThrowsStaticAssertAndOtherScopesAreFine) {
  EXPECT_TRUE(active("src/lb/a.cpp",
                     "void f() { throw ConfigError(\"bad x\", \"x=2\"); }\n")
                  .empty());
  EXPECT_TRUE(
      active("src/lb/a.cpp", "static_assert(sizeof(int) == 4);\n").empty());
  // The rule is scoped to src/: tests and benches may assert freely,
  // and the error hierarchy itself derives from std::runtime_error.
  EXPECT_TRUE(active("tests/t.cpp", "void f() { assert(x); }\n").empty());
  EXPECT_TRUE(
      active("src/common/error.hpp",
             "#pragma once\nclass Error : public std::runtime_error {};\n")
          .empty());
}

// ---------------------------------------------------------------------------
// D3: lockstep-io
// ---------------------------------------------------------------------------

TEST(SimdlintLockstepIo, FlagsHostIoInSubstrateCode) {
  const std::string io_in_loop = R"--(
void expand_all() {
  for (std::uint32_t pe = 0; pe < p_; ++pe) {
    printf("lane %u\n", pe);
  }
}
)--";
  const auto fs = active("src/lb/engine_impl.cpp", io_in_loop);
  ASSERT_TRUE(has_rule(fs, "lockstep-io"));
  EXPECT_NE(fs[0].message.find("per-lane loop"), std::string::npos);
  EXPECT_TRUE(has_rule(
      active("src/simd/machine_impl.cpp", "void f() { std::cout << 1; }\n"),
      "lockstep-io"));
}

TEST(SimdlintLockstepIo, ReportingLayersMayDoHostIo) {
  const std::string io = "void f() { std::cout << 1; }\n";
  EXPECT_TRUE(active("src/analysis/report_impl.cpp", io).empty());
  EXPECT_TRUE(active("bench/common_impl.cpp", io).empty());
}

// ---------------------------------------------------------------------------
// D4: header hygiene
// ---------------------------------------------------------------------------

TEST(SimdlintHeaders, PragmaOnceRequiredInHeaders) {
  EXPECT_TRUE(has_rule(active("src/lb/a.hpp", "int f();\n"),
                       "header-pragma-once"));
  EXPECT_TRUE(has_rule(
      active("src/lb/a.hpp",
             "#ifndef A_HPP\n#define A_HPP\nint f();\n#endif\n"),
      "header-pragma-once"));
  // A leading comment block before the pragma is the repo idiom.
  EXPECT_TRUE(active("src/lb/a.hpp",
                     "// Doc comment.\n#pragma once\nint f();\n")
                  .empty());
  // Sources don't need the pragma.
  EXPECT_FALSE(has_rule(active("src/lb/a.cpp", "int f() { return 1; }\n"),
                        "header-pragma-once"));
}

TEST(SimdlintHeaders, UsingNamespaceAtNamespaceScopeInHeader) {
  EXPECT_TRUE(has_rule(
      active("src/lb/a.hpp", "#pragma once\nusing namespace std;\n"),
      "header-using-namespace"));
  EXPECT_TRUE(has_rule(
      active("src/lb/a.hpp",
             "#pragma once\nnamespace foo {\nusing namespace std;\n}\n"),
      "header-using-namespace"));
  // Function-local using directives and .cpp files are fine.
  EXPECT_TRUE(active("src/lb/a.hpp",
                     "#pragma once\ninline void f() {\n"
                     "  using namespace std;\n}\n")
                  .empty());
  EXPECT_TRUE(
      active("src/lb/a.cpp", "using namespace simdts;\n").empty());
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

TEST(SimdlintSuppression, SameLineAndPreviousLineDirectivesWork) {
  const auto same =
      lint("src/a.cpp", "int x = std::rand();  // SIMDLINT-ALLOW(no-rand)\n");
  ASSERT_EQ(same.size(), 1u);
  EXPECT_TRUE(same[0].suppressed);

  const auto prev = lint("src/a.cpp",
                         "// Seeded upstream.  SIMDLINT-ALLOW(no-rand)\n"
                         "int x = std::rand();\n");
  ASSERT_EQ(prev.size(), 1u);
  EXPECT_TRUE(prev[0].suppressed);
}

TEST(SimdlintSuppression, WildcardAndMultiRuleDirectives) {
  const auto star =
      lint("src/a.cpp", "int x = std::rand();  // SIMDLINT-ALLOW(*)\n");
  ASSERT_EQ(star.size(), 1u);
  EXPECT_TRUE(star[0].suppressed);

  const auto multi = lint(
      "src/lb/a.cpp",
      "void f() { assert(std::rand()); }"
      "  // SIMDLINT-ALLOW(no-rand, typed-errors)\n");
  ASSERT_EQ(multi.size(), 2u);
  EXPECT_TRUE(multi[0].suppressed);
  EXPECT_TRUE(multi[1].suppressed);
}

TEST(SimdlintSuppression, WrongRuleIdDoesNotSuppressAndIsReportedUnused) {
  const auto fs = lint(
      "src/a.cpp", "int x = std::rand();  // SIMDLINT-ALLOW(no-wall-clock)\n");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_TRUE(has_rule(fs, "no-rand"));
  EXPECT_TRUE(has_rule(fs, "unused-suppression"));
  for (const auto& f : fs) EXPECT_FALSE(f.suppressed);
}

TEST(SimdlintSuppression, StaleDirectiveIsItselfAFinding) {
  const auto fs =
      lint("src/a.cpp", "int x = 1;  // SIMDLINT-ALLOW(no-rand)\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "unused-suppression");
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

TEST(SimdlintBaseline, FingerprintsSurviveLineDriftAndCountOccurrences) {
  const auto before = active("src/a.cpp", "int x = std::rand();\n");
  const auto after =
      active("src/a.cpp", "int unrelated;\nint also;\nint x = std::rand();\n");
  ASSERT_EQ(before.size(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(simdlint::fingerprints(before)[0], simdlint::fingerprints(after)[0]);

  // Two identical offending lines must get distinct fingerprints.
  const auto twice =
      active("src/a.cpp", "int x = std::rand();\nint x = std::rand();\n");
  ASSERT_EQ(twice.size(), 2u);
  const auto fps = simdlint::fingerprints(twice);
  EXPECT_NE(fps[0], fps[1]);
}

TEST(SimdlintBaseline, RoundTripAcceptsOldFindingsAndCatchesNewOnes) {
  const auto old_findings = active("src/a.cpp", "int x = std::rand();\n");
  std::ostringstream baseline;
  simdlint::write_baseline(baseline, old_findings);
  std::istringstream in(baseline.str());
  const auto accepted = simdlint::load_baseline(in);
  ASSERT_EQ(accepted.size(), 1u);

  // The old finding matches; a new, different finding does not.
  const auto now = active("src/a.cpp",
                          "int x = std::rand();\nstd::random_device rd;\n");
  const auto fps = simdlint::fingerprints(now);
  ASSERT_EQ(now.size(), 2u);
  int matched = 0;
  for (const auto& fp : fps) matched += accepted.count(fp) > 0 ? 1 : 0;
  EXPECT_EQ(matched, 1);
}

// ---------------------------------------------------------------------------
// Reporters
// ---------------------------------------------------------------------------

TEST(SimdlintReport, JsonEscapesQuotesBackslashesAndControlChars) {
  EXPECT_EQ(simdlint::json_escape("a\"b\\c\nd\te"),
            "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(simdlint::json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(SimdlintReport, JsonReportCarriesSummaryAndFindings) {
  const auto fs =
      active("src/a.cpp", "int x = std::rand(); // \"quoted\" excerpt\n");
  std::ostringstream os;
  simdlint::json_report(os, fs, simdlint::tally(fs, 1));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"tool\": \"simdlint\""), std::string::npos);
  EXPECT_NE(out.find("\"rule\": \"no-rand\""), std::string::npos);
  EXPECT_NE(out.find("\"active\": 1"), std::string::npos);
  EXPECT_NE(out.find("\\\"quoted\\\""), std::string::npos);
}

TEST(SimdlintReport, TextReportSummarizesCounts) {
  const auto fs = active("src/a.cpp", "int x = std::rand();\n");
  std::ostringstream os;
  simdlint::text_report(os, fs, simdlint::tally(fs, 1), false);
  EXPECT_NE(os.str().find("simdlint: 1 finding"), std::string::npos);
  EXPECT_NE(os.str().find("[no-rand]"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Rule catalog sanity
// ---------------------------------------------------------------------------

TEST(SimdlintRules, CatalogCoversAllFourDisciplines) {
  const auto rules = simdlint::default_rules();
  std::vector<std::string> ids;
  ids.reserve(rules.size());
  for (const auto& r : rules) ids.push_back(r->id());
  for (const char* expected :
       {"no-rand", "no-wall-clock", "no-unordered-io-iter", "no-pointer-order",
        "typed-errors", "lockstep-io", "header-pragma-once",
        "header-using-namespace", "layering"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }
}

// ---------------------------------------------------------------------------
// Include graph: layering DAG and cycle detection (simdlint v2)
// ---------------------------------------------------------------------------

TEST(SimdlintIncludeGraph, QuotedIncludesAreExtractedFromRawOffsets) {
  // The lexer blanks string contents in `code`, so the extractor must read
  // the path back from `raw`; directives in comments must not count.
  const auto f = simdlint::SourceFile::parse("src/lb/x.hpp",
                                             "#pragma once\n"
                                             "#include \"lb/config.hpp\"\n"
                                             "  #  include \"lb/engine.hpp\"\n"
                                             "#include <vector>\n"
                                             "// #include \"fault/fault.hpp\"\n"
                                             "const char* s = \"#include "
                                             "\\\"analysis/model.hpp\\\"\";\n");
  const auto edges = simdlint::quoted_includes(f);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].target, "lb/config.hpp");
  EXPECT_EQ(edges[0].line, 2u);
  EXPECT_EQ(edges[1].target, "lb/engine.hpp");
  EXPECT_EQ(edges[1].line, 3u);
}

TEST(SimdlintIncludeGraph, ModuleRanksFormTheDocumentedDag) {
  EXPECT_LT(simdlint::module_rank("common"), simdlint::module_rank("sanitizer"));
  EXPECT_LT(simdlint::module_rank("sanitizer"), simdlint::module_rank("simd"));
  EXPECT_LT(simdlint::module_rank("simd"), simdlint::module_rank("search"));
  EXPECT_LT(simdlint::module_rank("search"), simdlint::module_rank("fault"));
  EXPECT_LT(simdlint::module_rank("fault"), simdlint::module_rank("puzzle"));
  // vec sits above the domains it batches and below the engine that
  // dispatches to it.
  EXPECT_LT(simdlint::module_rank("puzzle"), simdlint::module_rank("vec"));
  EXPECT_LT(simdlint::module_rank("synthetic"), simdlint::module_rank("vec"));
  EXPECT_LT(simdlint::module_rank("vec"), simdlint::module_rank("lb"));
  EXPECT_LT(simdlint::module_rank("lb"), simdlint::module_rank("baselines"));
  EXPECT_LT(simdlint::module_rank("baselines"),
            simdlint::module_rank("runtime"));
  EXPECT_LT(simdlint::module_rank("runtime"),
            simdlint::module_rank("analysis"));
  EXPECT_LT(simdlint::module_rank("runtime"),
            simdlint::module_rank("service"));
  // Sibling domain modules share a rank; unknown modules have none.
  EXPECT_EQ(simdlint::module_rank("queens"), simdlint::module_rank("tsp"));
  // service and analysis are top-rank siblings: neither may include the
  // other (the same-rank rule that keeps the domains independent).
  EXPECT_EQ(simdlint::module_rank("service"),
            simdlint::module_rank("analysis"));
  EXPECT_EQ(simdlint::module_rank("nonsense"), -1);
  EXPECT_EQ(simdlint::module_of("src/lb/engine.hpp"), "lb");
  EXPECT_EQ(simdlint::module_of("fault/fault.hpp"), "fault");
  EXPECT_EQ(simdlint::module_of("src/version.hpp"), "");
}

TEST(SimdlintLayering, UpRankIncludeIsAViolation) {
  const auto fs = active("src/simd/bad.hpp",
                         "#pragma once\n#include \"lb/engine.hpp\"\n");
  ASSERT_TRUE(has_rule(fs, "layering"));
}

TEST(SimdlintLayering, SiblingDomainIncludeIsAViolation) {
  const auto fs = active("src/puzzle/bad.hpp",
                         "#pragma once\n#include \"queens/queens.hpp\"\n");
  EXPECT_TRUE(has_rule(fs, "layering"));
}

TEST(SimdlintLayering, DownRankSameModuleAndOutsideSrcAreFine) {
  EXPECT_TRUE(active("src/lb/ok.hpp",
                     "#pragma once\n"
                     "#include \"common/error.hpp\"\n"
                     "#include \"fault/fault.hpp\"\n"
                     "#include \"lb/config.hpp\"\n"
                     "#include <vector>\n")
                  .empty());
  // The rule scopes to src/: tests and tools include whatever they need.
  EXPECT_TRUE(active("tests/test_x.cpp", "#include \"lb/engine.hpp\"\n")
                  .empty());
  // A bare filename is a same-directory include, not a module edge.
  EXPECT_TRUE(
      active("src/simd/ok.hpp", "#pragma once\n#include \"scan.hpp\"\n")
          .empty());
}

TEST(SimdlintLayering, SuppressionAppliesLikeAnyRule) {
  const auto fs = active("src/simd/bad.hpp",
                         "#pragma once\n"
                         "// SIMDLINT-ALLOW(layering): test fixture\n"
                         "#include \"lb/engine.hpp\"\n");
  EXPECT_FALSE(has_rule(fs, "layering"));
}

TEST(SimdlintIncludeGraph, CycleAcrossFilesIsReportedOnce) {
  std::vector<simdlint::SourceFile> files;
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/a.hpp", "#pragma once\n#include \"lb/b.hpp\"\n"));
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/b.hpp", "#pragma once\n#include \"lb/c.hpp\"\n"));
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/c.hpp", "#pragma once\n#include \"lb/a.hpp\"\n"));
  const auto findings = simdlint::find_include_cycles(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
  EXPECT_EQ(findings[0].path, "src/lb/a.hpp");  // smallest path anchors
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_NE(findings[0].message.find("src/lb/a.hpp -> src/lb/b.hpp -> "
                                     "src/lb/c.hpp -> src/lb/a.hpp"),
            std::string::npos)
      << findings[0].message;
}

TEST(SimdlintIncludeGraph, AcyclicGraphAndForeignTargetsReportNothing) {
  std::vector<simdlint::SourceFile> files;
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/a.hpp",
      "#pragma once\n#include \"lb/b.hpp\"\n#include <vector>\n"));
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/b.hpp", "#pragma once\n#include \"common/error.hpp\"\n"));
  // common/error.hpp is not in the set: no edge, no crash.
  EXPECT_TRUE(simdlint::find_include_cycles(files).empty());
}

TEST(SimdlintIncludeGraph, SelfIncludeIsACycle) {
  std::vector<simdlint::SourceFile> files;
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/a.hpp", "#pragma once\n#include \"lb/a.hpp\"\n"));
  const auto findings = simdlint::find_include_cycles(files);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "include-cycle");
}

TEST(SimdlintIncludeGraph, IncludesInsideIfZeroBlocksAreInvisible) {
  // `#if 0` is how this repo parks dead directives; counting those edges
  // would invent layering violations out of commented-out code.  Nested
  // conditionals inside the dead block must not resurrect it early, and
  // `#else` of the outer `#if 0` re-enables scanning.
  const auto f = simdlint::SourceFile::parse("src/lb/x.hpp",
                                             "#pragma once\n"
                                             "#if 0\n"
                                             "#include \"lb/dead.hpp\"\n"
                                             "#ifdef NESTED\n"
                                             "#include \"lb/nested.hpp\"\n"
                                             "#endif\n"
                                             "#include \"lb/also_dead.hpp\"\n"
                                             "#else\n"
                                             "#include \"lb/live.hpp\"\n"
                                             "#endif\n"
                                             "#include \"lb/after.hpp\"\n");
  const auto edges = simdlint::quoted_includes(f);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].target, "lb/live.hpp");
  EXPECT_EQ(edges[0].line, 9u);
  EXPECT_EQ(edges[1].target, "lb/after.hpp");
  EXPECT_EQ(edges[1].line, 11u);
}

TEST(SimdlintIncludeGraph, BackslashContinuedIncludesAreStillSeen) {
  // A backslash-newline is directive whitespace: the include must be
  // extracted and attributed to the line the `#` sits on.
  const auto f = simdlint::SourceFile::parse("src/lb/x.hpp",
                                             "#pragma once\n"
                                             "#include \\\n"
                                             "  \"lb/config.hpp\"\n"
                                             "# \\\n"
                                             "include \"lb/engine.hpp\"\n");
  const auto edges = simdlint::quoted_includes(f);
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0].target, "lb/config.hpp");
  EXPECT_EQ(edges[0].line, 2u);
  EXPECT_EQ(edges[1].target, "lb/engine.hpp");
  EXPECT_EQ(edges[1].line, 4u);
}

TEST(SimdlintIncludeGraph, SameBasenameInDifferentDirsResolvesByFullPath) {
  // Two headers named util.hpp: edges must bind to the full repo-relative
  // path, never the basename — basename matching would see a fake cycle
  // here the moment simd/util.hpp includes any third util.hpp.
  std::vector<simdlint::SourceFile> files;
  files.push_back(simdlint::SourceFile::parse(
      "src/lb/util.hpp", "#pragma once\n#include \"simd/util.hpp\"\n"));
  files.push_back(simdlint::SourceFile::parse(
      "src/simd/util.hpp", "#pragma once\n#include \"common/util.hpp\"\n"));
  EXPECT_TRUE(simdlint::find_include_cycles(files).empty());
  // The genuine cycle between the two same-name headers is still caught.
  files[1] = simdlint::SourceFile::parse(
      "src/simd/util.hpp", "#pragma once\n#include \"lb/util.hpp\"\n");
  EXPECT_EQ(simdlint::find_include_cycles(files).size(), 1u);
}

TEST(SimdlintLayering, ToolsOutrankEveryLibraryLayer) {
  // tools/ may depend on any src module; no src module may include tools/.
  EXPECT_FALSE(has_rule(
      active("tools/bench_x/x.cpp", "#include \"lb/engine.hpp\"\n"),
      "layering"));
  EXPECT_TRUE(has_rule(
      active("src/lb/bad.cpp", "#include \"tools/simdlint/lexer.hpp\"\n"),
      "layering"));
}

// ---------------------------------------------------------------------------
// Cross-TU effect analysis (simdlint v3): every rule gets a mutation test —
// the forbidden effect sits N calls deep and the witness must name every
// frame of the chain, across translation units.
// ---------------------------------------------------------------------------

std::vector<Finding> effects(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::string& conf, bool subset = false) {
  std::vector<simdlint::SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, code] : sources) {
    files.push_back(simdlint::SourceFile::parse(path, code));
  }
  return simdlint::find_effect_findings(
      files, simdlint::parse_effects_conf("tools/simdlint/effects.conf", conf),
      subset);
}

const Finding* only_rule(const std::vector<Finding>& fs,
                         const std::string& rule) {
  const Finding* hit = nullptr;
  for (const auto& f : fs) {
    if (f.rule != rule) continue;
    if (hit != nullptr) return nullptr;  // ambiguous: caller wants exactly one
    hit = &f;
  }
  return hit;
}

TEST(SimdlintEffects, AllocationThreeCallsDeepAcrossTusNamesEveryFrame) {
  const auto fs = effects(
      {{"src/lb/a.cpp",
        "namespace simdts::lb {\n"
        "void grow(std::vector<int>& v) { v.push_back(1); }\n"
        "void stage(std::vector<int>& v) { grow(v); }\n"
        "}\n"},
       {"src/lb/b.cpp",
        "namespace simdts::lb {\n"
        "void tick(std::vector<int>& v) { stage(v); }\n"
        "}\n"}},
      "region lockstep simdts::lb::tick\n");
  const Finding* f = only_rule(fs, "region-allocates");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/lb/b.cpp");
  EXPECT_NE(f->message.find("lockstep region 'simdts::lb::tick'"),
            std::string::npos)
      << f->message;
  EXPECT_NE(
      f->message.find("tick -> stage -> grow -> v.push_back [allocates]"),
      std::string::npos)
      << f->message;
  // Mutation: same chain without the root declaration reports nothing.
  EXPECT_TRUE(effects({{"src/lb/a.cpp",
                        "namespace simdts::lb {\n"
                        "void grow(std::vector<int>& v) { v.push_back(1); }\n"
                        "void tick(std::vector<int>& v) { grow(v); }\n"
                        "}\n"}},
                      "")
                  .empty());
}

TEST(SimdlintEffects, SizedContainerConstructionInALockstepRootAllocates) {
  const std::string conf =
      "region lockstep simdts::synthetic::Tree::expand_row\n";
  auto in_expand_row = [&conf](const std::string& stmt) {
    return effects({{"src/synthetic/tree.cpp",
                     "namespace simdts::synthetic {\n"
                     "std::uint32_t Tree::expand_row() const {\n"
                     "  " + stmt + "\n"
                     "  return 0;\n"
                     "}\n"
                     "}\n"}},
                   conf);
  };
  // The repro: a sized constructor allocates exactly like a push_back.
  const auto fs = in_expand_row("std::vector<int> v(4);");
  const Finding* f = only_rule(fs, "region-allocates");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 2u);  // findings point at the root's definition
  EXPECT_NE(f->message.find("expand_row -> std::vector constructor "
                            "[allocates]"),
            std::string::npos)
      << f->message;
  // Every construction with arguments allocates: braces, other owning
  // containers, and temporaries.
  for (const char* stmt :
       {"std::vector<int> v{1, 2};", "auto v = std::vector<int>(4);",
        "std::string s(8, 'x');", "std::deque<int> d(3);",
        "using std::vector; vector<int> v(4);"}) {
    EXPECT_NE(only_rule(in_expand_row(stmt), "region-allocates"), nullptr)
        << stmt;
  }
  // Empty constructions, references, non-owning types and plain calls of a
  // function that merely shares a container's name stay clean.
  for (const char* stmt :
       {"std::vector<int> v;", "std::vector<int> v{};", "std::vector<int> v();",
        "std::vector<int>& r = g();", "std::array<int, 4> a{1, 2, 3, 4};",
        "set(3);", "std::span<const int> s(p, 4);"}) {
    EXPECT_TRUE(in_expand_row(stmt).empty()) << stmt;
  }
}

TEST(SimdlintEffects, LockTwoCallsDeepNamesEveryFrame) {
  const auto fs = effects(
      {{"src/simd/a.cpp",
        "namespace simdts::simd {\n"
        "void with_lock() { std::mutex m; }\n"
        "void tick() { with_lock(); }\n"
        "}\n"}},
      "region lockstep simdts::simd::tick\n");
  const Finding* f = only_rule(fs, "region-locks");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("tick -> with_lock -> std::mutex [locks]"),
            std::string::npos)
      << f->message;
}

TEST(SimdlintEffects, HostIoTwoCallsDeepNamesEveryFrame) {
  const auto fs = effects(
      {{"src/simd/a.cpp",
        "namespace simdts::simd {\n"
        "void read_file() { std::ifstream in; }\n"
        "void tick() { read_file(); }\n"
        "}\n"}},
      "region lockstep simdts::simd::tick\n");
  const Finding* f = only_rule(fs, "region-io");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("tick -> read_file -> ifstream [does-io]"),
            std::string::npos)
      << f->message;
}

TEST(SimdlintEffects, NondetTwoCallsDeepNamesEveryFrame) {
  const auto fs = effects(
      {{"src/simd/a.cpp",
        "namespace simdts::simd {\n"
        "int roll() { return std::rand(); }\n"
        "int tick() { return roll(); }\n"
        "}\n"}},
      "region lockstep simdts::simd::tick\n");
  const Finding* f = only_rule(fs, "region-nondet");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("tick -> roll -> rand [nondet]"),
            std::string::npos)
      << f->message;
}

TEST(SimdlintEffects, UntypedThrowTwoCallsDeepNamesEveryFrame) {
  const auto fs = effects(
      {{"src/simd/a.cpp",
        "namespace simdts::simd {\n"
        "void boom() { throw std::runtime_error(\"x\"); }\n"
        "void tick() { boom(); }\n"
        "}\n"}},
      "region lockstep simdts::simd::tick\n");
  const Finding* f = only_rule(fs, "region-throws");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(
      f->message.find("tick -> boom -> throw runtime_error [throws-untyped]"),
      std::string::npos)
      << f->message;
}

TEST(SimdlintEffects, TypedErrorThrowsAreAllowedInLockstepRegions) {
  // The repo convention: classes ending in "Error" are the typed, documented
  // abort path — only *untyped* throws are forbidden in lockstep code.
  const auto fs = effects(
      {{"src/simd/a.cpp",
        "namespace simdts::simd {\n"
        "void boom() { throw ConfigError(\"x\", \"ctx\"); }\n"
        "void tick() { boom(); }\n"
        "}\n"}},
      "region lockstep simdts::simd::tick\n");
  EXPECT_EQ(only_rule(fs, "region-throws"), nullptr);
  EXPECT_TRUE(fs.empty());
}

TEST(SimdlintEffects, MutualRecursionNamesTheCycleClosure) {
  const auto fs = effects(
      {{"src/search/a.cpp",
        "namespace simdts::search {\n"
        "void pong(int n);\n"
        "void ping(int n) { pong(n - 1); }\n"
        "void pong(int n) { ping(n - 1); }\n"
        "void tick() { ping(8); }\n"
        "}\n"}},
      "region lockstep simdts::search::tick\n");
  const Finding* f = only_rule(fs, "region-recursion");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(
      f->message.find("tick -> ping -> pong -> ping [unbounded-recursion]"),
      std::string::npos)
      << f->message;
}

TEST(SimdlintEffects, NoexceptReachingAThrowIsATerminateHazard) {
  const auto fs = effects(
      {{"src/lb/a.cpp",
        "namespace simdts::lb {\n"
        "void may_throw(int x) { if (x) throw ConfigError(\"b\", \"c\"); }\n"
        "void shutdown() noexcept { may_throw(1); }\n"
        "}\n"}},
      "");
  const Finding* f = only_rule(fs, "noexcept-throws");
  ASSERT_NE(f, nullptr);
  EXPECT_NE(f->message.find("'simdts::lb::shutdown'"), std::string::npos)
      << f->message;
  EXPECT_NE(
      f->message.find("shutdown -> may_throw -> throw ConfigError [throws]"),
      std::string::npos)
      << f->message;
  // Mutation: a try block in the noexcept body stops throw propagation.
  EXPECT_TRUE(
      effects(
          {{"src/lb/a.cpp",
            "namespace simdts::lb {\n"
            "void may_throw(int x) { if (x) throw ConfigError(\"b\", \"c\"); "
            "}\n"
            "void shutdown() noexcept { try { may_throw(1); } catch (...) {} "
            "}\n"
            "}\n"}},
          "")
          .empty());
}

TEST(SimdlintEffects, SerialRegionsOnlyForbidNondeterminism) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/service/a.cpp",
       "namespace simdts::service {\n"
       "void plan(std::vector<int>& v) { v.push_back(std::rand()); }\n"
       "}\n"}};
  const auto fs = effects(sources, "region serial simdts::service::plan\n");
  EXPECT_NE(only_rule(fs, "region-nondet"), nullptr);
  EXPECT_EQ(only_rule(fs, "region-allocates"), nullptr);
  // The same body under a lockstep declaration trips both rules.
  const auto strict =
      effects(sources, "region lockstep simdts::service::plan\n");
  EXPECT_NE(only_rule(strict, "region-nondet"), nullptr);
  EXPECT_NE(only_rule(strict, "region-allocates"), nullptr);
}

TEST(SimdlintEffects, AssumeStripsTheEffectAndGoesStaleWhenItVanishes) {
  const std::string conf =
      "region lockstep simdts::lb::tick\n"
      "assume allocates simdts::lb::stage\n";
  // The assumed summary stops propagation at stage: tick is clean.
  EXPECT_TRUE(effects({{"src/lb/a.cpp",
                        "namespace simdts::lb {\n"
                        "void stage(std::vector<int>& v) { v.push_back(1); }\n"
                        "void tick(std::vector<int>& v) { stage(v); }\n"
                        "}\n"}},
                      conf)
                  .empty());
  // Mutation: stage no longer allocates — the entry must rot loudly.
  const auto fs = effects({{"src/lb/a.cpp",
                            "namespace simdts::lb {\n"
                            "void stage(std::vector<int>& v) { v.clear(); }\n"
                            "void tick(std::vector<int>& v) { stage(v); }\n"
                            "}\n"}},
                          conf);
  const Finding* f = only_rule(fs, "stale-assume");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "tools/simdlint/effects.conf");
  EXPECT_EQ(f->line, 2u);
}

TEST(SimdlintEffects, EffectOkAbsolvesTheNextLineAndGoesStaleWhenUnused) {
  const std::string conf = "region lockstep simdts::lb::tick\n";
  // Marker on the line above the push_back absolves exactly that use.
  EXPECT_TRUE(
      effects({{"src/lb/a.cpp",
                "namespace simdts::lb {\n"
                "void stage(std::vector<int>& v) {\n"
                "  // SIMDLINT" "-EFFECT-OK(allocates) persistent scratch\n"
                "  v.push_back(1);\n"
                "}\n"
                "void tick(std::vector<int>& v) { stage(v); }\n"
                "}\n"}},
               conf)
          .empty());
  // Mutation: marker stranded two lines above — the allocation fires AND
  // the marker is reported stale.
  const auto fs =
      effects({{"src/lb/a.cpp",
                "namespace simdts::lb {\n"
                "void stage(std::vector<int>& v) {\n"
                "  // SIMDLINT" "-EFFECT-OK(allocates) stranded marker\n"
                "  int unrelated = 0;\n"
                "  v.push_back(unrelated);\n"
                "}\n"
                "void tick(std::vector<int>& v) { stage(v); }\n"
                "}\n"}},
               conf);
  EXPECT_NE(only_rule(fs, "region-allocates"), nullptr);
  const Finding* stale = only_rule(fs, "stale-effect-ok");
  ASSERT_NE(stale, nullptr);
  EXPECT_EQ(stale->line, 3u);
}

TEST(SimdlintEffects, InlineRegionMarkersAttachAndGoStaleWhenOrphaned) {
  // A marker directly above a definition makes it a root with no conf entry.
  const auto fs = effects({{"src/lb/a.cpp",
                            "namespace simdts::lb {\n"
                            "// SIMDLINT" "-REGION(lockstep)\n"
                            "void tick(std::vector<int>& v) {\n"
                            "  v.push_back(1);\n"
                            "}\n"
                            "}\n"}},
                          "");
  EXPECT_NE(only_rule(fs, "region-allocates"), nullptr);
  // Mutation: a marker floating in the middle of a body attaches to nothing.
  const auto orphaned = effects({{"src/lb/a.cpp",
                                  "namespace simdts::lb {\n"
                                  "void tick(std::vector<int>& v) {\n"
                                  "  v.clear();\n"
                                  "  // SIMDLINT" "-REGION(lockstep)\n"
                                  "  v.clear();\n"
                                  "}\n"
                                  "}\n"}},
                                "");
  const Finding* f = only_rule(orphaned, "stale-region");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 4u);
}

TEST(SimdlintEffects, StaleConfRegionsFireOnFullRunsOnlyAndConfErrorsAlways) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/lb/a.cpp",
       "namespace simdts::lb {\nvoid tick() {}\n}\n"}};
  const std::string conf =
      "# roots\nregion lockstep simdts::lb::tick\n"
      "region lockstep simdts::lb::gone\n";
  const auto fs = effects(sources, conf);
  const Finding* f = only_rule(fs, "stale-region");
  ASSERT_NE(f, nullptr);
  // Precise conf provenance: the declaration's own line and text, not the
  // file as a whole.
  EXPECT_EQ(f->path, "tools/simdlint/effects.conf");
  EXPECT_EQ(f->line, 3u);
  EXPECT_EQ(f->excerpt, "region lockstep simdts::lb::gone");
  // Subset runs (--changed-files / explicit paths) legitimately see only a
  // slice of the tree: conf-wide staleness must stay quiet there.
  EXPECT_TRUE(effects(sources, conf, /*subset=*/true).empty());
  // Malformed directives are findings in both modes, at their own line.
  const auto bad = effects(sources, "# header\nregoin lockstep x\n", true);
  const Finding* err = only_rule(bad, "effects-conf-error");
  ASSERT_NE(err, nullptr);
  EXPECT_EQ(err->line, 2u);
  EXPECT_EQ(err->excerpt, "regoin lockstep x");
}

TEST(SimdlintRules, EffectCatalogCoversEveryCrossTuRule) {
  const auto catalog = simdlint::effect_rule_catalog();
  std::vector<std::string> ids;
  ids.reserve(catalog.size());
  for (const auto& [id, desc] : catalog) ids.push_back(id);
  for (const char* expected :
       {"region-allocates", "region-locks", "region-io", "region-nondet",
        "region-throws", "region-recursion", "noexcept-throws", "stale-region",
        "stale-assume", "stale-effect-ok", "effects-conf-error"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }
}

// ---------------------------------------------------------------------------
// Determinism-taint dataflow (simdlint v4): partition sources must not reach
// result-bearing sinks except through a justified commutative merge.  Every
// rule gets a true positive with its full witness chain AND the negative
// that would make it cry wolf.
// ---------------------------------------------------------------------------

std::vector<Finding> taint(
    const std::vector<std::pair<std::string, std::string>>& sources,
    const std::string& conf, bool subset = false) {
  std::vector<simdlint::SourceFile> files;
  files.reserve(sources.size());
  for (const auto& [path, code] : sources) {
    files.push_back(simdlint::SourceFile::parse(path, code));
  }
  return simdlint::find_taint_findings(
      files, simdlint::parse_effects_conf("tools/simdlint/effects.conf", conf),
      subset);
}

TEST(SimdlintTaint, SourceToSinkThreeCallsDeepAcrossTusNamesEveryHop) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/lb/a.cpp",
       "namespace simdts::lb {\n"
       "unsigned worker_base() { return 3u; }\n"
       "void tally(Stats& s, unsigned off) {\n"
       "  s.nodes_expanded = off;\n"
       "}\n"
       "}\n"},
      {"src/lb/b.cpp",
       "namespace simdts::lb {\n"
       "void cycle(Stats& s) {\n"
       "  unsigned base = worker_base();\n"
       "  unsigned off = base + 1;\n"
       "  tally(s, off);\n"
       "}\n"
       "}\n"}};
  const std::string conf =
      "source simdts::lb::worker_base\nsink member nodes_expanded\n";
  const auto fs = taint(sources, conf);
  const Finding* f = only_rule(fs, "taint-partition-to-result");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/lb/a.cpp");
  EXPECT_EQ(f->line, 4u);  // the `s.nodes_expanded = off` write
  for (const char* hop :
       {"worker_base: declared partition source",
        "cycle: call to 'worker_base' returns tainted",
        "cycle: base <- tainted", "cycle: off <- tainted",
        "tally: parameter 'off' tainted via call from cycle",
        "tally: s.nodes_expanded <- tainted", "[partition->result]"}) {
    EXPECT_NE(f->message.find(hop), std::string::npos)
        << hop << " missing from: " << f->message;
  }
  // The witness is also exported as a structured flow for SARIF codeFlows.
  ASSERT_GE(f->flow.size(), 5u);
  EXPECT_EQ(f->flow.front().path, "src/lb/a.cpp");  // source decl hop
  EXPECT_EQ(f->flow.back().path, "src/lb/a.cpp");
  EXPECT_EQ(f->flow.back().line, 4u);
  // Mutation: drop the source declaration and the flow disappears (subset
  // mode so the now-unmatched sink does not raise staleness instead).
  EXPECT_TRUE(
      taint(sources, "sink member nodes_expanded\n", /*subset=*/true).empty());
}

TEST(SimdlintTaint, PartitionedLoopBoundTaintsEveryWriteInTheBody) {
  // The motivating bug: a `+=` added inside a word-partitioned loop is
  // partition-dependent even when the written value is a constant — the
  // bound decides how many times it runs per thread.
  const std::string marked =
      "namespace simdts::lb {\n"
      "St g;\n"
      "void cycle() {\n"
      "  // SIMDLINT" "-SOURCE(partition)\n"
      "  auto body = [](unsigned wbegin,\n"
      "                 unsigned wend) {\n"
      "    for (unsigned w = wbegin; w < wend; ++w) {\n"
      "      g.nodes_expanded += 1;\n"
      "    }\n"
      "  };\n"
      "  body(0u, 4u);\n"
      "}\n"
      "}\n";
  const auto fs = taint({{"src/lb/a.cpp", marked}},
                        "sink member nodes_expanded\n");
  const Finding* f = only_rule(fs, "taint-partition-to-result");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->line, 8u);
  EXPECT_NE(f->message.find("tainted loop bound"), std::string::npos)
      << f->message;
  // Mutation: same write under a fixed (partition-independent) bound is
  // clean — the marker still taints wbegin/wend, but nothing flows.
  const std::string fixed =
      "namespace simdts::lb {\n"
      "St g;\n"
      "void cycle() {\n"
      "  // SIMDLINT" "-SOURCE(partition)\n"
      "  auto body = [](unsigned wbegin,\n"
      "                 unsigned wend) {\n"
      "    for (unsigned w = 0; w < 4; ++w) {\n"
      "      g.nodes_expanded += 1;\n"
      "    }\n"
      "  };\n"
      "  body(0u, 4u);\n"
      "}\n"
      "}\n";
  EXPECT_TRUE(
      taint({{"src/lb/a.cpp", fixed}}, "sink member nodes_expanded\n").empty());
}

TEST(SimdlintTaint, LaneIndexedSelectionIsNotAFlow) {
  // Reading clean data through a partition-derived index is the per-lane
  // state idiom, not a flow; assigning the index itself is.
  const std::string select =
      "namespace simdts::lb {\n"
      "St g;\n"
      "void cycle() {\n"
      "  // SIMDLINT" "-SOURCE(partition)\n"
      "  auto body = [](unsigned lane,\n"
      "                 unsigned other) {\n"
      "    g.nodes_expanded = g.table[lane];\n"
      "  };\n"
      "  body(0u, 1u);\n"
      "}\n"
      "}\n";
  EXPECT_TRUE(
      taint({{"src/lb/a.cpp", select}}, "sink member nodes_expanded\n")
          .empty());
  const std::string leak =
      "namespace simdts::lb {\n"
      "St g;\n"
      "void cycle() {\n"
      "  // SIMDLINT" "-SOURCE(partition)\n"
      "  auto body = [](unsigned lane,\n"
      "                 unsigned other) {\n"
      "    g.nodes_expanded = lane;\n"
      "  };\n"
      "  body(0u, 1u);\n"
      "}\n"
      "}\n";
  EXPECT_NE(only_rule(taint({{"src/lb/a.cpp", leak}},
                            "sink member nodes_expanded\n"),
                      "taint-partition-to-result"),
            nullptr);
}

TEST(SimdlintTaint, CommutativeMergeLaundersAndOtherKindsAreUnjustified) {
  const std::string justified =
      "namespace simdts::lb {\n"
      "unsigned lane_base() { return 1u; }\n"
      "// SIMDLINT" "-MERGE(commutative)\n"
      "void fold(St& s, unsigned v) {\n"
      "  s.goals_found = v;\n"
      "}\n"
      "void cycle(St& s) {\n"
      "  unsigned v = lane_base();\n"
      "  fold(s, v);\n"
      "}\n"
      "}\n";
  const std::string conf =
      "source simdts::lb::lane_base\nsink member goals_found\n";
  // Justified: the sink write happens inside the merge — no findings at
  // all (and in particular no stale-merge: the merge laundered a flow).
  EXPECT_TRUE(taint({{"src/lb/a.cpp", justified}}, conf).empty());
  // A kind other than `commutative` is asserting something the analysis
  // cannot accept: the merge is unjustified AND the flow still fires.
  std::string ordered = justified;
  const std::string from = "MERGE(commutative)";
  ordered.replace(ordered.find(from), from.size(), "MERGE(ordered)");
  const auto fs = taint({{"src/lb/a.cpp", ordered}}, conf);
  EXPECT_NE(only_rule(fs, "merge-unjustified"), nullptr);
  EXPECT_NE(only_rule(fs, "taint-partition-to-result"), nullptr);
}

TEST(SimdlintTaint, StaleDeclarationsPointAtTheConfLine) {
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"src/lb/a.cpp", "namespace simdts::lb {\nvoid tick() {}\n}\n"}};
  const std::string conf =
      "source simdts::lb::ghost\n"
      "sink member nowhere\n"
      "merge commutative simdts::lb::ghost\n";
  const auto fs = taint(sources, conf);
  const Finding* src = only_rule(fs, "stale-source");
  const Finding* snk = only_rule(fs, "stale-sink");
  const Finding* mrg = only_rule(fs, "stale-merge");
  ASSERT_NE(src, nullptr);
  ASSERT_NE(snk, nullptr);
  ASSERT_NE(mrg, nullptr);
  // Precise conf provenance: file, the declaration's own line, its text.
  EXPECT_EQ(src->path, "tools/simdlint/effects.conf");
  EXPECT_EQ(src->line, 1u);
  EXPECT_EQ(src->excerpt, "source simdts::lb::ghost");
  EXPECT_EQ(snk->line, 2u);
  EXPECT_EQ(snk->excerpt, "sink member nowhere");
  EXPECT_EQ(mrg->line, 3u);
  EXPECT_EQ(mrg->excerpt, "merge commutative simdts::lb::ghost");
  // Conf-wide staleness is a full-run property; subset runs stay quiet.
  EXPECT_TRUE(taint(sources, conf, /*subset=*/true).empty());
}

TEST(SimdlintTaint, OrphanedMarkersAreStaleEvenInSubsetRuns) {
  // A marker that covers no declaration taints nothing: intra-file
  // staleness, checked in every mode.
  const std::string orphan =
      "namespace simdts::lb {\n"
      "void tick() {\n"
      "  int x = 0;\n"
      "}\n"
      "}\n"
      "// SIMDLINT" "-SOURCE(partition)\n";
  const auto fs = taint({{"src/lb/a.cpp", orphan}}, "", /*subset=*/true);
  const Finding* f = only_rule(fs, "stale-source");
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->path, "src/lb/a.cpp");
  EXPECT_EQ(f->line, 6u);
  // An unattached merge marker is stale the same way.
  const std::string merge_orphan =
      "namespace simdts::lb {\n"
      "void tick() {\n"
      "  int x = 0;\n"
      "  // SIMDLINT" "-MERGE(commutative)\n"
      "  x = 1;\n"
      "}\n"
      "}\n";
  const auto ms = taint({{"src/lb/a.cpp", merge_orphan}}, "", /*subset=*/true);
  const Finding* m = only_rule(ms, "stale-merge");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->line, 4u);
}

TEST(SimdlintRules, TaintCatalogCoversEveryRule) {
  const auto catalog = simdlint::taint_rule_catalog();
  std::vector<std::string> ids;
  ids.reserve(catalog.size());
  for (const auto& [id, desc] : catalog) ids.push_back(id);
  for (const char* expected :
       {"taint-partition-to-result", "merge-unjustified", "stale-source",
        "stale-sink", "stale-merge"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << expected;
  }
}

TEST(SimdlintReport, SarifExportsTaintWitnessesAsCodeFlows) {
  const auto fs = taint(
      {{"src/lb/a.cpp",
        "namespace simdts::lb {\n"
        "unsigned worker_base() { return 3u; }\n"
        "void cycle(Stats& s) {\n"
        "  s.nodes_expanded = worker_base();\n"
        "}\n"
        "}\n"}},
      "source simdts::lb::worker_base\nsink member nodes_expanded\n");
  ASSERT_FALSE(fs.empty());
  std::ostringstream os;
  simdlint::sarif_report(os, fs, simdlint::tally(fs, 1));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"codeFlows\""), std::string::npos);
  EXPECT_NE(out.find("\"threadFlows\""), std::string::npos);
  EXPECT_NE(out.find("declared partition source"), std::string::npos);
  EXPECT_NE(out.find("s.nodes_expanded <- tainted"), std::string::npos);
}

TEST(SimdlintReport, SarifReportCarriesRulesResultsAndFingerprints) {
  const auto fs = active("src/a.cpp", "int x = std::rand();\n");
  std::ostringstream os;
  simdlint::sarif_report(os, fs, simdlint::tally(fs, 1));
  const std::string out = os.str();
  EXPECT_NE(out.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(out.find("\"id\": \"no-rand\""), std::string::npos);
  EXPECT_NE(out.find("\"level\": \"error\""), std::string::npos);
  EXPECT_NE(out.find("simdlintFingerprint/v1"), std::string::npos);
}

}  // namespace
