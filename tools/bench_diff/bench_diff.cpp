// bench_diff: schema gate + per-key delta viewer for BENCH_engine.json.
//
// Perf numbers only stay honest if their *shape* is enforced: a harness edit
// that silently drops `host_hardware_threads` or renames a kernel key would
// otherwise go unnoticed until someone tried to compare entries months
// later.  This tool validates the committed BENCH_engine.json against the
// schema the perf harness writes (registered as the `lint.bench_schema`
// ctest) and, given a baseline entry (CI feeds it the previous committed
// revision via `git show`), prints a per-key numeric delta so perf
// regressions are visible directly in PR review.
//
// Deliberately standalone C++17 with a minimal built-in JSON reader — like
// simdlint, it must not depend on the library it gates, and the container
// has no third-party JSON dependency to lean on.
//
// Usage:
//   bench_diff <current.json>                      # schema validation only
//   bench_diff <current.json> --baseline <old.json>  # + per-key deltas
//
// Exit status: 0 when the schema is clean (deltas are informational and
// never fail the run), 1 on schema violations or unreadable input.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (objects keep file order).
// ---------------------------------------------------------------------------

struct Value;
using ValuePtr = std::unique_ptr<Value>;

struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<ValuePtr> array;
  std::vector<std::pair<std::string, ValuePtr>> object;

  [[nodiscard]] const Value* find(const std::string& key) const {
    for (const auto& [k, v] : object)
      if (k == key) return v.get();
    return nullptr;
  }
};

class Parser {
 public:
  explicit Parser(std::string text) : text_(std::move(text)) {}

  ValuePtr parse(std::string& error) {
    ValuePtr v = value();
    skip_ws();
    if (!v) {
      error = detail_.empty() ? "parse error" : detail_;
      error += " at byte " + std::to_string(pos_);
      return nullptr;
    }
    if (pos_ != text_.size()) {
      error = "trailing garbage at byte " + std::to_string(pos_);
      return nullptr;
    }
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(const char* word) {
    const std::size_t n = std::string(word).size();
    if (text_.compare(pos_, n, word) == 0) {
      pos_ += n;
      return true;
    }
    return false;
  }

  ValuePtr value() {
    skip_ws();
    if (pos_ >= text_.size()) return nullptr;
    const char c = text_[pos_];
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') return string_value();
    if (c == 't' || c == 'f') return bool_value();
    if (c == 'n') {
      if (!literal("null")) return nullptr;
      auto v = std::make_unique<Value>();
      return v;
    }
    return number_value();
  }

  ValuePtr object() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (consume('}')) return v;
    while (true) {
      skip_ws();
      if (pos_ >= text_.size() || text_[pos_] != '"') return nullptr;
      ValuePtr key = string_value();
      if (!key || !consume(':')) return nullptr;
      ValuePtr val = value();
      if (!val) return nullptr;
      // Duplicate keys would make find() silently prefer the first writer
      // and the delta flattener report whichever survived — reject outright.
      for (const auto& [existing, unused] : v->object) {
        if (existing == key->string) {
          detail_ = "duplicate key \"" + key->string + "\"";
          return nullptr;
        }
      }
      v->object.emplace_back(std::move(key->string), std::move(val));
      if (consume(',')) continue;
      if (consume('}')) return v;
      return nullptr;
    }
  }

  ValuePtr array() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kArray;
    ++pos_;  // '['
    skip_ws();
    if (consume(']')) return v;
    while (true) {
      ValuePtr el = value();
      if (!el) return nullptr;
      v->array.push_back(std::move(el));
      if (consume(',')) continue;
      if (consume(']')) return v;
      return nullptr;
    }
  }

  ValuePtr string_value() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kString;
    ++pos_;  // '"'
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size()) {
        const char esc = text_[pos_++];
        switch (esc) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          case '"': c = '"'; break;
          case '\\': c = '\\'; break;
          case '/': c = '/'; break;
          default: return nullptr;  // \uXXXX etc: harness never emits these
        }
      }
      v->string.push_back(c);
    }
    if (pos_ >= text_.size()) return nullptr;
    ++pos_;  // closing '"'
    return v;
  }

  ValuePtr bool_value() {
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kBool;
    if (literal("true")) {
      v->boolean = true;
      return v;
    }
    if (literal("false")) {
      v->boolean = false;
      return v;
    }
    return nullptr;
  }

  ValuePtr number_value() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '-' || text_[pos_] == '+' || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) return nullptr;
    auto v = std::make_unique<Value>();
    v->kind = Value::Kind::kNumber;
    try {
      v->number = std::stod(text_.substr(start, pos_ - start));
    } catch (...) {
      return nullptr;
    }
    return v;
  }

  std::string text_;
  std::string detail_;  // specific rejection reason, e.g. the duplicated key
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Schema validation for the perf harness's BENCH_engine.json entry.
// ---------------------------------------------------------------------------

struct Checker {
  std::vector<std::string> errors;

  void fail(const std::string& path, const std::string& what) {
    errors.push_back(path + ": " + what);
  }

  const Value* need(const Value& obj, const std::string& path,
                    const std::string& key, Value::Kind kind) {
    const Value* v = obj.find(key);
    if (!v) {
      fail(path + "." + key, "missing required key");
      return nullptr;
    }
    if (v->kind != kind) {
      fail(path + "." + key, "wrong type");
      return nullptr;
    }
    return v;
  }

  void need_number(const Value& obj, const std::string& path,
                   const std::string& key) {
    need(obj, path, key, Value::Kind::kNumber);
  }

  // A flag the harness asserts before writing: if it ever reads false the
  // entry documents a broken determinism contract, which is a finding.
  void need_true(const Value& obj, const std::string& path,
                 const std::string& key) {
    const Value* v = need(obj, path, key, Value::Kind::kBool);
    if (v && !v->boolean) fail(path + "." + key, "must be true");
  }

  // Honesty cross-check: a recorded speedup must equal the ratio of the
  // recorded timings (2% slack for rounding in the harness's printf).
  void check_ratio(const Value& obj, const std::string& path,
                   const char* num_key, const char* den_key,
                   const char* ratio_key = "speedup") {
    const Value* n = obj.find(num_key);
    const Value* d = obj.find(den_key);
    const Value* s = obj.find(ratio_key);
    if (!n || !d || !s || d->number <= 0.0) return;
    const double ratio = n->number / d->number;
    if (std::fabs(ratio - s->number) > 0.02 * ratio + 1e-9)
      fail(path + "." + ratio_key,
           "does not match " + std::string(num_key) + "/" + den_key +
               " (claims " + std::to_string(s->number) + ", timings say " +
               std::to_string(ratio) + ")");
  }
};

void check_kernel(Checker& c, const std::string& path, const Value& k) {
  c.need_number(k, path, "lanes");
  if (k.find("expand_dominated")) {
    // Parity-documented kernel: raw timings only, no speedup claim.
    c.need_true(k, path, "expand_dominated");
    c.need_number(k, path, "per_node_ns");
    c.need_number(k, path, "batched_ns");
    if (k.find("speedup"))
      c.fail(path + ".speedup",
             "present alongside expand_dominated (drop the claim or the flag)");
  } else {
    c.need_number(k, path, "scalar_ns");
    c.need_number(k, path, "bitplane_ns");
    c.need_number(k, path, "speedup");
    c.check_ratio(k, path, "scalar_ns", "bitplane_ns");
  }
}

void check_schema(Checker& c, const Value& root) {
  if (root.kind != Value::Kind::kObject) {
    c.fail("$", "top level must be an object");
    return;
  }
  c.need(root, "$", "benchmark", Value::Kind::kString);
  c.need(root, "$", "quick_mode", Value::Kind::kBool);
  c.need_number(root, "$", "reps");
  c.need(root, "$", "timing", Value::Kind::kString);
  const Value* threads = root.find("host_hardware_threads");
  if (!threads || threads->kind != Value::Kind::kNumber)
    c.fail("$.host_hardware_threads", "missing or non-numeric");
  else if (threads->number < 1)
    c.fail("$.host_hardware_threads", "must be >= 1");
  c.need_number(root, "$", "grid_cells");
  c.need_true(root, "$", "results_identical_across_threads");

  if (const Value* sweeps = c.need(root, "$", "sweeps", Value::Kind::kArray)) {
    if (sweeps->array.empty()) c.fail("$.sweeps", "must not be empty");
    for (std::size_t i = 0; i < sweeps->array.size(); ++i) {
      const std::string path = "$.sweeps[" + std::to_string(i) + "]";
      const Value& s = *sweeps->array[i];
      if (s.kind != Value::Kind::kObject) {
        c.fail(path, "must be an object");
        continue;
      }
      for (const char* key :
           {"threads", "wall_s", "nodes", "nodes_per_s", "speedup_vs_1t"})
        c.need_number(s, path, key);
    }
  }

  if (const Value* e = c.need(root, "$", "engine", Value::Kind::kObject))
    for (const char* key : {"p", "nodes", "wall_s", "nodes_per_s"})
      c.need_number(*e, "$.engine", key);

  if (const Value* f = c.need(root, "$", "fault_hooks", Value::Kind::kObject)) {
    for (const char* key :
         {"unarmed_wall_s", "armed_empty_wall_s", "overhead_pct"})
      c.need_number(*f, "$.fault_hooks", key);
    c.need_true(*f, "$.fault_hooks", "results_identical");
  }

  if (const Value* s = c.need(root, "$", "sanitizer", Value::Kind::kObject))
    c.need(*s, "$.sanitizer", "compiled_in", Value::Kind::kBool);

  if (const Value* sv = c.need(root, "$", "service", Value::Kind::kObject)) {
    c.need_number(*sv, "$.service", "requests");
    c.need_number(*sv, "$.service", "p99_sim_cycles");
    const Value* shed = sv->find("shed_rate");
    if (!shed || shed->kind != Value::Kind::kNumber)
      c.fail("$.service.shed_rate", "missing or non-numeric");
    else if (shed->number < 0.0 || shed->number > 1.0)
      c.fail("$.service.shed_rate", "must be a fraction in [0, 1]");
    c.need_true(*sv, "$.service", "responses_identical_across_threads");
    if (const Value* runs =
            c.need(*sv, "$.service", "runs", Value::Kind::kArray)) {
      if (runs->array.empty()) c.fail("$.service.runs", "must not be empty");
      for (std::size_t i = 0; i < runs->array.size(); ++i) {
        const std::string path = "$.service.runs[" + std::to_string(i) + "]";
        const Value& r = *runs->array[i];
        if (r.kind != Value::Kind::kObject) {
          c.fail(path, "must be an object");
          continue;
        }
        for (const char* key : {"threads", "wall_s", "qps"})
          c.need_number(r, path, key);
      }
    }
  }

  if (const Value* ks = c.need(root, "$", "kernels", Value::Kind::kObject)) {
    if (ks->object.empty()) c.fail("$.kernels", "must not be empty");
    for (const auto& [name, k] : ks->object) {
      const std::string path = "$.kernels." + name;
      if (k->kind != Value::Kind::kObject)
        c.fail(path, "must be an object");
      else
        check_kernel(c, path, *k);
    }
  }

  if (const Value* mp = c.need(root, "$", "mega_p", Value::Kind::kObject)) {
    if (const Value* bl = c.need(*mp, "$.mega_p", "bytes_per_lane",
                                 Value::Kind::kObject)) {
      const std::string path = "$.mega_p.bytes_per_lane";
      c.need(*bl, path, "workload", Value::Kind::kString);
      for (const char* key : {"descent_steps", "full_avg", "compact_avg",
                              "ratio", "full_peak", "compact_peak",
                              "peak_ratio"})
        c.need_number(*bl, path, key);
      c.check_ratio(*bl, path, "full_avg", "compact_avg", "ratio");
      c.check_ratio(*bl, path, "full_peak", "compact_peak", "peak_ratio");
      // The claim the compact representation is shipped for: a committed
      // entry below 4x documents a memory regression, which is a finding.
      const Value* ratio = bl->find("ratio");
      if (ratio && ratio->kind == Value::Kind::kNumber && ratio->number < 4.0)
        c.fail(path + ".ratio",
               "below the 4x the memory-bounded stacks are shipped for");
    }
    c.need_true(*mp, "$.mega_p", "pairs_identical_flat_vs_hier");
    if (const Value* sizes =
            c.need(*mp, "$.mega_p", "sizes", Value::Kind::kArray)) {
      if (sizes->array.empty()) c.fail("$.mega_p.sizes", "must not be empty");
      double prev_p = 0.0;
      for (std::size_t i = 0; i < sizes->array.size(); ++i) {
        const std::string path = "$.mega_p.sizes[" + std::to_string(i) + "]";
        const Value& m = *sizes->array[i];
        if (m.kind != Value::Kind::kObject) {
          c.fail(path, "must be an object");
          continue;
        }
        for (const char* key :
             {"p", "engine_full_avg_per_lane", "engine_compact_avg_per_lane",
              "engine_ratio", "lb_phase_flat_ns", "lb_phase_hier_ns",
              "lb_phase_speedup"})
          c.need_number(m, path, key);
        c.check_ratio(m, path, "engine_full_avg_per_lane",
                      "engine_compact_avg_per_lane", "engine_ratio");
        c.check_ratio(m, path, "lb_phase_flat_ns", "lb_phase_hier_ns",
                      "lb_phase_speedup");
        const Value* p = m.find("p");
        if (p && p->kind == Value::Kind::kNumber) {
          if (p->number <= prev_p)
            c.fail(path + ".p", "machine sizes must be strictly increasing");
          prev_p = p->number;
        }
      }
      // The whole point of the sweep: the last entry must reach 2^20 lanes.
      const Value& last = *sizes->array.back();
      const Value* p = last.find("p");
      if (p && p->kind == Value::Kind::kNumber && p->number < 1048576.0)
        c.fail("$.mega_p.sizes", "sweep must reach P = 2^20");
    }
  }
}

// ---------------------------------------------------------------------------
// Per-key delta vs a baseline entry.
// ---------------------------------------------------------------------------

void flatten(const Value& v, const std::string& path,
             std::map<std::string, double>& out) {
  switch (v.kind) {
    case Value::Kind::kNumber:
      out[path] = v.number;
      break;
    case Value::Kind::kObject:
      for (const auto& [k, child] : v.object)
        flatten(*child, path.empty() ? k : path + "." + k, out);
      break;
    case Value::Kind::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i)
        flatten(*v.array[i], path + "[" + std::to_string(i) + "]", out);
      break;
    default:
      break;  // strings/bools don't delta
  }
}

void print_deltas(const Value& current, const Value& baseline) {
  std::map<std::string, double> now, old;
  flatten(current, "", now);
  flatten(baseline, "", old);
  std::printf("%-52s %14s %14s %9s\n", "key", "baseline", "current", "delta");
  for (const auto& [key, value] : now) {
    const auto it = old.find(key);
    if (it == old.end()) {
      std::printf("%-52s %14s %14.4g %9s\n", key.c_str(), "-", value, "(new)");
    } else if (it->second != value) {
      const double pct =
          it->second != 0.0 ? 100.0 * (value - it->second) / it->second : 0.0;
      std::printf("%-52s %14.4g %14.4g %+8.1f%%\n", key.c_str(), it->second,
                  value, pct);
    }
  }
  for (const auto& [key, value] : old)
    if (now.find(key) == now.end())
      std::printf("%-52s %14.4g %14s %9s\n", key.c_str(), value, "-", "(gone)");
}

ValuePtr load(const char* path, std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = std::string("cannot open ") + path;
    return nullptr;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Parser(buf.str()).parse(error);
}

}  // namespace

int main(int argc, char** argv) {
  const char* current_path = nullptr;
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (!current_path) {
      current_path = argv[i];
    } else {
      std::fprintf(stderr, "usage: bench_diff <current.json> [--baseline <old.json>]\n");
      return 2;
    }
  }
  if (!current_path) {
    std::fprintf(stderr, "usage: bench_diff <current.json> [--baseline <old.json>]\n");
    return 2;
  }

  std::string error;
  ValuePtr current = load(current_path, error);
  if (!current) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", current_path, error.c_str());
    return 1;
  }

  Checker checker;
  check_schema(checker, *current);
  if (!checker.errors.empty()) {
    std::fprintf(stderr, "bench_diff: %s: %zu schema violation(s)\n",
                 current_path, checker.errors.size());
    for (const std::string& e : checker.errors)
      std::fprintf(stderr, "  %s\n", e.c_str());
    return 1;
  }
  std::printf("bench_diff: %s: schema OK\n", current_path);

  if (baseline_path) {
    ValuePtr baseline = load(baseline_path, error);
    if (!baseline) {
      // A missing or pre-schema baseline is not a failure: first-ever entry.
      std::printf("bench_diff: baseline %s unreadable (%s); skipping deltas\n",
                  baseline_path, error.c_str());
      return 0;
    }
    print_deltas(*current, *baseline);
  }
  return 0;
}
