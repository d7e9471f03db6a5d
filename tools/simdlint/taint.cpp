#include "simdlint/taint.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simdlint/callgraph.hpp"
#include "simdlint/symbols.hpp"

namespace simdlint {

namespace {

// Member calls that write through their receiver; with a tainted argument
// (or under tainted control) they taint the receiver.
const std::set<std::string>& mutating_member_calls() {
  static const std::set<std::string> kNames = {
      "push_back", "emplace_back", "emplace", "emplace_front", "push_front",
      "insert",    "append",       "push",    "assign",        "resize",
      "fill",      "store",        "fetch_add", "fetch_sub",   "add",
  };
  return kNames;
}

// Compound-assignment operator heads: `+=` lexes as `+`,`=`.
bool compound_op(const std::string& s) {
  return s == "+" || s == "-" || s == "*" || s == "/" || s == "%" ||
         s == "&" || s == "|" || s == "^";
}

/// One hop of the provenance arena.  Taint facts store the index of the step
/// that established them; chains are rebuilt by walking `prev`.
struct Step {
  std::string path;
  std::size_t line = 0;
  std::string note;
  std::ptrdiff_t prev = -1;
  /// When >= 0, this step tainted a parameter of nodes_[param_of] — used to
  /// classify a callee's return taint as parameter-derived (see
  /// TNode::returns_param_only).
  std::ptrdiff_t param_of = -1;
  /// Control-derived ("weak") taint: the value was written under a
  /// partition-tainted branch/loop, but is not itself computed from the
  /// partition.  Weak taint still flags member and sink writes (the missed
  /// `+=` in a word-partitioned loop IS partition-dependent), but it does
  /// not cross function boundaries through parameters or return values —
  /// propagating implicit flows interprocedurally floods the whole tree
  /// from one tainted loop.  Weakness is sticky along the chain.
  bool weak = false;
};

/// A write target recovered from tokens left of an `=` / inside `++`.
struct Target {
  bool valid = false;
  bool member = false;   // member field (by name, globally) vs local
  std::string name;      // final field / variable name
  std::string display;   // "stats.goals_found", "ls.goals", "wbegin"
};

struct SiteInfo {
  std::vector<std::size_t> cands;  // candidate node indices (empty: external)
  std::string written;             // callee as written
  bool has_receiver = false;
};

struct TNode {
  FunctionDef def;
  std::size_t file = 0;
  std::vector<std::size_t> body;  // raw token indices inside the body braces,
                                  // preprocessor lines skipped
  bool merge = false;             // justified commutative merge
  bool merge_used = false;        // laundered a write or justified a sink hit
  std::map<std::string, std::ptrdiff_t> locals;  // tainted local idents
  std::ptrdiff_t returns_taint = -1;
  // Return taint entered through this function's own parameters (rather
  // than a source or tainted member state).  Such taint only activates at
  // call sites that themselves pass a tainted argument — a context-
  // insensitive summary would taint every caller of a shared helper (hash,
  // PRNG) the moment one caller feeds it partition data.
  bool returns_param_only = false;
  std::map<std::pair<std::size_t, std::string>, SiteInfo> sites;
};

struct Hit {
  std::size_t file = 0;
  std::size_t line = 0;
  std::string name;  // sink member or function
  std::ptrdiff_t step = -1;
  bool justified = false;
};

/// Key for the global tainted-member map.  Members following the repo's
/// trailing-underscore (private field) convention are keyed per enclosing
/// class — `n_` in a scheduler and `n_` in a puzzle board are different
/// state, and a name-only key would carry taint between them.  Plain member
/// names stay globally keyed: they are public aggregate fields read through
/// arbitrary receivers whose class the token level cannot see.
std::string member_key(const TNode& n, const std::string& name) {
  if (name.empty() || name.back() != '_') return name;
  const std::string& q = n.def.qualified;
  const std::size_t pos = q.rfind("::");
  return (pos == std::string::npos ? std::string() : q.substr(0, pos)) +
         "::" + name;
}

/// Container-idiom method names whose bare-name resolution routinely lands
/// on an unrelated class (`errors_.resize(n)` is std::vector::resize, not
/// the repo's Bitset::resize): taint does not follow their resolved
/// candidates — a tainted argument taints the call result locally instead,
/// exactly like an unresolved external call.
const std::set<std::string>& generic_receiver_calls() {
  static const std::set<std::string> s = {
      "resize", "assign",  "reserve",   "clear",        "fill",
      "swap",   "push_back", "pop_back", "emplace_back", "insert",
      "erase",  "front",   "back",      "data",         "at",
  };
  return s;
}

Finding taint_finding(const std::string& rule, const std::string& path,
                      std::size_t line, std::string message,
                      std::string excerpt) {
  Finding f;
  f.rule = rule;
  f.path = path;
  f.line = line;
  f.message = std::move(message);
  f.excerpt = std::move(excerpt);
  return f;
}

class Analysis {
 public:
  Analysis(const std::vector<SourceFile>& files, const EffectConfig& config,
           bool subset)
      : files_(files), config_(config), subset_(subset) {}

  std::vector<Finding> run();

 private:
  const std::vector<SourceFile>& files_;
  const EffectConfig& config_;
  bool subset_;

  std::vector<TNode> nodes_;
  std::vector<Step> arena_;
  std::map<std::string, std::ptrdiff_t> members_;  // tainted member names
  std::set<std::string> sink_members_;
  std::map<std::string, std::size_t> hit_index_;
  std::vector<Hit> hits_;
  bool changed_ = false;
  std::vector<Finding> out_;

  const Token& tok(const TNode& n, std::size_t k) const {
    return files_[n.file].tokens[n.body[k]];
  }
  const std::string& txt(const TNode& n, std::size_t k) const {
    return tok(n, k).text;
  }
  bool is(const TNode& n, std::size_t k, const char* s) const {
    return k < n.body.size() && txt(n, k) == s;
  }

  std::ptrdiff_t add_step(const TNode& n, std::size_t line, std::string note,
                          std::ptrdiff_t prev, bool ctl = false) {
    const bool weak = ctl || (prev >= 0 && arena_[static_cast<std::size_t>(
                                               prev)].weak);
    arena_.push_back(Step{n.def.path, line, std::move(note), prev, -1, weak});
    return static_cast<std::ptrdiff_t>(arena_.size()) - 1;
  }

  [[nodiscard]] bool is_weak(std::ptrdiff_t h) const {
    return h >= 0 && arena_[static_cast<std::size_t>(h)].weak;
  }

  void build_nodes();
  void seed_markers();
  void seed_conf_sources();
  void setup_merges();
  void record_hit(const TNode& n, std::size_t line, const std::string& name,
                  std::ptrdiff_t step, bool justified);
  void do_write(TNode& n, const Target& tg, std::size_t line,
                std::ptrdiff_t cause);
  Target classify(const TNode& n, std::ptrdiff_t k) const;
  std::size_t match_paren(const TNode& n, std::size_t open) const;
  std::size_t stmt_end(const TNode& n, std::size_t from) const;
  std::ptrdiff_t scan_reads(TNode& n, std::size_t from, std::size_t to);
  void scan(std::size_t ni);
  void conf_staleness();
  void emit_flow_findings();
};

void Analysis::build_nodes() {
  std::vector<FnInfo> infos;
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    for (FunctionDef& fn : extract_functions(files_[fi])) {
      TNode n;
      n.def = std::move(fn);
      n.file = fi;
      nodes_.push_back(std::move(n));
    }
  }
  infos.reserve(nodes_.size());
  for (const TNode& n : nodes_) {
    infos.push_back(FnInfo{n.def.qualified, n.def.short_name,
                           n.def.is_static});
  }
  const CallResolver resolver(std::move(infos));
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    TNode& n = nodes_[i];
    const std::vector<Token>& toks = files_[n.file].tokens;
    if (n.def.body_close > n.def.body_open) {
      for (std::size_t r = n.def.body_open + 1; r < n.def.body_close; ++r) {
        if (!toks[r].preproc) n.body.push_back(r);
      }
    }
    for (const CallSite& call : n.def.calls) {
      SiteInfo si;
      si.cands = resolver.resolve(i, call);
      si.written = call.written;
      si.has_receiver = call.has_receiver;
      n.sites.emplace(std::make_pair(call.line, call.last_name),
                      std::move(si));
    }
  }
}

void Analysis::seed_markers() {
  // Marker line -> owning node, by signature/body line coverage.
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    for (const auto& [mline, kinds] : files_[fi].source_marks) {
      std::ptrdiff_t owner = -1;
      for (std::size_t i = 0; i < nodes_.size(); ++i) {
        const TNode& n = nodes_[i];
        if (n.file != fi || n.def.body_close <= n.def.body_open) continue;
        const std::size_t lo = n.def.sig_line > 1 ? n.def.sig_line - 1 : 1;
        const std::size_t hi = files_[fi].tokens[n.def.body_close].line;
        if (mline >= lo && mline <= hi) {
          owner = static_cast<std::ptrdiff_t>(i);
          break;
        }
      }
      for (const std::string& kind : kinds) {
        if (kind != "partition") {
          out_.push_back(taint_finding(
              "stale-source", files_[fi].path, mline,
              "unknown source kind '" + kind + "' (expected partition)",
              files_[fi].line_text(mline)));
          continue;
        }
        if (owner < 0) {
          out_.push_back(taint_finding(
              "stale-source", files_[fi].path, mline,
              "SIMDLINT-SOURCE marker attached to no function definition; "
              "move it inside a body or remove it",
              files_[fi].line_text(mline)));
          continue;
        }
        // Taint declared identifiers on the marker's line and the next two:
        // an identifier preceded by a type-ish token (identifier, '&', '*')
        // and followed by a declarator terminator (',', ')', ';', or '='
        // that is not '==').
        TNode& n = nodes_[static_cast<std::size_t>(owner)];
        bool live = false;
        for (std::size_t k = 0; k < n.body.size(); ++k) {
          const Token& t = tok(n, k);
          if (t.line < mline || t.line > mline + 2) continue;
          if (!t.ident || k == 0) continue;
          const std::string& prev = txt(n, k - 1);
          const bool typed = tok(n, k - 1).ident || prev == "&" || prev == "*";
          if (!typed) continue;
          bool ends = false;
          if (is(n, k + 1, ",") || is(n, k + 1, ")") || is(n, k + 1, ";")) {
            ends = true;
          } else if (is(n, k + 1, "=") && !is(n, k + 2, "=")) {
            ends = true;
          }
          if (!ends) continue;
          const std::ptrdiff_t st =
              add_step(n, t.line,
                       n.def.short_name + ": partition source '" + t.text +
                           "'",
                       -1);
          if (n.locals.emplace(t.text, st).second) changed_ = true;
          live = true;
        }
        if (!live) {
          out_.push_back(taint_finding(
              "stale-source", files_[fi].path, mline,
              "SIMDLINT-SOURCE(partition) taints no identifier on its line "
              "or the next two; move or remove it",
              files_[fi].line_text(mline)));
        }
      }
    }
  }
}

void Analysis::seed_conf_sources() {
  for (const SourceDecl& decl : config_.sources) {
    bool matched = false;
    for (TNode& n : nodes_) {
      if (suffix_match(n.def.qualified, decl.pattern)) {
        matched = true;
        if (n.returns_taint < 0) {
          n.returns_taint = add_step(
              n, n.def.line,
              n.def.short_name + ": declared partition source", -1);
          changed_ = true;
        }
      }
    }
    if (!matched) {
      for (const TNode& n : nodes_) {
        for (const CallSite& call : n.def.calls) {
          if (suffix_match(call.written, decl.pattern)) matched = true;
        }
      }
    }
    if (!matched && !subset_) {
      out_.push_back(taint_finding(
          "stale-source", config_.path, decl.line,
          "source entry matches no function definition or call; remove it",
          decl.text));
    }
  }
}

void Analysis::setup_merges() {
  for (TNode& n : nodes_) {
    for (const std::string& kind : n.def.merges) {
      if (kind == "commutative") {
        n.merge = true;
      } else {
        out_.push_back(taint_finding(
            "merge-unjustified", files_[n.file].path, n.def.line,
            "merge kind '" + kind + "' on '" + n.def.qualified +
                "' is not justified (only 'commutative' merges launder "
                "partition taint)",
            files_[n.file].line_text(n.def.line)));
      }
    }
  }
  for (const MergeDecl& decl : config_.merges) {
    bool matched = false;
    for (TNode& n : nodes_) {
      if (!suffix_match(n.def.qualified, decl.pattern)) continue;
      matched = true;
      if (decl.kind == "commutative") {
        n.merge = true;
      } else {
        out_.push_back(taint_finding(
            "merge-unjustified", config_.path, decl.line,
            "merge kind '" + decl.kind + "' is not justified (only "
            "'commutative' merges launder partition taint)",
            decl.text));
      }
    }
    if (!matched && !subset_) {
      out_.push_back(taint_finding(
          "stale-merge", config_.path, decl.line,
          "merge entry matches no function definition; remove it or fix the "
          "suffix",
          decl.text));
    }
  }
  for (const SinkDecl& decl : config_.sinks) {
    if (decl.member) sink_members_.insert(decl.pattern);
  }
}

void Analysis::record_hit(const TNode& n, std::size_t line,
                          const std::string& name, std::ptrdiff_t step,
                          bool justified) {
  std::ostringstream key;
  key << n.def.path << ':' << line << ':' << name;
  if (hit_index_.count(key.str()) > 0) return;
  hit_index_.emplace(key.str(), hits_.size());
  hits_.push_back(Hit{n.file, line, name, step, justified});
}

void Analysis::do_write(TNode& n, const Target& tg, std::size_t line,
                        std::ptrdiff_t cause) {
  if (!tg.valid) return;
  const std::ptrdiff_t st = add_step(
      n, line, n.def.short_name + ": " + tg.display + " <- tainted", cause);
  if (tg.member) {
    const bool sink = sink_members_.count(tg.name) > 0;
    if (n.merge) {
      // An order-independent merge launders the flow: no global member
      // taint, and a sink hit here is justified.
      n.merge_used = true;
      if (sink) record_hit(n, line, tg.name, st, /*justified=*/true);
      return;
    }
    if (members_.emplace(member_key(n, tg.name), st).second) changed_ = true;
    if (sink) record_hit(n, line, tg.name, st, /*justified=*/false);
  } else {
    if (n.locals.emplace(tg.name, st).second) changed_ = true;
  }
}

Target Analysis::classify(const TNode& n, std::ptrdiff_t k) const {
  Target tg;
  if (k < 0) return tg;
  if (txt(n, static_cast<std::size_t>(k)) == "]") {
    // `a[i] = x`: the write targets the container `a`.
    int depth = 0;
    std::ptrdiff_t j = k;
    while (j >= 0) {
      const std::string& s = txt(n, static_cast<std::size_t>(j));
      if (s == "]") {
        ++depth;
      } else if (s == "[") {
        if (--depth == 0) break;
      }
      --j;
    }
    if (j <= 0) return tg;
    k = j - 1;
  }
  const Token& t = tok(n, static_cast<std::size_t>(k));
  if (!t.ident) return tg;
  tg.name = t.text;
  const std::string prev =
      k >= 1 ? txt(n, static_cast<std::size_t>(k - 1)) : "";
  if (prev == "." || prev == "->") {
    tg.member = true;
    const bool recv =
        k >= 2 && tok(n, static_cast<std::size_t>(k - 2)).ident;
    tg.display =
        recv ? txt(n, static_cast<std::size_t>(k - 2)) + "." + tg.name
             : tg.name;
  } else if (!tg.name.empty() && tg.name.back() == '_') {
    tg.member = true;  // repo convention: trailing underscore = member field
    tg.display = tg.name;
  } else {
    tg.display = tg.name;
  }
  tg.valid = true;
  return tg;
}

std::size_t Analysis::match_paren(const TNode& n, std::size_t open) const {
  int depth = 0;
  for (std::size_t k = open; k < n.body.size(); ++k) {
    const std::string& s = txt(n, k);
    if (s == "(") {
      ++depth;
    } else if (s == ")") {
      if (--depth == 0) return k;
    }
  }
  return n.body.size();
}

std::size_t Analysis::stmt_end(const TNode& n, std::size_t from) const {
  int pd = 0;
  int bd = 0;
  const std::size_t limit = std::min(n.body.size(), from + 400);
  for (std::size_t k = from; k < limit; ++k) {
    const std::string& s = txt(n, k);
    if (s == "(" || s == "[") {
      ++pd;
    } else if (s == ")" || s == "]") {
      if (--pd < 0) return k;
    } else if (s == "{") {
      ++bd;
    } else if (s == "}") {
      if (--bd < 0) return k;
    } else if (s == ";" && pd == 0 && bd == 0) {
      return k;
    }
  }
  return limit;
}

std::ptrdiff_t Analysis::scan_reads(TNode& n, std::size_t from,
                                    std::size_t to) {
  for (std::size_t k = from; k < to && k < n.body.size(); ++k) {
    const Token& t = tok(n, k);
    if (t.text == "[") {
      // Selection: `a[tainted_lane]` reads clean data through a tainted
      // *index*; skip the subscript so the index does not taint the read.
      int depth = 0;
      while (k < to && k < n.body.size()) {
        const std::string& s = txt(n, k);
        if (s == "[") {
          ++depth;
        } else if (s == "]") {
          if (--depth == 0) break;
        }
        ++k;
      }
      continue;
    }
    if (!t.ident) continue;
    if (is(n, k + 1, "(")) {
      const auto it = n.sites.find(std::make_pair(t.line, t.text));
      if (it != n.sites.end()) {
        const SiteInfo& si = it->second;
        for (const SourceDecl& decl : config_.sources) {
          if (suffix_match(si.written, decl.pattern)) {
            return add_step(n, t.line,
                            n.def.short_name + ": calls partition source '" +
                                si.written + "'",
                            -1);
          }
        }
        const bool generic =
            si.has_receiver && generic_receiver_calls().count(t.text) > 0;
        if (!generic) {
          for (const std::size_t c : si.cands) {
            if (nodes_[c].returns_taint < 0) continue;
            if (nodes_[c].returns_param_only) {
              // 1-level context sensitivity: parameter-derived return taint
              // activates only when THIS call passes a tainted argument.
              const std::size_t aclose = match_paren(n, k + 1);
              const std::ptrdiff_t ah = scan_reads(n, k + 2, aclose);
              if (ah < 0 || is_weak(ah)) continue;
            }
            return add_step(n, t.line,
                            n.def.short_name + ": call to '" + t.text +
                                "' returns tainted",
                            nodes_[c].returns_taint);
          }
          if (!si.cands.empty()) {
            // Resolved repo call whose result is (so far) clean: its
            // arguments flow through the callee, not into this expression.
            k = match_paren(n, k + 1);
            continue;
          }
        }
      }
      continue;  // external: tainted args taint the result (keep scanning)
    }
    const std::string prev = k >= 1 ? txt(n, k - 1) : "";
    if (prev == "." || prev == "->") {
      const auto im = members_.find(member_key(n, t.text));
      if (im != members_.end()) return im->second;
      if (k >= 2 && tok(n, k - 2).ident) {
        const auto il = n.locals.find(txt(n, k - 2));
        if (il != n.locals.end()) return il->second;
      }
      continue;
    }
    const auto il = n.locals.find(t.text);
    if (il != n.locals.end()) return il->second;
    if (!t.text.empty() && t.text.back() == '_') {
      const auto im = members_.find(member_key(n, t.text));
      if (im != members_.end()) return im->second;
    }
  }
  return -1;
}

void Analysis::scan(std::size_t ni) {
  TNode& n = nodes_[ni];
  struct Frame {
    std::ptrdiff_t own = -1;
    std::ptrdiff_t eff = -1;
  };
  std::vector<Frame> stack;
  std::ptrdiff_t pending = -1;
  std::size_t pending_after = 0;
  std::ptrdiff_t last_pop = -1;
  int pdepth = 0;

  auto eff = [&](std::size_t k) -> std::ptrdiff_t {
    if (pending >= 0 && k > pending_after) return pending;
    return stack.empty() ? -1 : stack.back().eff;
  };

  for (std::size_t k = 0; k < n.body.size(); ++k) {
    const Token& t = tok(n, k);
    const std::string& s = t.text;
    if (s == "{") {
      Frame f;
      f.own = pending;
      f.eff = pending >= 0 ? pending : (stack.empty() ? -1 : stack.back().eff);
      stack.push_back(f);
      pending = -1;
      continue;
    }
    if (s == "}") {
      if (!stack.empty()) {
        last_pop = stack.back().own;
        stack.pop_back();
      }
      continue;
    }
    if (s == "(") {
      ++pdepth;
      continue;
    }
    if (s == ")") {
      --pdepth;
      continue;
    }
    if (s == ";" && pdepth == 0) {
      pending = -1;
      continue;
    }

    // Increments: `++`/`--` lex as doubled single-char tokens.
    if ((s == "+" || s == "-") && is(n, k + 1, s.c_str())) {
      const std::ptrdiff_t e = eff(k);
      if (e >= 0) {
        Target tg;
        if (k + 2 < n.body.size() && tok(n, k + 2).ident) {
          // Prefix: walk the member chain forward to the final field.
          std::size_t f = k + 2;
          while (f + 2 < n.body.size() &&
                 (is(n, f + 1, ".") || is(n, f + 1, "->")) &&
                 tok(n, f + 2).ident) {
            f += 2;
          }
          tg = classify(n, static_cast<std::ptrdiff_t>(f));
        } else if (k >= 1) {
          tg = classify(n, static_cast<std::ptrdiff_t>(k) - 1);
        }
        if (tg.valid) do_write(n, tg, t.line, e);
      }
      ++k;
      continue;
    }

    if (!t.ident) {
      if (s == "=") {
        const std::string prev = k >= 1 ? txt(n, k - 1) : "";
        if (is(n, k + 1, "=") || prev == "=" || prev == "<" || prev == ">" ||
            prev == "!") {
          continue;  // comparison, not assignment
        }
        std::ptrdiff_t lhs_end = static_cast<std::ptrdiff_t>(k) - 1;
        if (compound_op(prev)) --lhs_end;
        const Target tg = classify(n, lhs_end);
        if (!tg.valid) continue;
        const std::ptrdiff_t rhs =
            scan_reads(n, k + 1, stmt_end(n, k + 1));
        const std::ptrdiff_t cause = rhs >= 0 ? rhs : eff(k);
        if (cause >= 0) do_write(n, tg, t.line, cause);
      }
      continue;
    }

    if (s == "else") {
      if (last_pop >= 0) {
        pending = last_pop;
        pending_after = k;
      }
      continue;
    }

    if ((s == "if" || s == "while" || s == "switch") && is(n, k + 1, "(")) {
      const std::size_t close = match_paren(n, k + 1);
      const std::ptrdiff_t h = scan_reads(n, k + 2, close);
      if (h >= 0) {
        pending = add_step(
            n, t.line,
            n.def.short_name + ": tainted '" + s + "' condition", h,
            /*ctl=*/true);
        pending_after = close;
      }
      continue;
    }

    if (s == "for" && is(n, k + 1, "(")) {
      const std::size_t close = match_paren(n, k + 1);
      // Range-for: a top-level ':' with no ';' before it.
      std::size_t colon = 0;
      int depth = 0;
      for (std::size_t j = k + 2; j < close; ++j) {
        const std::string& u = txt(n, j);
        if (u == "(" || u == "[" || u == "{") {
          ++depth;
        } else if (u == ")" || u == "]" || u == "}") {
          --depth;
        } else if (u == ";" && depth == 0) {
          break;
        } else if (u == ":" && depth == 0) {
          colon = j;
          break;
        }
      }
      std::ptrdiff_t h = -1;
      if (colon > 0) {
        h = scan_reads(n, colon + 1, close);
        if (h >= 0) {
          // The loop variable reads elements of a tainted range.
          std::ptrdiff_t var = -1;
          for (std::size_t j = k + 2; j < colon; ++j) {
            if (tok(n, j).ident) var = static_cast<std::ptrdiff_t>(j);
          }
          if (var >= 0) {
            const std::string& v = txt(n, static_cast<std::size_t>(var));
            const std::ptrdiff_t st = add_step(
                n, t.line,
                n.def.short_name + ": '" + v + "' ranges over tainted data",
                h);
            if (n.locals.emplace(v, st).second) changed_ = true;
          }
        }
      } else {
        h = scan_reads(n, k + 2, close);
      }
      if (h >= 0) {
        pending = add_step(n, t.line,
                           n.def.short_name + ": tainted loop bound", h,
                           /*ctl=*/true);
        pending_after = close;
      }
      continue;
    }

    if (s == "return") {
      if (!n.merge) {
        const std::ptrdiff_t h = scan_reads(n, k + 1, stmt_end(n, k + 1));
        if (h >= 0 && !is_weak(h) && n.returns_taint < 0) {
          n.returns_taint = add_step(
              n, t.line, n.def.short_name + ": returns tainted value", h);
          // Did the taint enter through one of our own parameters?  The
          // nearest parameter-entry hop in the chain decides.
          for (std::ptrdiff_t w = h; w >= 0;
               w = arena_[static_cast<std::size_t>(w)].prev) {
            const std::ptrdiff_t po =
                arena_[static_cast<std::size_t>(w)].param_of;
            if (po >= 0) {
              n.returns_param_only = po == static_cast<std::ptrdiff_t>(ni);
              break;
            }
          }
          changed_ = true;
        }
      }
      continue;
    }

    // Call handling.
    if (is(n, k + 1, "(")) {
      const auto it = n.sites.find(std::make_pair(t.line, t.text));
      if (it == n.sites.end()) continue;
      const SiteInfo& si = it->second;
      const std::size_t close = match_paren(n, k + 1);
      const std::ptrdiff_t e = eff(k);
      const std::ptrdiff_t argt = scan_reads(n, k + 2, close);

      // Mutating member call: writes through its receiver.
      if (si.has_receiver && k >= 2 &&
          mutating_member_calls().count(t.text) > 0 &&
          (argt >= 0 || e >= 0)) {
        const Target tg = classify(n, static_cast<std::ptrdiff_t>(k) - 2);
        if (tg.valid) do_write(n, tg, t.line, argt >= 0 ? argt : e);
      }

      // Parameter taint: tainted argument position k taints the callee's
      // k-th parameter.  Generic container-method names are exempt — their
      // resolved candidates are routinely the wrong class.
      if (!si.cands.empty() &&
          !(si.has_receiver && generic_receiver_calls().count(t.text) > 0)) {
        std::size_t pos = 0;
        std::size_t seg = k + 2;
        int depth = 0;
        for (std::size_t j = k + 2; j <= close && j < n.body.size(); ++j) {
          const std::string& u = txt(n, j);
          const bool end_of_args = j == close && depth == 0;
          if (u == "(" || u == "[" || u == "{") {
            ++depth;
          } else if ((u == ")" || u == "]" || u == "}") && !end_of_args) {
            --depth;
          }
          if ((u == "," && depth == 0) || end_of_args) {
            // A lambda literal is not a value whose taint reaches the
            // callee's parameter — its body is analyzed in place as part of
            // THIS function, and treating its captured reads as the
            // argument would taint unrelated same-name callees.
            const bool lambda_arg = j > seg && txt(n, seg) == "[";
            if (j > seg && !lambda_arg) {
              const std::ptrdiff_t h = scan_reads(n, seg, j);
              if (h >= 0 && !is_weak(h)) {
                for (const std::size_t c : si.cands) {
                  TNode& callee = nodes_[c];
                  if (pos >= callee.def.params.size()) continue;
                  const std::string& p = callee.def.params[pos];
                  if (p.empty()) continue;
                  const std::ptrdiff_t st = add_step(
                      n, t.line,
                      callee.def.short_name + ": parameter '" + p +
                          "' tainted via call from " + n.def.short_name,
                      h);
                  arena_[static_cast<std::size_t>(st)].param_of =
                      static_cast<std::ptrdiff_t>(c);
                  if (callee.locals.emplace(p, st).second) changed_ = true;
                }
              }
            }
            ++pos;
            seg = j + 1;
          }
          if (end_of_args) break;
        }
      }

      // Sink function: a tainted argument reaching a declared emitter.
      if (argt >= 0) {
        for (const SinkDecl& decl : config_.sinks) {
          if (decl.member) continue;
          bool match = suffix_match(si.written, decl.pattern);
          for (const std::size_t c : si.cands) {
            if (suffix_match(nodes_[c].def.qualified, decl.pattern)) {
              match = true;
            }
          }
          if (!match) continue;
          const std::ptrdiff_t st = add_step(
              n, t.line,
              n.def.short_name + ": tainted argument to sink '" +
                  decl.pattern + "'",
              argt);
          if (n.merge) {
            n.merge_used = true;
            record_hit(n, t.line, decl.pattern, st, /*justified=*/true);
          } else {
            record_hit(n, t.line, decl.pattern, st, /*justified=*/false);
          }
        }
      }

      // Out-parameter conservatism: under tainted control, a member passed
      // by explicit address-of (`fill(&ls.count, ...)`) is treated as
      // written through.  Plain by-value / by-reference member arguments are
      // NOT — treating every `f(problem_)` as a write to `problem_` floods
      // the whole tree with taint through shared read-only state
      // (param-taint already carries the flow into resolved callees).
      if (e >= 0) {
        for (std::size_t j = k + 2; j < close; ++j) {
          const Token& a = tok(n, j);
          if (!a.ident || is(n, j + 1, "(")) continue;
          const std::string prev = txt(n, j - 1);
          const bool member_form =
              prev == "." || prev == "->" ||
              (!a.text.empty() && a.text.back() == '_');
          if (!member_form) continue;
          // Walk to the front of the member chain; require `&` in argument
          // position (preceded by `(` or `,`) to rule out bitwise-and.
          std::size_t s2 = j;
          while (s2 >= 2 && (txt(n, s2 - 1) == "." || txt(n, s2 - 1) == "->"))
            s2 -= 2;
          if (s2 == 0 || txt(n, s2 - 1) != "&") continue;
          if (s2 >= 2 && txt(n, s2 - 2) != "(" && txt(n, s2 - 2) != ",")
            continue;
          const Target tg = classify(n, static_cast<std::ptrdiff_t>(j));
          if (tg.valid && tg.member) do_write(n, tg, a.line, e);
        }
      }
      continue;
    }
  }
}

void Analysis::conf_staleness() {
  if (subset_) return;
  // Sink staleness: a member sink must be accessed as a member somewhere; a
  // function sink must match a definition or a call.
  std::set<std::string> member_accessed;
  for (const SourceFile& f : files_) {
    for (std::size_t i = 1; i < f.tokens.size(); ++i) {
      if (f.tokens[i].ident &&
          (f.tokens[i - 1].text == "." || f.tokens[i - 1].text == "->")) {
        member_accessed.insert(f.tokens[i].text);
      }
    }
  }
  for (const SinkDecl& decl : config_.sinks) {
    bool matched = false;
    if (decl.member) {
      matched = member_accessed.count(decl.pattern) > 0;
    } else {
      for (const TNode& n : nodes_) {
        if (suffix_match(n.def.qualified, decl.pattern)) matched = true;
        for (const CallSite& call : n.def.calls) {
          if (suffix_match(call.written, decl.pattern)) matched = true;
        }
      }
    }
    if (!matched) {
      out_.push_back(taint_finding(
          "stale-sink", config_.path, decl.line,
          decl.member
              ? "sink member is never accessed as a field; remove the entry"
              : "sink entry matches no function definition or call; remove "
                "it",
          decl.text));
    }
  }
  // Merge staleness: a justified merge that laundered nothing and justified
  // no sink hit is dead weight.
  for (const TNode& n : nodes_) {
    if (!n.merge || n.merge_used) continue;
    if (!n.def.merge_mark_lines.empty()) {
      const std::size_t line = n.def.merge_mark_lines.front();
      out_.push_back(taint_finding(
          "stale-merge", files_[n.file].path, line,
          "SIMDLINT-MERGE(commutative) on '" + n.def.qualified +
              "' laundered no tainted flow; remove it",
          files_[n.file].line_text(line)));
      continue;
    }
    for (const MergeDecl& decl : config_.merges) {
      if (decl.kind == "commutative" &&
          suffix_match(n.def.qualified, decl.pattern)) {
        out_.push_back(taint_finding(
            "stale-merge", config_.path, decl.line,
            "merge entry on '" + n.def.qualified +
                "' laundered no tainted flow; remove it",
            decl.text));
        break;
      }
    }
  }
}

void Analysis::emit_flow_findings() {
  for (const Hit& hit : hits_) {
    if (hit.justified) continue;
    // Rebuild the provenance chain, source first.
    std::vector<std::ptrdiff_t> chain;
    for (std::ptrdiff_t s = hit.step; s >= 0 && chain.size() < 64;
         s = arena_[static_cast<std::size_t>(s)].prev) {
      chain.push_back(s);
    }
    std::reverse(chain.begin(), chain.end());
    std::ostringstream msg;
    Finding f;
    for (std::size_t i = 0; i < chain.size(); ++i) {
      const Step& st = arena_[static_cast<std::size_t>(chain[i])];
      if (i > 0) msg << " -> ";
      msg << st.note;
      f.flow.push_back(FlowStep{st.path, st.line, st.note});
    }
    msg << " [partition->result]";
    f.rule = "taint-partition-to-result";
    f.path = files_[hit.file].path;
    f.line = hit.line;
    f.message = "partition-derived value reaches result-bearing '" +
                hit.name + "' without an order-independent merge: " +
                msg.str();
    f.excerpt = files_[hit.file].line_text(hit.line);
    out_.push_back(std::move(f));
  }
}

std::vector<Finding> Analysis::run() {
  build_nodes();

  // Inline MERGE markers that attached to no function are stale (intra-file,
  // so this survives subset runs).
  for (std::size_t fi = 0; fi < files_.size(); ++fi) {
    std::set<std::size_t> consumed;
    for (const TNode& n : nodes_) {
      if (n.file != fi) continue;
      consumed.insert(n.def.merge_mark_lines.begin(),
                      n.def.merge_mark_lines.end());
    }
    for (const auto& [line, kinds] : files_[fi].merge_marks) {
      if (consumed.count(line) > 0) continue;
      out_.push_back(taint_finding(
          "stale-merge", files_[fi].path, line,
          "SIMDLINT-MERGE marker attached to no function definition; move "
          "it onto the signature or remove it",
          files_[fi].line_text(line)));
    }
  }

  setup_merges();
  seed_markers();
  seed_conf_sources();

  // Global fixpoint: rescan every body until no taint fact is added.
  // Deterministic sweep order + first-insert provenance keeps witnesses
  // byte-stable.
  changed_ = true;
  int rounds = 0;
  while (changed_ && rounds++ < 64) {
    changed_ = false;
    for (std::size_t i = 0; i < nodes_.size(); ++i) scan(i);
  }

  conf_staleness();
  emit_flow_findings();
  return out_;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> taint_rule_catalog() {
  return {
      {"taint-partition-to-result",
       "a partition-derived value (worker index, word-range bound, thread "
       "count) flows into result-bearing state without passing an "
       "order-independent merge"},
      {"merge-unjustified",
       "a SIMDLINT-MERGE marker or conf merge entry declares a kind other "
       "than 'commutative'"},
      {"stale-source",
       "a SIMDLINT-SOURCE marker taints nothing, or a conf source entry "
       "matches nothing"},
      {"stale-sink", "a conf sink entry matches no member access or function"},
      {"stale-merge",
       "a merge declaration attaches to no function or laundered no tainted "
       "flow"},
  };
}

std::vector<Finding> find_taint_findings(const std::vector<SourceFile>& files,
                                         const EffectConfig& config,
                                         bool subset) {
  Analysis analysis(files, config, subset);
  return analysis.run();
}

}  // namespace simdlint
