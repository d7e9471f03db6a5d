#include "simdlint/symbols.hpp"

#include <cctype>
#include <cstddef>
#include <deque>

namespace simdlint {

namespace {

// All scanning runs on a filtered view of the token stream that drops
// preprocessor-line tokens: macro definition bodies must not contribute
// braces (an unbalanced `#define BEGIN {` would corrupt the scope stack) or
// phantom calls to the enclosing function.
struct View {
  const std::vector<Token>& all;
  std::vector<std::size_t> idx;

  explicit View(const std::vector<Token>& tokens) : all(tokens) {
    idx.reserve(tokens.size());
    for (std::size_t i = 0; i < tokens.size(); ++i) {
      if (!tokens[i].preproc) idx.push_back(i);
    }
  }
  [[nodiscard]] const Token& operator[](std::size_t i) const {
    return all[idx[i]];
  }
  [[nodiscard]] std::size_t size() const { return idx.size(); }
  /// Raw index into SourceFile::tokens of view position `i`.
  [[nodiscard]] std::size_t raw_index(std::size_t i) const { return idx[i]; }
};

bool vtok_is(const View& t, std::size_t i, const char* text) {
  return i < t.size() && t[i].text == text;
}

std::ptrdiff_t vmatch_paren_back(const View& t, std::ptrdiff_t close) {
  int depth = 0;
  for (std::ptrdiff_t k = close; k >= 0; --k) {
    const std::string& s = t[static_cast<std::size_t>(k)].text;
    if (s == ")") {
      ++depth;
    } else if (s == "(") {
      if (--depth == 0) return k;
    }
  }
  return -1;
}

std::size_t vmatch_forward(const View& t, std::size_t open, const char* o,
                           const char* c) {
  int depth = 0;
  for (std::size_t k = open; k < t.size(); ++k) {
    if (t[k].text == o) {
      ++depth;
    } else if (t[k].text == c) {
      if (--depth == 0) return k;
    }
  }
  return t.size();
}

// Skip a `> ... <` template-argument group scanning backward from `k` (which
// points at '>').  Returns the index before the matching '<', or -1.
std::ptrdiff_t skip_template_back(const View& t, std::ptrdiff_t k) {
  int depth = 0;
  for (; k >= 0; --k) {
    const std::string& s = t[static_cast<std::size_t>(k)].text;
    if (s == ">") {
      ++depth;
    } else if (s == "<") {
      if (--depth == 0) return k - 1;
    } else if (s == ";" || s == "{" || s == "}") {
      return -1;
    }
  }
  return -1;
}

const std::set<std::string>& decoration_tokens() {
  static const std::set<std::string> kDecoration = {
      "const", "noexcept", "override", "final", "mutable", "&",
      "*",     "::",       "->",       ",",     "<",       ">",
      "requires",
  };
  return kDecoration;
}

// Scan back from `from` over signature decorations (const, noexcept,
// trailing return types, ...) to the ')' closing the parameter list.  A
// `noexcept(expr)` / `requires(expr)` group is stepped over.  Returns -1
// when no parameter-list close is in reach.
std::ptrdiff_t declarator_close(const View& t, std::ptrdiff_t from) {
  std::ptrdiff_t k = from;
  int budget = 80;
  while (k >= 0 && budget-- > 0) {
    const std::string& s = t[static_cast<std::size_t>(k)].text;
    if (s == ")") {
      const std::ptrdiff_t open = vmatch_paren_back(t, k);
      if (open < 0) return -1;
      if (open > 0) {
        const std::string& before = t[static_cast<std::size_t>(open - 1)].text;
        if (before == "noexcept" || before == "requires") {
          k = open - 1;
          continue;
        }
      }
      return k;
    }
    if (!(t[static_cast<std::size_t>(k)].ident ||
          decoration_tokens().count(s) > 0 ||
          std::isdigit(static_cast<unsigned char>(s[0])) != 0)) {
      return -1;
    }
    --k;
  }
  return -1;
}

// Tokens that close a parameter segment without being the parameter name.
const std::set<std::string>& type_only_tokens() {
  static const std::set<std::string> kNames = {
      "void", "int",   "unsigned", "signed",   "char", "bool",    "float",
      "double", "long", "short",   "auto",     "const", "volatile",
  };
  return kNames;
}

// Recover the parameter names of the list delimited by view indices
// (open, close) — both pointing at the parentheses.  Each top-level
// comma-separated segment contributes its last identifier that is not a
// qualifier prefix (next token is neither an identifier nor "::"/"<") and
// not a bare type keyword; unnamed slots contribute "".
std::vector<std::string> param_names(const View& t, std::ptrdiff_t open,
                                     std::ptrdiff_t close) {
  std::vector<std::string> out;
  if (open < 0 || close <= open + 1) return out;
  int paren = 0;
  int angle = 0;
  int brace = 0;
  std::string name;
  bool defaulted = false;  // saw a top-level '=': name is already fixed
  auto flush = [&] {
    out.push_back(type_only_tokens().count(name) > 0 ? std::string() : name);
    name.clear();
    defaulted = false;
  };
  for (std::ptrdiff_t k = open + 1; k < close; ++k) {
    const std::string& s = t[static_cast<std::size_t>(k)].text;
    if (s == "(" || s == "[") {
      ++paren;
    } else if (s == ")" || s == "]") {
      --paren;
    } else if (s == "{") {
      ++brace;
    } else if (s == "}") {
      --brace;
    } else if (s == "<") {
      ++angle;
    } else if (s == ">") {
      if (angle > 0) --angle;
    } else if (s == "," && paren == 0 && angle == 0 && brace == 0) {
      flush();
      continue;
    } else if (s == "=" && paren == 0 && angle == 0 && brace == 0) {
      defaulted = true;
    } else if (!defaulted && paren == 0 && angle == 0 && brace == 0 &&
               t[static_cast<std::size_t>(k)].ident) {
      const std::size_t n = static_cast<std::size_t>(k) + 1;
      const bool qualifier = n < t.size() && (t[n].ident || t[n].text == "::" ||
                                              t[n].text == "<");
      if (!qualifier) name = s;
    }
  }
  flush();
  return out;
}

// Names that a declarator heuristic can land on which are never function
// names.
const std::set<std::string>& non_function_names() {
  static const std::set<std::string> kNames = {
      "if",       "for",     "while",   "switch", "catch",  "return",
      "decltype", "sizeof",  "alignof", "noexcept", "requires",
      "constexpr", "static_assert",
  };
  return kNames;
}

struct NameChain {
  std::vector<std::string> components;  // e.g. {"Engine", "expand_cycle"}
  std::ptrdiff_t begin = -1;            // view index of the first chain token
  std::size_t name_line = 0;            // line of the last component
};

// Recover the declarator name chain ending at `end` (the token just before
// the parameter-list '('): `name`, `Class::name`, `ns::Class<T>::name`,
// `~Name`, `Class::operator==`.  Empty components when `end` is not a name.
NameChain name_chain(const View& t, std::ptrdiff_t end) {
  NameChain out;
  std::deque<std::string> parts;
  std::ptrdiff_t k = end;
  if (k < 0) return out;

  if (!t[static_cast<std::size_t>(k)].ident) {
    // Possibly `operator==` / `operator()`: symbol tokens then "operator".
    std::string symbol;
    int budget = 3;
    while (k >= 0 && budget-- > 0 && !t[static_cast<std::size_t>(k)].ident) {
      symbol = t[static_cast<std::size_t>(k)].text + symbol;
      --k;
    }
    if (k < 0 || t[static_cast<std::size_t>(k)].text != "operator") return out;
    parts.push_front("operator" + symbol);
    out.name_line = t[static_cast<std::size_t>(k)].line;
    --k;
  } else {
    std::string name = t[static_cast<std::size_t>(k)].text;
    out.name_line = t[static_cast<std::size_t>(k)].line;
    --k;
    if (k >= 0 && t[static_cast<std::size_t>(k)].text == "~") {
      name = "~" + name;
      --k;
    }
    parts.push_front(name);
  }

  // Walk the `Qual::`* prefix, stepping over template argument lists.
  while (k >= 1 && t[static_cast<std::size_t>(k)].text == "::") {
    std::ptrdiff_t q = k - 1;
    if (t[static_cast<std::size_t>(q)].text == ">") {
      q = skip_template_back(t, q);
      if (q < 0) break;
    }
    if (q < 0 || !t[static_cast<std::size_t>(q)].ident) break;
    parts.push_front(t[static_cast<std::size_t>(q)].text);
    k = q - 1;
  }

  out.begin = k + 1;
  out.components.assign(parts.begin(), parts.end());
  return out;
}

enum class BraceKind { kNamespace, kType, kFunction, kLoop, kBlock, kOther };

struct Classified {
  BraceKind kind = BraceKind::kOther;
  std::string scope_name;       // namespace / type name
  NameChain chain;              // function declarator, for kFunction
  std::ptrdiff_t decl_close = -1;  // ')' of the parameter list
};

// Find the ':' opening a constructor initializer list between the real
// declarator and `from`, scanning backward at brace/paren depth 0.  Returns
// the index of the ':' or -1.
std::ptrdiff_t ctor_init_colon(const View& t, std::ptrdiff_t from) {
  std::ptrdiff_t j = from;
  int pdepth = 0;
  int budget = 300;
  while (j >= 0 && budget-- > 0) {
    const std::string& s = t[static_cast<std::size_t>(j)].text;
    if (s == ";") break;
    if (s == ")") {
      ++pdepth;
    } else if (s == "(") {
      --pdepth;
    } else if (s == "}" && pdepth == 0) {
      // Match back to the opening '{' and look at what precedes it: an
      // identifier means a member brace-init (`b_{y}`) the scan can step
      // over; anything else means this is a code body (e.g. the previous
      // function's `{}`) — there is no init list between it and `from`.
      int depth = 1;
      std::ptrdiff_t k = j - 1;
      while (k >= 0 && depth > 0 && budget-- > 0) {
        const std::string& u = t[static_cast<std::size_t>(k)].text;
        if (u == "}") {
          ++depth;
        } else if (u == "{") {
          --depth;
        }
        --k;
      }
      if (depth != 0 || k < 0 || !t[static_cast<std::size_t>(k)].ident ||
          non_function_names().count(t[static_cast<std::size_t>(k)].text) >
              0) {
        return -1;
      }
      j = k + 1;  // resume at the member name introducing the brace-init
    } else if (s == "{" && pdepth == 0) {
      break;  // enclosing scope opener: no colon before the declarator
    } else if (s == ":" && pdepth == 0) {
      // Only a ctor-init colon when it directly follows the parameter list
      // (possibly via noexcept); `public:` and friends do not qualify.
      if (j > 0) {
        const std::string& before = t[static_cast<std::size_t>(j - 1)].text;
        if (before == ")" || before == "noexcept") return j;
      }
      return -1;
    }
    --j;
  }
  return -1;
}

Classified classify_brace(const View& t, std::size_t i) {
  Classified out;
  if (i == 0) return out;
  const std::string& prev = t[i - 1].text;
  if (prev == "do" || prev == "else" || prev == "try") {
    out.kind = BraceKind::kBlock;
    return out;
  }

  // `namespace a::b {` / anonymous `namespace {`.
  {
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    std::deque<std::string> parts;
    while (k >= 0 && (t[static_cast<std::size_t>(k)].ident ||
                      t[static_cast<std::size_t>(k)].text == "::")) {
      if (t[static_cast<std::size_t>(k)].text == "namespace") {
        out.kind = BraceKind::kNamespace;
        std::string joined;
        for (const std::string& p : parts) {
          if (!joined.empty()) joined += "::";
          joined += p;
        }
        out.scope_name = joined;
        return out;
      }
      if (t[static_cast<std::size_t>(k)].ident) {
        parts.push_front(t[static_cast<std::size_t>(k)].text);
      }
      --k;
    }
  }

  // Function-ish: `...) {`, with decorations or a ctor initializer list
  // between the parameter list and the brace.
  std::ptrdiff_t close = declarator_close(t, static_cast<std::ptrdiff_t>(i) - 1);
  if (close >= 0) {
    const std::ptrdiff_t open = vmatch_paren_back(t, close);
    if (open >= 0) {
      const std::string kw =
          open > 0 ? t[static_cast<std::size_t>(open - 1)].text : "";
      if (kw == "for" || kw == "while") {
        out.kind = BraceKind::kLoop;
        return out;
      }
      if (kw == "if" || kw == "switch" || kw == "catch" || kw == "constexpr") {
        out.kind = BraceKind::kBlock;
        return out;
      }
      if (kw == "]") {
        out.kind = BraceKind::kFunction;  // lambda: attributed to encloser
        return out;
      }
      NameChain chain = name_chain(t, open - 1);
      // The candidate may be the last entry of a ctor initializer list
      // (`Engine(...) : a_(x), b_(y) {`): look for the introducing ':' and
      // re-derive the declarator from before it.
      const std::ptrdiff_t colon =
          ctor_init_colon(t, chain.begin >= 0 ? chain.begin - 1
                                              : open - 1);
      if (colon > 0) {
        const std::ptrdiff_t real_close = declarator_close(t, colon - 1);
        if (real_close >= 0) {
          const std::ptrdiff_t real_open = vmatch_paren_back(t, real_close);
          if (real_open > 0) {
            chain = name_chain(t, real_open - 1);
            close = real_close;
          }
        }
      }
      if (!chain.components.empty() &&
          non_function_names().count(chain.components.back()) == 0) {
        out.kind = BraceKind::kFunction;
        out.chain = std::move(chain);
        out.decl_close = close;
        return out;
      }
      if (!chain.components.empty()) {
        out.kind = BraceKind::kBlock;
        return out;
      }
    }
  }

  // `struct X : A, B {`, `enum class E : std::uint8_t {`.
  {
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    int budget = 100;
    while (k >= 0 && budget-- > 0) {
      const std::string& s = t[static_cast<std::size_t>(k)].text;
      if (s == ";" || s == "{" || s == "}" || s == ")" || s == "=") break;
      if (s == "struct" || s == "class" || s == "union" || s == "enum") {
        out.kind = BraceKind::kType;
        for (std::size_t n = static_cast<std::size_t>(k) + 1; n < i; ++n) {
          if (t[n].ident && t[n].text != "class" && t[n].text != "final" &&
              t[n].text != "alignas") {
            out.scope_name = t[n].text;
            break;
          }
        }
        return out;
      }
      --k;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Intrinsic effect tables (token-level; call-shaped intrinsics like
// push_back are resolved in effects.cpp where repo definitions can win).
// ---------------------------------------------------------------------------

const std::set<std::string>& lock_type_names() {
  static const std::set<std::string> kNames = {
      "mutex",          "recursive_mutex", "timed_mutex",
      "recursive_timed_mutex", "shared_mutex", "shared_timed_mutex",
      "lock_guard",     "unique_lock",     "scoped_lock",
      "shared_lock",    "condition_variable", "condition_variable_any",
  };
  return kNames;
}

const std::set<std::string>& io_names() {
  static const std::set<std::string> kNames = {
      "cout",    "cerr",  "clog",    "printf", "fprintf", "fputs",
      "fwrite",  "fopen", "freopen", "fscanf", "scanf",   "ofstream",
      "ifstream", "fstream", "getenv", "putenv", "setenv", "system",
  };
  return kNames;
}

const std::set<std::string>& nondet_idents() {
  static const std::set<std::string> kNames = {
      "rand",    "srand",   "rand_r",  "drand48", "lrand48",
      "mrand48", "erand48", "random_shuffle", "random_device",
      "system_clock", "steady_clock", "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get", "localtime", "gmtime",
  };
  return kNames;
}

// Standard containers that own heap storage: constructing one with
// arguments (a size, a fill value, an initializer list, a range) allocates.
const std::set<std::string>& owning_container_names() {
  static const std::set<std::string> kNames = {
      "vector",   "string",   "basic_string", "deque",
      "list",     "forward_list", "map",      "multimap",
      "set",      "multiset", "unordered_map", "unordered_multimap",
      "unordered_set", "unordered_multiset",
  };
  return kNames;
}

/// True when the container type name at `i` (std-qualified or followed by
/// template arguments, so a plain member call `set(...)` never matches)
/// starts a construction with arguments: `T<...> v(args)`, `T<...> v{args}`
/// or the temporary `T<...>(args)`.  Empty `()` / `{}` and declarations
/// without an initializer construct empty containers, which do not allocate.
bool constructs_owning_container(const View& t, std::size_t i) {
  if (owning_container_names().count(t[i].text) == 0) return false;
  const bool std_q = i >= 2 && t[i - 1].text == "::" && t[i - 2].text == "std";
  std::size_t k = i + 1;
  bool templated = false;
  if (vtok_is(t, k, "<")) {
    const std::size_t close = vmatch_forward(t, k, "<", ">");
    if (close == t.size()) return false;
    k = close + 1;
    templated = true;
  }
  if (!std_q && !templated) return false;
  if (k < t.size() && t[k].ident) ++k;  // the declared variable, if any
  if (vtok_is(t, k, "(")) return !vtok_is(t, k + 1, ")");
  if (vtok_is(t, k, "{")) return !vtok_is(t, k + 1, "}");
  return false;
}

const std::set<std::string>& nondet_call_names() {
  static const std::set<std::string> kNames = {"time", "clock"};
  return kNames;
}

// Identifiers that look like calls but never are.
const std::set<std::string>& never_calls() {
  static const std::set<std::string> kNames = {
      "if",       "for",      "while",    "switch",  "return", "sizeof",
      "alignof",  "alignas",  "case",     "catch",   "new",    "delete",
      "throw",    "defined",  "decltype", "noexcept", "requires",
      "static_assert", "operator", "typeid",
  };
  return kNames;
}

// Identifier-ish previous tokens after which an identifier is still a call
// (not a declaration): `return foo(...)`, `co_return f(...)`, ...
const std::set<std::string>& prev_allows_call() {
  static const std::set<std::string> kNames = {
      "return", "throw", "else",    "do",       "case",
      "co_return", "co_await", "co_yield", "and", "or", "not",
  };
  return kNames;
}

void collect_call(const View& t, std::size_t i, FunctionDef& fn) {
  CallSite call;
  call.line = t[i].line;
  call.last_name = t[i].text;
  if (i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->")) {
    call.has_receiver = true;
    if (i >= 2 && t[i - 2].ident) {
      call.receiver = t[i - 2].text;
      call.receiver_this = t[i - 2].text == "this";
    }
    call.written = call.last_name;
  } else if (i > 0 && t[i - 1].text == "::") {
    std::deque<std::string> parts;
    parts.push_front(t[i].text);
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(i) - 1;
    while (k >= 1 && t[static_cast<std::size_t>(k)].text == "::") {
      std::ptrdiff_t q = k - 1;
      if (t[static_cast<std::size_t>(q)].text == ">") {
        q = skip_template_back(t, q);
        if (q < 0) break;
      }
      if (q < 0 || !t[static_cast<std::size_t>(q)].ident) break;
      parts.push_front(t[static_cast<std::size_t>(q)].text);
      k = q - 1;
    }
    std::string joined;
    for (const std::string& p : parts) {
      if (!joined.empty()) joined += "::";
      joined += p;
    }
    call.written = joined;
    call.std_qualified =
        parts.front() == "std" || parts.front().compare(0, 2, "__") == 0;
  } else {
    if (i > 0) {
      const Token& p = t[i - 1];
      if (p.ident && prev_allows_call().count(p.text) == 0) return;
      if (p.text == "*" || p.text == "&") return;
    }
    call.written = call.last_name;
  }
  fn.calls.push_back(std::move(call));
}

void scan_body_token(const View& t, std::size_t i, FunctionDef& fn) {
  const Token& tok = t[i];
  if (!tok.ident) return;
  const bool member_access =
      i > 0 && (t[i - 1].text == "." || t[i - 1].text == "->");

  if (tok.text == "try") {
    fn.has_try = true;
    return;
  }

  if (tok.text == "new") {
    if (i > 0 && t[i - 1].text == "operator") return;
    if (vtok_is(t, i + 1, "(")) return;  // placement new: no allocation
    fn.intrinsics.push_back({"allocates", "operator new", tok.line});
    return;
  }

  if (tok.text == "throw") {
    if (vtok_is(t, i + 1, ";")) return;  // bare rethrow inside a handler
    // The thrown type is the last identifier before the constructor '(' /
    // '{'; the repo convention is that typed error classes end in "Error".
    std::string type_name;
    for (std::size_t k = i + 1; k < t.size() && k < i + 40; ++k) {
      const std::string& s = t[k].text;
      if (s == ";" || s == "(" || s == "{") break;
      if (t[k].ident) type_name = s;
    }
    const bool typed = type_name.size() >= 5 &&
                       type_name.compare(type_name.size() - 5, 5, "Error") == 0;
    if (!typed) {
      fn.intrinsics.push_back(
          {"throws-untyped",
           type_name.empty() ? "throw" : "throw " + type_name, tok.line});
    }
    fn.intrinsics.push_back(
        {"throws", type_name.empty() ? "throw" : "throw " + type_name,
         tok.line});
    return;
  }

  if (!member_access) {
    if (constructs_owning_container(t, i)) {
      fn.intrinsics.push_back(
          {"allocates", "std::" + tok.text + " constructor", tok.line});
      return;
    }
    if (lock_type_names().count(tok.text) > 0) {
      fn.intrinsics.push_back({"locks", "std::" + tok.text, tok.line});
      return;
    }
    if (io_names().count(tok.text) > 0) {
      fn.intrinsics.push_back({"does-io", tok.text, tok.line});
      return;
    }
    if (nondet_idents().count(tok.text) > 0) {
      fn.intrinsics.push_back({"nondet", tok.text, tok.line});
      return;
    }
    if (nondet_call_names().count(tok.text) > 0 && vtok_is(t, i + 1, "(")) {
      const bool plain =
          i == 0 || (!t[i - 1].ident && t[i - 1].text != "." &&
                     t[i - 1].text != "->" && t[i - 1].text != "::") ||
          (i > 0 && t[i - 1].ident &&
           prev_allows_call().count(t[i - 1].text) > 0);
      const bool std_q = i >= 2 && t[i - 1].text == "::" &&
                         t[i - 2].text == "std";
      if (plain || std_q) {
        fn.intrinsics.push_back({"nondet", tok.text + "()", tok.line});
        return;
      }
    }
  }

  if (never_calls().count(tok.text) > 0) return;

  // Call site: `name(...)` or `name<T...>(...)`.
  if (vtok_is(t, i + 1, "(")) {
    collect_call(t, i, fn);
  } else if (vtok_is(t, i + 1, "<")) {
    const std::size_t close = vmatch_forward(t, i + 1, "<", ">");
    if (close < t.size() && close < i + 24 && vtok_is(t, close + 1, "(")) {
      collect_call(t, i, fn);
    }
  }
}

}  // namespace

std::vector<FunctionDef> extract_functions(const SourceFile& file) {
  const View t(file.tokens);
  std::vector<FunctionDef> out;

  struct Scope {
    BraceKind kind;
    std::string name;
    bool fn_body = false;  // the body brace of the outermost function
  };
  std::vector<Scope> stack;
  std::ptrdiff_t current_fn = -1;

  auto scope_prefix = [&stack]() {
    std::string joined;
    for (const Scope& s : stack) {
      if ((s.kind == BraceKind::kNamespace || s.kind == BraceKind::kType) &&
          !s.name.empty()) {
        if (!joined.empty()) joined += "::";
        joined += s.name;
      }
    }
    return joined;
  };

  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].text == "{") {
      Classified c = classify_brace(t, i);
      bool fn_body = false;
      if (c.kind == BraceKind::kFunction && current_fn < 0 &&
          !c.chain.components.empty()) {
        FunctionDef fn;
        fn.path = file.path;
        fn.short_name = c.chain.components.back();
        fn.line = c.chain.name_line;

        std::string qualified = scope_prefix();
        for (const std::string& p : c.chain.components) {
          if (!qualified.empty()) qualified += "::";
          qualified += p;
        }
        fn.qualified = std::move(qualified);

        // Signature start: back to the previous top-level terminator, so
        // `template <...>` intros and multi-line signatures are covered.
        // `static` anywhere in that prefix marks a static member.
        {
          std::ptrdiff_t k =
              c.chain.begin >= 0 ? c.chain.begin : static_cast<std::ptrdiff_t>(i);
          int budget = 200;
          while (k > 0 && budget-- > 0) {
            const std::string& s = t[static_cast<std::size_t>(k - 1)].text;
            if (s == ";" || s == "}" || s == "{") break;
            if (s == "static") fn.is_static = true;
            --k;
          }
          fn.sig_line = t[static_cast<std::size_t>(k)].line;
        }

        // noexcept between the parameter list and the brace (but not
        // noexcept(false)).
        for (std::ptrdiff_t k = c.decl_close + 1;
             k >= 0 && k < static_cast<std::ptrdiff_t>(i); ++k) {
          if (t[static_cast<std::size_t>(k)].text != "noexcept") continue;
          if (vtok_is(t, static_cast<std::size_t>(k) + 1, "(") &&
              vtok_is(t, static_cast<std::size_t>(k) + 2, "false") &&
              vtok_is(t, static_cast<std::size_t>(k) + 3, ")")) {
            continue;
          }
          fn.is_noexcept = true;
        }

        // Inline region markers on the line above or within the signature.
        const std::size_t lo = fn.sig_line > 1 ? fn.sig_line - 1 : 1;
        const std::size_t hi = t[i].line;
        for (auto it = file.region_marks.lower_bound(lo);
             it != file.region_marks.end() && it->first <= hi; ++it) {
          fn.regions.insert(it->second.begin(), it->second.end());
          fn.region_mark_lines.push_back(it->first);
        }
        for (auto it = file.merge_marks.lower_bound(lo);
             it != file.merge_marks.end() && it->first <= hi; ++it) {
          fn.merges.insert(it->second.begin(), it->second.end());
          fn.merge_mark_lines.push_back(it->first);
        }

        fn.params = param_names(t, vmatch_paren_back(t, c.decl_close),
                                c.decl_close);
        fn.body_open = t.raw_index(i);

        out.push_back(std::move(fn));
        current_fn = static_cast<std::ptrdiff_t>(out.size()) - 1;
        fn_body = true;
      }
      stack.push_back(Scope{c.kind, std::move(c.scope_name), fn_body});
    } else if (t[i].text == "}") {
      if (!stack.empty()) {
        if (stack.back().fn_body && current_fn >= 0) {
          out[static_cast<std::size_t>(current_fn)].body_close = t.raw_index(i);
          current_fn = -1;
        }
        stack.pop_back();
      }
    } else if (current_fn >= 0) {
      scan_body_token(t, i, out[static_cast<std::size_t>(current_fn)]);
    }
  }
  return out;
}

}  // namespace simdlint
