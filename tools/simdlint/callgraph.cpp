#include "simdlint/callgraph.hpp"

#include <algorithm>
#include <utility>

namespace simdlint {

bool suffix_match(const std::string& qualified, const std::string& pattern) {
  if (pattern.empty() || qualified.size() < pattern.size()) return false;
  if (qualified.compare(qualified.size() - pattern.size(), pattern.size(),
                        pattern) != 0) {
    return false;
  }
  if (qualified.size() == pattern.size()) return true;
  const std::size_t at = qualified.size() - pattern.size();
  return at >= 2 && qualified.compare(at - 2, 2, "::") == 0;
}

const std::set<std::string>& ubiquitous_member_calls() {
  static const std::set<std::string> kNames = {
      "size",   "empty",    "begin",     "end",      "cbegin",   "cend",
      "rbegin", "rend",     "data",      "at",       "front",    "back",
      "clear",  "count",    "find",      "contains", "load",     "store",
      "get",    "reset",    "release",   "swap",     "top",      "pop",
      "pop_back", "pop_front", "c_str",  "str",      "length",   "value",
      "has_value", "substr", "compare",  "erase",    "first",    "second",
      "fill",   "min",      "max",       "test",     "insert",
  };
  return kNames;
}

CallResolver::CallResolver(std::vector<FnInfo> fns) : fns_(std::move(fns)) {
  for (std::size_t i = 0; i < fns_.size(); ++i) {
    by_last_name_[fns_[i].short_name].push_back(i);
  }
}

std::vector<std::size_t> CallResolver::resolve(std::size_t caller,
                                               const CallSite& call) const {
  std::vector<std::size_t> candidates;
  if (call.std_qualified) return candidates;

  if (call.written.find("::") != std::string::npos) {
    for (std::size_t j = 0; j < fns_.size(); ++j) {
      if (suffix_match(fns_[j].qualified, call.written)) {
        candidates.push_back(j);
      }
    }
  } else {
    const auto it = by_last_name_.find(call.last_name);
    if (it != by_last_name_.end()) candidates = it->second;
  }
  // A receiver call (`p.foo(...)`) targets an instance member: static
  // functions only dispatch by qualified name, so they never match.
  if (call.has_receiver) {
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](std::size_t j) { return fns_[j].is_static; }),
        candidates.end());
  }
  // A member call with an explicit receiver other than `this` is a call on
  // *some other object* — never the caller recursing.
  if (call.has_receiver && !call.receiver_this) {
    candidates.erase(std::remove(candidates.begin(), candidates.end(), caller),
                     candidates.end());
  }
  if (call.written.find("::") == std::string::npos &&
      ubiquitous_member_calls().count(call.last_name) > 0) {
    if (call.has_receiver && !call.receiver_this) {
      // `v.size()` names the container's API, not repo code.
      candidates.clear();
    } else {
      // Bare or this-> calls stay honest for real recursion, but only
      // within the caller's own class; a free function's bare `size()` is
      // std/ADL, not a method of some unrelated class.
      const std::string& q = fns_[caller].qualified;
      const std::size_t cut = q.rfind("::");
      if (cut == std::string::npos) {
        candidates.clear();
      } else {
        const std::string prefix = q.substr(0, cut + 2);
        candidates.erase(
            std::remove_if(candidates.begin(), candidates.end(),
                           [&](std::size_t j) {
                             return fns_[j].qualified.compare(
                                        0, prefix.size(), prefix) != 0;
                           }),
            candidates.end());
      }
    }
  }
  return candidates;
}

}  // namespace simdlint
