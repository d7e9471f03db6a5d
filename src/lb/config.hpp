// Scheme configuration: which matching scheme, trigger, and transfer policy
// a run uses (the paper's Table 1, plus the Section 8 baselines).
#pragma once

#include <cstdint>
#include <string>

#include "search/splitter.hpp"

namespace simdts::lb {

/// How idle processors are matched with busy donors in a load-balancing
/// phase.
enum class MatchScheme : std::uint8_t {
  kNGP,       ///< enumeration from PE 0 every phase (Powley/Mahanti style)
  kGP,        ///< enumeration resumes after a global pointer (the paper's
              ///< new scheme)
  kNeighbor,  ///< ring nearest-neighbour transfers (Frye's second scheme)
};

/// When a load-balancing phase is initiated.
enum class TriggerKind : std::uint8_t {
  kStatic,     ///< S^x: trigger when A <= x * P               (eq. 1)
  kDP,         ///< Powley/Ferguson/Korf: w - A*t >= A*L        (eq. 3)
  kDK,         ///< the paper's new trigger: w_idle >= L * P    (eq. 4)
  kAnyIdle,    ///< as soon as one processor is idle (FESS / FEGS)
  kEveryCycle, ///< unconditional (used with neighbour matching)
};

/// What a matched donor sends.
enum class TransferPolicy : std::uint8_t {
  kSplit,           ///< split the stack with the configured SplitStrategy
  kGiveOneNodeEach, ///< donors hand one node to each of several idle PEs
                    ///< (Frye's first scheme — a deliberately poor splitter)
};

/// Which processors count as "active" for the trigger condition.
enum class BusyPolicy : std::uint8_t {
  kSplittable,  ///< stack size >= 2 — the paper's definition of busy
  kNonEmpty,    ///< stack size >= 1 — ablation variant
};

struct SchemeConfig {
  MatchScheme match = MatchScheme::kGP;
  TriggerKind trigger = TriggerKind::kStatic;
  /// Threshold x of the static trigger (fraction of P).
  double static_x = 0.75;
  /// Repeat transfer rounds within one phase until no idle processor can be
  /// served.  The paper requires this for D^P and uses single transfers
  /// everywhere else.
  bool multiple_transfers = false;
  /// Cap on donor->receiver pairs per transfer round (0 = unlimited).  The
  /// FESS baseline serves a single idle processor per phase.
  std::uint32_t max_pairs_per_round = 0;
  TransferPolicy transfer = TransferPolicy::kSplit;
  search::SplitStrategy split = search::SplitStrategy::kBottomNode;
  BusyPolicy busy = BusyPolicy::kSplittable;
  /// Initial distribution phase for the dynamic triggers: static triggering
  /// with this threshold until that fraction of PEs is active (Section 7).
  /// Ignored by static and kAnyIdle triggers.
  double init_threshold = 0.85;
  /// Record the number of active processors after every node-expansion cycle
  /// (Figure 8 traces).
  bool record_trace = false;
  /// Sample aggregate stack heap bytes after every expansion cycle (the
  /// mega-P `bytes_per_lane` benchmarks).  Off by default: the sweep is
  /// O(P) per cycle.  Never affects simulated results.
  bool track_stack_memory = false;

  [[nodiscard]] std::string name() const;

  /// Rejects parameter values that can only produce degenerate runs: the
  /// static threshold and the initial-distribution threshold must lie in
  /// (0, 1] (a threshold of 0 never triggers and surfaces as NaN-free but
  /// meaningless tables; above 1 triggers every cycle by accident), and both
  /// must be finite.  Throws simdts::ConfigError naming this config and the
  /// offending field.  Machine size constraints are deliberately absent: the
  /// packed flag planes and the rendezvous over them work for any P >= 1,
  /// power of two or not (a partial last word is masked).
  void validate() const;
};

[[nodiscard]] const char* to_string(MatchScheme m);
[[nodiscard]] const char* to_string(TriggerKind t);
[[nodiscard]] const char* to_string(TransferPolicy t);
[[nodiscard]] const char* to_string(BusyPolicy b);

/// The six schemes of the paper's Table 1.
[[nodiscard]] SchemeConfig ngp_static(double x);
[[nodiscard]] SchemeConfig gp_static(double x);
[[nodiscard]] SchemeConfig ngp_dp();
[[nodiscard]] SchemeConfig gp_dp();
[[nodiscard]] SchemeConfig ngp_dk();
[[nodiscard]] SchemeConfig gp_dk();

}  // namespace simdts::lb
