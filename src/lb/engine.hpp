// The parallel depth-first-search engine for (emulated) SIMD machines.
//
// This is the paper's Section 2 algorithm: the machine alternates between
// *search phases* — lock-step node-expansion cycles in which every processor
// with work pops and expands exactly one node — and *load-balancing phases*,
// in which busy processors split their stacks and send half to idle ones.
// A triggering condition, evaluated after every expansion cycle, decides when
// to switch; a matching scheme decides who sends to whom.
//
// All the scheme combinations of the paper's Table 1 (and the Section 8
// baselines) are expressed through SchemeConfig; the engine itself is
// domain-independent over any TreeProblem.
//
// Hot-path structure: the busy/idle flag planes are *packed bit planes*
// (simd::BitPlane, one std::uint64_t word per 64 lanes), and the census (how
// many stacks are non-empty / splittable / empty) is maintained incrementally
// — the expansion cycle walks only the active lanes (one word load covers 64
// lanes; a fully idle or dead block costs a single test) and accumulates
// census *deltas*; work transfers reclassify exactly the donor and receiver
// they move nodes between.  Matching enumerations are word-level
// popcount/countr_zero walks over the same planes.  Every bundled domain
// writes a popped node's children in place, four child slots at a time,
// into the four slots above the lane's stack top (top_row), and the stack
// is advanced by the child count (commit), so no step copies a child
// through a vector or branches on how many a node had (see expand_cycle).
//
// Determinism: the run is a pure function of (problem, P, config, cost
// model, fault plan).  An engine runs on one host thread: each lock-step
// cycle is a single walk in PE order, so the result — including the order
// of recorded goal nodes — is fixed.  Host parallelism lives one level up,
// where whole runs are independent (runtime::SweepRunner, the service's
// run_tasks); engines share no mutable state, so a sweep's results are
// identical for any sweep thread count.
//
// Fault injection (docs/robustness.md): arm_faults() attaches a
// fault::FaultPlan whose events fire on the simulated expand-cycle clock.
// In degraded mode the census, rendezvous matching, and trigger accounting
// range over the *surviving* lane set; a killed PE's unexpanded stack
// intervals are journaled and re-donated to survivors in recovery phases
// costed like lb phases; dropped lb messages leave the work on the donor.
// The engine enforces a conservation invariant — every journaled node is
// re-donated exactly once and dead lanes never expand — so a fault run
// explores exactly the fault-free tree.  The dead-lane plane is packed too:
// the expansion loop masks it out one word at a time, so with no plan armed
// (the plane all-zero) the fault machinery costs one AND per 64 lanes and
// the run is bit-identical to the pre-fault engine.
//
// Expansion step (ExpandStep): the word walk expands each word's active
// lanes with one of two steps, fixed by the problem's type.  The word step
// (search::RowTreeProblem, which every bundled domain is) works as the
// paper's machine does, one expansion over all of a word's lanes: it pops
// them all first, noting each one's top row, then expands the popped nodes
// one group of four child slots at a time — through the domain's word
// kernel (vec::expand_group: the 15-puzzle's AVX2 or AVX-512 build, or the
// synthetic tree's AVX-512 build) where vec::kernel_rule picks one
// (vec/expand.hpp), else through one expand_row() call per node —
// committing every lane's row between groups.
// The vector step, for a problem type without expand_row(), pops and
// expands lane by lane through expand().  Both stacks take rows the same
// way: a WorkStack's top row is its own storage, a CompactStack's a staging
// row that commit() encodes.  Each lane sees the same pop/commit sequence
// whichever step or kernel runs, and every step feeds the same flag/census
// transition in the same bit order, so the choice never moves a simulated
// result; tests/test_row_step.cpp and tests/test_vector_backend.cpp pin
// that.
//
// Mega-P (P up to 2^20 and beyond): three coordinated mechanisms keep such
// machines practical.  The per-lane stacks live in one std::vector sized
// at construction and never resized, so a flag word's 64 stacks are one
// contiguous run and every address is stable for the engine's life; each
// flag plane carries a simd::SummaryPlane (one bit per 64-lane word,
// maintained at the same write-back that stores the word) so the expansion
// walk and every load-balancing enumeration skip empty regions and scale
// with *occupied* words, not P; and the per-lane stack is a template
// parameter, so a DeltaTreeProblem can swap WorkStack's full-Node entries
// for CompactStack's 2-byte delta records (see CompactEngine below).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "sanitizer/sanitizer.hpp"
#include "lb/matching.hpp"
#include "lb/metrics.hpp"
#include "lb/trigger.hpp"
#include "search/compact_stack.hpp"
#include "search/problem.hpp"
#include "search/splitter.hpp"
#include "search/work_stack.hpp"
#include "simd/bitplane.hpp"
#include "simd/machine.hpp"
#include "simd/summary.hpp"
#include "vec/expand.hpp"

namespace simdts::lb {

/// How an Engine expands a flag word's active lanes; see the header comment.
enum class ExpandStep {
  /// per lane: pop, expand() into a scratch vector, push the children onto
  /// the lane's WorkStack.  Only a problem type without expand_row() takes it:
  /// a user domain that implements only expand()
  /// (examples/custom_domain.cpp), a decorator that forwards only expand(),
  /// and the tests' vector-step oracle.
  kVector,
  kWord,  ///< per word: pop every lane, expand slot group by slot group
          ///< into the lanes' top rows, commit
};

/// `StackT` selects the per-lane stack representation: WorkStack<Node> (the
/// default — full nodes, every TreeProblem) or search::CompactStack<P> (delta
/// records, DeltaTreeProblem only; ~4x fewer bytes per lane on the
/// 15-puzzle).  Both satisfy the same stack contract and the engine's
/// simulated results are bit-identical across the two (pinned by
/// tests/test_compact_stack.cpp), so the choice is purely a host-memory
/// trade.
template <search::TreeProblem P,
          typename StackT = search::WorkStack<typename P::Node>>
class Engine {
 public:
  using Node = typename P::Node;
  using Stack = StackT;
  // The vector step pushes children one by one, which only a WorkStack
  // takes in the lockstep cycle; a CompactStack takes them as rows.
  static_assert(search::RowTreeProblem<P> ||
                std::same_as<StackT, search::WorkStack<Node>>);

  /// Throws simdts::ConfigError on an invalid scheme configuration (see
  /// SchemeConfig::validate).
  Engine(const P& problem, simd::Machine& machine, SchemeConfig cfg)
      : Engine(problem, machine, cfg, vec::host_isa()) {}

 protected:
  /// The engine as built on a CPU whose widest kernel instruction set is
  /// `cpu`, which this CPU must run: the seam through which tests run each
  /// kernel build end to end.  The public constructor passes
  /// vec::host_isa().
  Engine(const P& problem, simd::Machine& machine, SchemeConfig cfg,
         vec::Isa cpu)
      : problem_(problem),
        machine_(machine),
        cfg_(cfg),
        kernel_(select_kernel(problem, machine.size(), cpu)),
        matcher_(cfg.match),
        stacks_(machine.size()),
        busy_flags_(machine.size()),
        idle_flags_(machine.size()),
        dead_(machine.size()),
        alive_(machine.size()) {
    cfg_.validate();
    busy_summary_.assign_for_lanes(machine.size());
    idle_summary_.assign_for_lanes(machine.size());
    work_summary_.assign_for_lanes(machine.size());
    if constexpr (requires(StackT& s) { s.bind(problem); }) {
      for (StackT& s : stacks_) s.bind(problem);
    }
    // Size the goal buffer once, outside the lockstep region: a cycle
    // records at most one goal per PE, so with this capacity a steady-state
    // cycle touches no allocator at all (the effect analysis pins the
    // remaining growth sites, see the markers in expand_cycle and its step
    // helpers).  The reserve is capped: at mega-P a reserve of P nodes
    // would itself dominate memory, and a cycle landing more than the cap
    // in goals at once is a terminal burst whose growth the markers cover.
    goal_nodes_.reserve(std::min<std::size_t>(machine.size(), 4096));
#ifdef SIMDTS_SANITIZE
    san_dead_.resize(machine.size());
#endif
  }

 public:
  /// Arms a fault plan: the plan's events fire on this engine's cumulative
  /// expand-cycle clock (across IDA* iterations of one run).  The plan is
  /// validated against the machine size; passing nullptr disarms.  Arming
  /// resets the fault state — dead lanes, the event cursor, the drop budget,
  /// and the recovery journal — so arm before each run() to replay a plan.
  void arm_faults(const fault::FaultPlan* plan) {
    if (plan != nullptr) plan->validate(machine_.size());
    fault_plan_ = plan;
    next_fault_ = 0;
    fault_clock_ = 0;
    drop_budget_ = 0;
    dead_.fill(false);
    alive_ = machine_.size();
    orphaned_total_ = 0;
    recovered_total_ = 0;
    recovery_journal_.clear();
#ifdef SIMDTS_SANITIZE
    san_dead_.clear();
#endif
  }

  /// The expansion step, fixed by the problem type: the word step for a
  /// search::RowTreeProblem, else the vector step.
  [[nodiscard]] static constexpr ExpandStep step() noexcept {
    return search::RowTreeProblem<P> ? ExpandStep::kWord : ExpandStep::kVector;
  }

  /// Whether the word step expands through a word kernel (vec::kernel_rule,
  /// decided at construction).  Results are identical either way.
  [[nodiscard]] bool uses_kernel() const noexcept {
    return kernel_ != vec::Isa::kNone;
  }

  /// Watchdog: a nonzero budget bounds the expand cycles of each bounded DFS
  /// (each run_iteration / IDA* iteration); exceeding it throws
  /// simdts::TimeoutError with the scheme, machine size, and cycle count.
  /// The sweep runner converts that into a typed per-task timeout result.
  void set_cycle_budget(std::uint64_t max_cycles) {
    cycle_budget_ = max_cycles;
  }

  /// One bounded parallel DFS from the problem root: the root node is given
  /// to processor 0, the space is searched to exhaustion (all solutions at
  /// the bound are found — the paper's anomaly-free setup), and the
  /// iteration's metrics are returned.
  IterationStats run_iteration(search::Bound bound) {
    return run_core(bound, Mode::kExhaustive).stats;
  }

  /// First-solution mode: the machine quits at the end of the first
  /// node-expansion cycle in which any processor found a goal ("when a goal
  /// node is found, all of them quit", Section 2).  Node counts can then
  /// differ from the serial first-solution search in either direction —
  /// the speedup anomalies of Rao & Kumar that the paper's main experiments
  /// deliberately avoid.
  IterationStats run_first_solution(search::Bound bound) {
    return run_core(bound, Mode::kFirstSolution).stats;
  }

  struct BnbResult {
    IterationStats stats;
    /// Best goal f-value found (kUnbounded if none).
    search::Bound best = search::kUnbounded;
  };

  /// Depth-first branch and bound: searches exhaustively while *tightening*
  /// the cost bound whenever a better goal turns up.  Note that
  /// stats.goals_found counts every goal popped (including ones worse than
  /// the incumbent at their pop time), unlike serial_branch_and_bound's
  /// improvement count — the two are not comparable.  The incumbent is
  /// refreshed between expansion cycles — on the real machine a global
  /// min-reduction, which the CM-2 provides as a hardware scan.  Goals must
  /// report their full solution cost through f_value().
  BnbResult run_branch_and_bound(search::Bound initial_bound
                                 = search::kUnbounded) {
    return run_core(initial_bound, Mode::kBranchAndBound);
  }

 private:
  enum class Mode { kExhaustive, kFirstSolution, kBranchAndBound };

  [[nodiscard]] bool fault_armed() const noexcept {
    return fault_plan_ != nullptr;
  }

  BnbResult run_core(search::Bound bound, Mode mode) {
    const simd::MachineClock before = machine_.clock();
    BnbResult result;
    IterationStats& stats = result.stats;
    stats.bound = bound;

    for (StackT& s : stacks_) s.clear();
    // Initial census and flag planes: the first surviving PE holds the root
    // (one node, so not yet splittable), every other survivor is idle, dead
    // lanes are neither.  From here on the census is maintained
    // incrementally — by the expansion cycles, by each work transfer, and by
    // the fault events — and never recomputed by a full rescan.
    busy_flags_.fill(false);
    idle_flags_.fill(true);
    std::uint32_t root_pe = 0;
    if (fault_armed()) {
      if (alive_ == 0) {
        throw FaultError("no surviving PE to start an iteration on",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
      simd::for_each_set(dead_,
                         [this](std::size_t i) { idle_flags_.reset(i); });
      while (dead_.test(root_pe)) ++root_pe;
    }
    stacks_[root_pe].push(problem_.root());
    idle_flags_.reset(root_pe);
    counts_ = Counts{};
    counts_.nonempty = 1;
    counts_.empty = alive_ - 1;
    rebuild_summaries();

    next_bound_ = search::NextBound{};
    goal_nodes_.clear();
    std::size_t goals_seen = 0;  // goal_nodes_ scanned so far (for B&B)

    Trigger trigger(cfg_, alive_, machine_.cost().t_expand,
                    initial_lb_cost());
    trigger.begin_search_phase();
    // The initial work-distribution phase (Section 7): dynamic triggers are
    // preceded by static triggering at init_threshold until that fraction of
    // processors is active.
    bool init_phase =
        cfg_.trigger == TriggerKind::kDP || cfg_.trigger == TriggerKind::kDK;

    while (counts_.nonempty > 0) {
      if (cycle_budget_ != 0 && stats.expand_cycles >= cycle_budget_) {
        throw TimeoutError(cfg_.name(), machine_.size(), stats.expand_cycles,
                           cycle_budget_);
      }
      const std::uint32_t working = counts_.nonempty;
      expand_cycle(bound, stats);
      machine_.charge_expand_cycle(working, alive_);
      trigger.note_cycle(working);
      ++stats.expand_cycles;
      if (cfg_.track_stack_memory) note_stack_memory();
      if (cfg_.record_trace) {
        stats.trace.push_back(
            TracePoint{counts_.nonempty, counts_.splittable, alive_});
      }
      ++fault_clock_;
      if (fault_armed()) apply_due_faults(stats, trigger);

      if (mode == Mode::kFirstSolution && stats.goals_found > 0) {
        break;  // "when a goal node is found, all of them quit"
      }
      if (mode == Mode::kBranchAndBound) {
        // Global min-reduction over this cycle's new goals; tightening the
        // shared bound prunes everything not strictly better.
        for (; goals_seen < goal_nodes_.size(); ++goals_seen) {
          const search::Bound f = problem_.f_value(goal_nodes_[goals_seen]);
          if (f < result.best) result.best = f;
        }
        if (result.best != search::kUnbounded && result.best - 1 < bound) {
          bound = result.best - 1;
        }
      }

      const std::uint32_t active = cfg_.busy == BusyPolicy::kSplittable
                                       ? counts_.splittable
                                       : counts_.nonempty;
      bool fire;
      if (init_phase) {
        const bool below = static_cast<double>(active) <=
                           cfg_.init_threshold *
                               static_cast<double>(alive_);
        if (!below) init_phase = false;
        fire = below;
      } else {
        fire = trigger.should_trigger(active, counts_.empty);
      }
      if (fire && counts_.empty > 0 && counts_.splittable > 0) {
        lb_phase(stats, trigger);
      }
    }

    if (fault_armed()) check_conservation();
    stats.nodes_expanded = (machine_.clock() - before).nodes_expanded;
    stats.clock = machine_.clock() - before;
    if (next_bound_.has_value()) stats.next_bound = next_bound_.value();
    return result;
  }

 public:
  /// Full parallel IDA*: repeats run_iteration with increasing thresholds
  /// until an iteration finds a goal (that iteration still runs to
  /// exhaustion).  `max_expanded`, if non-zero, aborts once the total number
  /// of expansions exceeds it.
  RunStats run(std::uint64_t max_expanded = 0) {
    RunStats rs;
    goal_nodes_.clear();
    search::Bound bound = problem_.f_value(problem_.root());
    for (;;) {
      IterationStats iter = run_iteration(bound);
      rs.total += iter;
      rs.final_iteration = iter;
      rs.iterations.push_back(std::move(iter));
      const IterationStats& done = rs.iterations.back();
      if (done.goals_found > 0) {
        rs.solution_bound = bound;
        rs.goals_found = done.goals_found;
        return rs;
      }
      if (done.next_bound == search::kUnbounded) return rs;  // exhausted
      if (max_expanded != 0 && rs.total.nodes_expanded > max_expanded) {
        return rs;  // budget exceeded
      }
      bound = done.next_bound;
    }
  }

  /// Goal nodes found during the last run (all solutions at the final
  /// threshold, in PE-index order of the finding processor per cycle).
  [[nodiscard]] const std::vector<Node>& goal_nodes() const {
    return goal_nodes_;
  }

  /// The matcher (exposing the GP global pointer for tests).
  [[nodiscard]] const Matcher& matcher() const { return matcher_; }

  /// Total heap bytes held by the per-lane stacks — the bytes-per-lane
  /// metric of the mega-P benchmarks.
  [[nodiscard]] std::size_t stack_memory_bytes() const {
    std::size_t total = 0;
    for (const StackT& s : stacks_) total += s.memory_bytes();
    return total;
  }

  /// Peak of stack_memory_bytes() across all cycles sampled so far.
  /// Requires SchemeConfig::track_stack_memory; zero otherwise.
  [[nodiscard]] std::uint64_t stack_memory_peak() const noexcept {
    return stack_bytes_peak_;
  }

  /// Time-averaged resident stack bytes per lane: the per-cycle sum of
  /// stack_memory_bytes() integrated over every sampled cycle, divided by
  /// (cycles * P).  This is the number that sizes a mega-P deployment —
  /// P * avg-bytes-per-lane is the expected resident footprint — and the
  /// `search.stack_avg_bytes_per_lane` layer metric of perfbench.  (It is
  /// not the single-lane descent figure that tests/test_compact_stack.cpp
  /// gates; this one averages over every lane, idle lanes included.)
  /// Requires SchemeConfig::track_stack_memory; zero otherwise.
  [[nodiscard]] double stack_memory_avg_per_lane() const noexcept {
    if (stack_bytes_cycles_ == 0) return 0.0;
    return static_cast<double>(stack_bytes_integral_) /
           (static_cast<double>(stack_bytes_cycles_) *
            static_cast<double>(machine_.size()));
  }

  /// Surviving lane count (== machine size with no faults applied).
  [[nodiscard]] std::uint32_t alive() const noexcept { return alive_; }

  /// The lost-work journal of the armed fault plan's kills: one record per
  /// kill event, with the detected orphan count and the recovery rounds it
  /// cost.  Cleared by arm_faults().
  [[nodiscard]] const std::vector<fault::RecoveryRecord>& recovery_journal()
      const noexcept {
    return recovery_journal_;
  }

 private:
  struct Counts {
    std::uint32_t nonempty = 0;
    std::uint32_t splittable = 0;
    std::uint32_t empty = 0;
  };

  using Row = std::array<Node, 4>;

  /// The walk's reusable buffers, held inline so a steady-state cycle and
  /// the engine's construction allocate nothing for them.
  struct WalkScratch {
    std::vector<Node> children;  ///< vector step's staging, cleared per word
    // Word step: a word's non-goal pops in bit order, the lane row each
    // one's current slot group goes to, and that group's child count.
    // Each word writes an entry before reading it, so they start
    // uninitialized and constructing an engine writes none of them.
    std::array<Node, simd::BitPlane::kWordBits> nodes;
    std::array<Row*, simd::BitPlane::kWordBits> rows;
    std::array<std::uint32_t, simd::BitPlane::kWordBits> counts;
  };

  /// The kernel rule: the word step expands through the build of
  /// vec::expand_group that vec::kernel_rule picks for the problem, the
  /// machine size and the CPU, else (Isa::kNone) through expand_row().
  static vec::Isa select_kernel([[maybe_unused]] const P& problem,
                                [[maybe_unused]] std::uint32_t pes,
                                [[maybe_unused]] vec::Isa cpu) {
    if constexpr (vec::kHasKernel<P>) {
      return vec::kernel_rule(problem, pes, cpu);
    }
    return vec::Isa::kNone;
  }

  /// Pushes the first n nodes of st's last top_row() onto `st` in order: a
  /// WorkStack only advances its size by n (no copy, no branch on n), a
  /// CompactStack encodes the n children.
  static void commit_row(StackT& st, std::uint32_t n) {
#ifdef SIMDTS_SANITIZE
    // Mutation: commit one child more than a row holds.
    if (san::mutation().overcommit_row) n = 5;
#endif
    st.commit(n);
  }

  [[nodiscard]] double initial_lb_cost() const {
    return cfg_.match == MatchScheme::kNeighbor
               ? machine_.cost().neighbor_cost()
               : machine_.lb_round_cost();
  }

  /// One lock-step node-expansion cycle.  Every non-empty PE pops one node;
  /// goal nodes are recorded (and not expanded), everything else is expanded
  /// with the bound.  The loop walks the packed flag planes one 64-lane word
  /// at a time: active lanes are the set bits of ~idle & ~dead (idle tracks
  /// "empty and alive", so the complement under the valid-lane mask is
  /// exactly the lanes holding work), extracted with std::countr_zero — a
  /// fully idle or dead block costs one load and one test, and the dead-lane
  /// check is a word-level AND (zero-cost when no plan is armed: the plane
  /// is all-zero).  The walk is one host thread in PE order; its census
  /// deltas and pruned bound are locals, folded into the run state once at
  /// the end of the cycle.
  ///
  /// The per-word step is the only part that varies (step(), fixed by the
  /// problem type).  The word step pops the whole word first, noting each
  /// lane's top row, prefetches the next occupied word's stack tops, and
  /// expands the popped nodes one group of four child slots at a time
  /// (expand_word); the bit loop then commits each lane's last group.
  /// Every lane thus writes each group into the four slots above its top
  /// and commits its count, in slot order, so its stack ends up exactly as
  /// after pushing expand()'s output.  The vector step pops and expands
  /// inside the bit loop, staging children in the scratch vector (cleared
  /// once per word) and pushing them one by one.  Both steps run the one
  /// flag/census transition of the bit loop, in bit order.
  ///
  ///   word:    pop all active bits, rows[j] = top_row
  ///            -> prefetch next word's tops
  ///            -> per slot group: (commit(count[j]), rows[j] = top_row)
  ///               after the first; expand_group(rows) or
  ///               expand_row(nodes[j], *rows[j]) for each j
  ///            for each active bit:  commit(count[j]) -> flag/census
  ///   vector:  prefetch this word's tops
  ///            for each active bit:  pop -> goal? -> expand() -> push
  ///                                  -> flag/census
  // SIMDLINT-REGION(lockstep)
  void expand_cycle(search::Bound bound, IterationStats& stats) {
    constexpr std::size_t kWordBits = simd::BitPlane::kWordBits;
    std::uint64_t* const idle_words = idle_flags_.words().data();
    std::uint64_t* const busy_words = busy_flags_.words().data();
    const std::uint64_t* const dead_words = dead_.words().data();
    const std::size_t nwords = idle_flags_.word_count();
    const std::uint64_t last_mask = idle_flags_.word_mask(nwords - 1);
    constexpr bool kWordStep = step() == ExpandStep::kWord;
    // Constant kNone for problems without a kernel, so their walk compiles
    // without it.
    const vec::Isa kernel = vec::kHasKernel<P> ? kernel_ : vec::Isa::kNone;
    std::int64_t d_nonempty = 0;    // minus the lanes that ran dry
    std::int64_t d_splittable = 0;  // splittable transitions, either way
    search::NextBound next_bound;   // least f-value pruned this cycle
    const std::size_t goals_before = goal_nodes_.size();
#ifdef SIMDTS_SANITIZE
    // The dead-lane-expansion mutation needs the flat walk: it fakes every
    // lane alive, which the work summary would mask back out by skipping
    // all-dead words entirely.
    const bool san_flat = san::mutation().expand_dead_lane;
#else
    constexpr bool san_flat = false;
#endif
    // Walk only work-summary-occupied words: a clear summary bit guarantees
    // `active == 0` below, so skipping it is exactly the flat walk's
    // `continue`.
    const auto valid_mask = [&](std::size_t w) {
      return (w + 1 == nwords) ? last_mask : ~std::uint64_t{0};
    };
    std::size_t next_w = 0;
    for (std::size_t w = san_flat ? 0 : work_summary_.next_occupied(0);
         w < nwords; w = next_w) {
      // Only word w's summary bit changes below, so the next occupied word
      // is known now (the word step prefetches its stack tops).
      next_w = san_flat ? w + 1 : work_summary_.next_occupied(w + 1);
      const std::uint64_t valid = valid_mask(w);
      std::uint64_t idle_w = idle_words[w];
      std::uint64_t busy_w = busy_words[w];
      std::uint64_t not_dead = ~dead_words[w];
#ifdef SIMDTS_SANITIZE
      if (san::mutation().expand_dead_lane) not_dead = ~std::uint64_t{0};
#endif
      const std::uint64_t active = ~idle_w & not_dead & valid;
      if (active == 0) continue;
      const std::size_t base = w * kWordBits;
      StackT* const lanes = &stacks_[base];
#ifdef SIMDTS_SANITIZE
      for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        san_dead_.check_alive(base + b, "expand");
      }
#endif
      std::uint64_t goal_bits = 0;
      if constexpr (kWordStep) {
        std::uint64_t next_active = 0;
        if (next_w < nwords) {
          next_active = ~idle_words[next_w] & ~dead_words[next_w] &
                        valid_mask(next_w);
        }
        goal_bits = expand_word(
            lanes, active,
            next_active != 0 ? &stacks_[next_w * kWordBits] : nullptr,
            next_active, kernel, bound, next_bound);
      } else {
        scratch_.children.clear();
        if constexpr (requires(const StackT& s) { s.prefetch_top(); }) {
          // The stack tops of a word's lanes are scattered across the
          // heap; issuing every fetch up front overlaps their misses, where
          // the bit loop's pops would otherwise take them one after
          // another.  A single word's stacks stay cache-resident.
          if (nwords > 1) {
            for (std::uint64_t m = active; m != 0; m &= m - 1) {
              lanes[std::countr_zero(m)].prefetch_top();
            }
          }
        }
      }
      std::uint32_t slot = 0;  // word step: index into scratch_.counts
      std::uint64_t m = active;
      while (m != 0) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        m &= m - 1;
        StackT& st = lanes[b];
        const std::uint64_t bit = std::uint64_t{1} << b;
        if constexpr (kWordStep) {
          if ((goal_bits & bit) == 0) {
            commit_row(st, scratch_.counts[slot]);
            ++slot;
          }
        } else {
          Node n = st.pop();
          if (!record_goal(n)) {
            std::vector<Node>& children = scratch_.children;
            const std::size_t staged = children.size();
            // SIMDLINT-EFFECT-OK(allocates) children is persistent-
            problem_.expand(n, bound, children, next_bound);
            // capacity scratch: growth is amortized over the run.
            for (std::size_t i = staged; i < children.size(); ++i) {
              // SIMDLINT-EFFECT-OK(allocates) only a WorkStack gets here
              st.push(children[i]);  // (static_assert at the top of the
              // class), whose growth is amortized (effects.conf).
            }
          }
        }
        const bool was_split = (busy_w & bit) != 0;
        if (st.empty()) {
          idle_w |= bit;
          busy_w &= ~bit;
          --d_nonempty;
          if (was_split) --d_splittable;
          if constexpr (requires { st.release_if_drained(); }) {
            // Pooled release: a drained lane's heap goes back to the
            // allocator the cycle it goes idle, so resident stack memory
            // tracks *live* work — the memory bound that makes P = 2^20
            // practical.  Memory-only: simulated results are unchanged.
            st.release_if_drained();
          }
        } else if (st.splittable() != was_split) {
          d_splittable += was_split ? -1 : 1;
          busy_w ^= bit;
        }
      }
      idle_words[w] = idle_w;
      busy_words[w] = busy_w;
      busy_summary_.update_word(w, busy_w);
      idle_summary_.update_word(w, idle_w);
      work_summary_.update_word(w, ~idle_w & ~dead_words[w] & valid);
    }
#ifdef SIMDTS_SANITIZE
    if (san::mutation().corrupt_tail && last_mask != ~std::uint64_t{0}) {
      // Mutation: set the first invalid bit past size() in the idle plane so
      // the per-cycle tail sweep below can prove it fires.
      idle_words[nwords - 1] |= ~last_mask & (last_mask + 1);
    }
    // Mutation: lose the cycle's splittable delta before the fold,
    // desynchronizing the incremental census from the stacks.
    if (san::mutation().drop_census_delta) d_splittable = 0;
#endif
    counts_.nonempty = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.nonempty) + d_nonempty);
    counts_.splittable = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.splittable) + d_splittable);
    counts_.empty = static_cast<std::uint32_t>(
        static_cast<std::int64_t>(counts_.empty) - d_nonempty);
    stats.goals_found += goal_nodes_.size() - goals_before;
    next_bound_.merge(next_bound);
#ifdef SIMDTS_SANITIZE
    san_verify_cycle();
#endif
  }

  /// Records `n` as a goal if it is one (goals are never expanded) and says
  /// whether it was.
  bool record_goal(Node& n) {
    if (!problem_.is_goal(n)) return false;
    // SIMDLINT-EFFECT-OK(allocates) capacity min(P, 4096) reserved at
    goal_nodes_.push_back(std::move(n));  // construction; only a terminal
    // goal burst past the cap grows it, amortized.
    return true;
  }

  /// The word step up to its last commit.  Pops every active lane of the
  /// word whose stacks start at `lanes`, in bit order, recording goals as
  /// it goes (so goal order is bit order) and noting each other lane's top
  /// row; prefetches the stack tops of `next_active`'s lanes of the next
  /// occupied word (stacks from `next_lanes`), so their misses overlap this
  /// word's expansion instead of the next gather; then expands the popped
  /// nodes one slot group at a time, the group loop outside the node loop.
  /// Each group after the first commits the previous group's counts and
  /// takes a fresh top row per lane.  On return node j's last group sits in
  /// the first scratch_.counts[j] slots of *scratch_.rows[j], uncommitted.
  /// With a `kernel` build one vec::expand_group() call expands each group,
  /// else one expand_row() call per node.  Returns the word's goal bits.
  // SIMDLINT-REGION(lockstep)
  std::uint64_t expand_word(StackT* lanes, std::uint64_t active,
                            const StackT* next_lanes,
                            std::uint64_t next_active, vec::Isa kernel,
                            search::Bound bound,
                            search::NextBound& next_bound) {
    Node* const nodes = scratch_.nodes.data();
    Row** const rows = scratch_.rows.data();
    std::uint32_t* const counts = scratch_.counts.data();
    std::uint32_t count = 0;
    std::uint64_t goal_bits = 0;
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(m));
      Node n = lanes[b].pop();
      if (record_goal(n)) {
        goal_bits |= std::uint64_t{1} << b;
      } else {
        nodes[count] = n;
        rows[count] = &lanes[b].top_row();
        ++count;
      }
    }
    if constexpr (requires(const StackT& s) { s.prefetch_top(); }) {
      for (std::uint64_t m = next_active; m != 0; m &= m - 1) {
        next_lanes[std::countr_zero(m)].prefetch_top();
      }
    }
    const std::uint64_t expanded = active & ~goal_bits;
    for (std::uint32_t first = 0; first < problem_.child_slots();
         first += 4) {
      if (first != 0) {
        std::uint32_t j = 0;
        for (std::uint64_t m = expanded; m != 0; m &= m - 1, ++j) {
          StackT& st = lanes[std::countr_zero(m)];
          commit_row(st, counts[j]);
          rows[j] = &st.top_row();
        }
      }
      if constexpr (vec::kHasKernel<P>) {
        if (kernel != vec::Isa::kNone) {
          vec::expand_group(kernel, problem_, nodes, count, bound, rows,
                            counts, next_bound, first);
          continue;
        }
      }
      for (std::uint32_t j = 0; j < count; ++j) {
        counts[j] =
            problem_.expand_row(nodes[j], bound, *rows[j], next_bound, first);
      }
    }
    return goal_bits;
  }

#ifdef SIMDTS_SANITIZE
  /// SimdSan per-cycle sweep: the packed planes keep their zero tails, and
  /// the incrementally maintained census agrees with both a reference
  /// recount of the stacks and the flag-plane popcounts.  This is the
  /// packed-vs-reference divergence check — the incremental path is what the
  /// engine reports, the recount is what a from-scratch implementation would
  /// compute.
  void san_verify_cycle() const {
    if (!san::armed()) return;
    busy_flags_.san_verify_tail("busy plane");
    idle_flags_.san_verify_tail("idle plane");
    dead_.san_verify_tail("dead plane");
    std::uint64_t ref_nonempty = 0;
    std::uint64_t ref_splittable = 0;
    for (std::size_t i = 0; i < stacks_.size(); ++i) {
      if (dead_.test(i)) continue;
      if (!stacks_[i].empty()) {
        ++ref_nonempty;
        if (stacks_[i].splittable()) ++ref_splittable;
      }
    }
    const std::uint64_t ref_empty = alive_ - ref_nonempty;
    san::check_census(counts_.nonempty, ref_nonempty, "census.nonempty");
    san::check_census(counts_.splittable, ref_splittable,
                      "census.splittable");
    san::check_census(counts_.empty, ref_empty, "census.empty");
    san::check_census(busy_flags_.count(), ref_splittable,
                      "busy-plane popcount");
    san::check_census(idle_flags_.count(), ref_empty, "idle-plane popcount");
    // Census-divergence check, summary level: every incrementally maintained
    // summary bit must agree with a recomputation from its plane.
    busy_summary_.san_verify(busy_flags_, "busy summary");
    idle_summary_.san_verify(idle_flags_, "idle summary");
    const std::size_t nwords = idle_flags_.word_count();
    for (std::size_t w = 0; w < nwords; ++w) {
      const std::uint64_t active = ~idle_flags_.words()[w] &
                                   ~dead_.words()[w] & idle_flags_.word_mask(w);
      san::check_census(work_summary_.test(w) ? 1 : 0, active != 0 ? 1 : 0,
                        "work summary");
    }
  }

  /// Mutation hook: redirect the first matched pair's donor to a dead lane
  /// so the donation-side dead-lane check can be proven to fire.
  void san_apply_pair_mutation() {
    if (!san::mutation().donate_from_dead || pairs_.empty()) return;
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (dead_.test(i)) {
        pairs_[0].donor = static_cast<simd::PeIndex>(i);
        return;
      }
    }
  }
#endif

  /// Applies every fault event due at the current simulated cycle, in plan
  /// order.  Runs in the engine's serial section (between lock-step cycles),
  /// so fault handling is deterministic for any host thread count.
  // SIMDLINT-REGION(serial)
  void apply_due_faults(IterationStats& stats, Trigger& trigger) {
    const auto& events = fault_plan_->events();
    while (next_fault_ < events.size() &&
           events[next_fault_].cycle <= fault_clock_) {
      const fault::FaultEvent& e = events[next_fault_++];
      switch (e.kind) {
        case fault::FaultKind::kKillPe:
          kill_pe(e.pe, stats, trigger);
          break;
        case fault::FaultKind::kRevivePe:
          revive_pe(e.pe, stats, trigger);
          break;
        case fault::FaultKind::kDropMessages:
          drop_budget_ += e.count;
          break;
      }
    }
  }

  /// Kills PE `pe`: removes it from the census and both flag planes, then
  /// journals its unexpanded stack intervals and re-donates them to
  /// survivors (the recovery phase).  Receivers are the surviving idle PEs
  /// in wrap order after the dead PE (falling back to all survivors when
  /// none is idle); nodes are dealt round-robin bottom-first, so each
  /// receiver's stack stays in depth-first order.  Each round-robin wave
  /// costs one recovery transfer round on the machine clock.
  void kill_pe(std::uint32_t pe, IterationStats& stats, Trigger& trigger) {
    if (dead_.test(pe)) return;
    census_remove(pe);
    dead_.set(pe);
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_dead(pe);
#endif
    busy_flags_.reset(pe);
    idle_flags_.reset(pe);
    resync_lane_summaries(pe);
    --alive_;
    ++stats.pes_killed;

    orphan_buf_.clear();
    stacks_[pe].drain_into(orphan_buf_);
    const std::uint64_t orphans = orphan_buf_.size();
    if (alive_ == 0) {
      if (orphans > 0 || counts_.nonempty > 0) {
        throw FaultError("fault plan killed every PE with work outstanding",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    trigger.set_machine_size(alive_);
    if (orphans == 0) {
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    orphaned_total_ += orphans;

    // Enumerate receivers: surviving idle lanes in wrap order after the dead
    // PE — the same fairness rotation GP applies to donors — falling back to
    // every survivor when no lane is idle.
    const std::uint32_t p = machine_.size();
    recovery_receivers_.clear();
    for (std::uint32_t off = 1; off <= p; ++off) {
      const std::uint32_t i = (pe + off) % p;
      if (!dead_.test(i) && idle_flags_.test(i)) {
        recovery_receivers_.push_back(i);
      }
    }
    if (recovery_receivers_.empty()) {
      for (std::uint32_t off = 1; off <= p; ++off) {
        const std::uint32_t i = (pe + off) % p;
        if (!dead_.test(i)) recovery_receivers_.push_back(i);
      }
    }
    const std::size_t receivers = recovery_receivers_.size();
    for (std::size_t j = 0; j < orphan_buf_.size(); ++j) {
      const std::uint32_t rec = recovery_receivers_[j % receivers];
      census_remove(rec);
      stacks_[rec].push(std::move(orphan_buf_[j]));
      census_add(rec);
    }
    orphan_buf_.clear();
    recovered_total_ += orphans;

    const std::uint64_t rounds =
        (orphans + receivers - 1) / static_cast<std::uint64_t>(receivers);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      machine_.charge_recovery_round();
    }
    ++stats.recovery_phases;
    stats.nodes_recovered += orphans;
    stats.recovery_rounds += rounds;
    recovery_journal_.push_back(
        fault::RecoveryRecord{fault_clock_, pe, orphans, rounds});
  }

  /// Revives PE `pe` as an idle receiver with an empty stack.
  void revive_pe(std::uint32_t pe, IterationStats& stats, Trigger& trigger) {
    if (!dead_.test(pe)) return;
    dead_.reset(pe);
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_alive(pe);
#endif
    ++alive_;
    busy_flags_.reset(pe);
    idle_flags_.set(pe);
    resync_lane_summaries(pe);
    ++counts_.empty;
    ++stats.pes_revived;
    trigger.set_machine_size(alive_);
  }

  /// The conservation invariant of degraded mode: every node journaled from
  /// a dead PE was re-donated exactly once (no subtree lost, none duplicated
  /// — together with dead lanes never expanding, a fault run explores
  /// exactly the fault-free tree).  Checked at the end of every iteration.
  void check_conservation() const {
    if (recovered_total_ != orphaned_total_) {
      throw FaultError("conservation violated: orphaned nodes were lost or "
                       "duplicated during recovery",
                       cfg_.name(), machine_.size(), fault_clock_);
    }
    for (std::size_t i = 0; i < dead_.size(); ++i) {
      if (dead_.test(i) && !stacks_[i].empty()) {
        throw FaultError("conservation violated: a dead PE still holds work",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
    }
  }

  /// Removes stack i's current classification from the census.  Call before
  /// mutating the stack; pair with census_add() afterwards.
  void census_remove(std::size_t i) {
    const auto& s = stacks_[i];
    if (s.empty()) {
      --counts_.empty;
    } else {
      --counts_.nonempty;
      if (s.splittable()) --counts_.splittable;
    }
  }

  /// Re-adds stack i's (possibly changed) classification to the census and
  /// refreshes its flag-plane entries (and their summary bits).
  void census_add(std::size_t i) {
    const auto& s = stacks_[i];
    if (s.empty()) {
      ++counts_.empty;
      idle_flags_.set(i);
      busy_flags_.reset(i);
    } else {
      ++counts_.nonempty;
      idle_flags_.reset(i);
      const bool split = s.splittable();
      busy_flags_.set(i, split);
      if (split) ++counts_.splittable;
    }
    resync_lane_summaries(i);
  }

  /// Recomputes the three summary bits of the word holding lane `i` from the
  /// flag planes — the serial-context counterpart of the expand cycle's
  /// write-back maintenance.  Every serial plane mutation (census_add, fault
  /// kill/revive) ends here.
  void resync_lane_summaries(std::size_t i) {
    const std::size_t w = i / simd::BitPlane::kWordBits;
    const std::uint64_t idle_w = idle_flags_.words()[w];
    busy_summary_.update_word(w, busy_flags_.words()[w]);
    idle_summary_.update_word(w, idle_w);
    work_summary_.update_word(
        w, ~idle_w & ~dead_.words()[w] & idle_flags_.word_mask(w));
  }

  /// One stack-memory sample (serial, between cycles): accumulates the
  /// byte-cycle integral and the peak behind SchemeConfig::track_stack_memory.
  void note_stack_memory() {
    const std::size_t bytes = stack_memory_bytes();
    stack_bytes_integral_ += bytes;
    if (bytes > stack_bytes_peak_) stack_bytes_peak_ = bytes;
    ++stack_bytes_cycles_;
  }

  /// Full recomputation of all three summaries (iteration start).
  void rebuild_summaries() {
    busy_summary_.rebuild(busy_flags_);
    idle_summary_.rebuild(idle_flags_);
    const std::size_t nwords = idle_flags_.word_count();
    for (std::size_t w = 0; w < nwords; ++w) {
      work_summary_.update_word(w, ~idle_flags_.words()[w] &
                                       ~dead_.words()[w] &
                                       idle_flags_.word_mask(w));
    }
  }

  /// One load-balancing phase: one transfer round, or — with
  /// multiple_transfers — rounds until no idle processor can be served.
  /// A phase that cannot execute a single round (e.g. ring matching with no
  /// busy/idle adjacency) is a no-op: nothing is charged or counted and the
  /// trigger state is left untouched.  The flag planes are already current
  /// (the expansion cycle, earlier transfers, and fault events maintain
  /// them), so each round goes straight to matching.
  void lb_phase(IterationStats& stats, Trigger& trigger) {
    const double cost_before = machine_.clock().elapsed;
    std::uint64_t rounds = 0;
    for (;;) {
      std::uint64_t transfers = 0;
      if (cfg_.match == MatchScheme::kNeighbor) {
        neighbor_pairs_into(busy_flags_, busy_summary_, idle_flags_, pairs_);
        if (pairs_.empty()) break;
#ifdef SIMDTS_SANITIZE
        san_apply_pair_mutation();
#endif
        transfers = transfer_split(pairs_, stats);
        machine_.charge_neighbor_round();
      } else if (cfg_.transfer == TransferPolicy::kGiveOneNodeEach) {
        const std::uint64_t dropped_before = stats.messages_dropped;
        transfers = transfer_give_one(stats);
        if (transfers == 0 && stats.messages_dropped == dropped_before) break;
        machine_.charge_lb_round();
      } else {
        const std::size_t limit = cfg_.max_pairs_per_round == 0
                                      ? static_cast<std::size_t>(-1)
                                      : cfg_.max_pairs_per_round;
        matcher_.match_into(busy_flags_, busy_summary_, idle_flags_,
                            idle_summary_, limit, pairs_);
        if (pairs_.empty()) break;
#ifdef SIMDTS_SANITIZE
        san_apply_pair_mutation();
#endif
        transfers = transfer_split(pairs_, stats);
        machine_.charge_lb_round();
      }
      ++stats.lb_rounds;
      ++rounds;
      stats.transfers += transfers;
      if (!cfg_.multiple_transfers) break;
    }
    if (rounds == 0) return;
    ++stats.lb_phases;
    trigger.note_lb_cost(machine_.clock().elapsed - cost_before);
    trigger.begin_search_phase();
  }

  /// Executes split transfers for matched pairs, reclassifying each donor
  /// and receiver in the census as it goes; returns the count of transfers
  /// that actually happened.  An armed drop budget makes the router lose the
  /// next messages: the donated half never leaves the donor (so no work is
  /// lost — the donor retransmits at a later phase), and the loss is counted
  /// in stats.messages_dropped.
  std::uint64_t transfer_split(const std::vector<simd::Pair>& pairs,
                               IterationStats& stats) {
    std::uint64_t done = 0;
    for (const auto& [donor, receiver] : pairs) {
#ifdef SIMDTS_SANITIZE
      san_dead_.check_alive(donor, "donate");
      san_dead_.check_alive(receiver, "receive");
#endif
      if (drop_budget_ > 0) {
        --drop_budget_;
        ++stats.messages_dropped;
        continue;
      }
      if (!stacks_[donor].splittable() || !stacks_[receiver].empty()) {
        throw EngineError(
            "matched transfer pair violates its busy/idle preconditions",
            cfg_.name(), machine_.size(), fault_clock_);
      }
      census_remove(donor);
      census_remove(receiver);
      search::split(stacks_[donor], cfg_.split, split_buf_);
      search::receive(stacks_[receiver], split_buf_);
      census_add(donor);
      census_add(receiver);
      ++done;
    }
    return done;
  }

  /// Frye's first scheme: each busy processor hands single nodes to as many
  /// idle processors as it can spare (keeping one node for itself).  The
  /// donor and receiver enumerations are snapshots of the flags at round
  /// start, as on the lock-step machine.  Dropped messages consume a
  /// receiver slot but leave the node on the donor.
  std::uint64_t transfer_give_one(IterationStats& stats) {
    const simd::PeIndex start_after =
        cfg_.match == MatchScheme::kGP ? matcher_.pointer() : simd::kNoPe;
    simd::ranked_into(busy_flags_, busy_summary_, start_after, donors_buf_);
    simd::ranked_into(idle_flags_, idle_summary_, simd::kNoPe,
                      receivers_buf_);
    const std::vector<simd::PeIndex>& donors = donors_buf_;
    const std::vector<simd::PeIndex>& receivers = receivers_buf_;
    std::uint64_t transfers = 0;
    std::size_t r = 0;
    for (const simd::PeIndex d : donors) {
      if (r == receivers.size()) break;
#ifdef SIMDTS_SANITIZE
      san_dead_.check_alive(d, "donate");
#endif
      auto& st = stacks_[d];
      if (st.size() < 2) continue;
      census_remove(d);
      while (st.size() >= 2 && r < receivers.size()) {
        const simd::PeIndex rec = receivers[r];
        ++r;
        if (drop_budget_ > 0) {
          --drop_budget_;
          ++stats.messages_dropped;
          continue;
        }
        census_remove(rec);
        stacks_[rec].push(st.take_bottom());
        census_add(rec);
        ++transfers;
      }
      census_add(d);
    }
    return transfers;
  }

  const P& problem_;
  simd::Machine& machine_;
  SchemeConfig cfg_;
  const vec::Isa kernel_;  ///< the word kernel's build (select_kernel)
  Matcher matcher_;
  std::vector<StackT> stacks_;  ///< one per lane, never resized
  simd::BitPlane busy_flags_;   ///< splittable, maintained in place
  simd::BitPlane idle_flags_;   ///< empty *and alive*, in place
  simd::SummaryPlane busy_summary_;  ///< one bit per busy-plane word
  simd::SummaryPlane idle_summary_;  ///< one bit per idle-plane word
  simd::SummaryPlane work_summary_;  ///< bit w: word w has an active lane
  // Stack-memory accounting (track_stack_memory only; results-inert).
  std::uint64_t stack_bytes_integral_ = 0;  ///< sum over sampled cycles
  std::uint64_t stack_bytes_peak_ = 0;
  std::uint64_t stack_bytes_cycles_ = 0;
  fault::DeadLanePlane dead_;   ///< killed lanes (degraded mode)
  std::uint32_t alive_;         ///< surviving lane count
  Counts counts_;               ///< incrementally maintained census
  WalkScratch scratch_;         ///< expand_cycle's buffers
  std::vector<simd::Pair> pairs_;  ///< reused across lb rounds
  std::vector<simd::PeIndex> donors_buf_;     ///< reused per give-one round
  std::vector<simd::PeIndex> receivers_buf_;  ///< reused per give-one round
  std::vector<Node> split_buf_;  ///< one transfer's donated nodes, reused
  std::vector<Node> goal_nodes_;
  search::NextBound next_bound_;

  // Fault state (inert until arm_faults()).
  const fault::FaultPlan* fault_plan_ = nullptr;
  std::size_t next_fault_ = 0;       ///< cursor into the plan's events
  std::uint64_t fault_clock_ = 0;    ///< cumulative expand cycles this run
  std::uint64_t drop_budget_ = 0;    ///< messages the router will lose next
  std::uint64_t cycle_budget_ = 0;   ///< watchdog (0 = unlimited)
  std::uint64_t orphaned_total_ = 0;   ///< nodes journaled from dead PEs
  std::uint64_t recovered_total_ = 0;  ///< nodes re-donated to survivors
  std::vector<fault::RecoveryRecord> recovery_journal_;
  std::vector<Node> orphan_buf_;                    ///< reused per kill
  std::vector<std::uint32_t> recovery_receivers_;   ///< reused per kill

#ifdef SIMDTS_SANITIZE
  san::DeadLaneShadow san_dead_;  ///< SimdSan's copy of the dead plane
#endif
};

/// Engine with memory-bounded delta stacks: the mega-P configuration for
/// problems that provide a delta codec (search::DeltaTreeProblem).  A
/// CompactStack takes children only as rows, so the problem needs
/// expand_row() too (search::RowTreeProblem).
template <search::DeltaTreeProblem P>
  requires search::RowTreeProblem<P>
using CompactEngine = Engine<P, search::CompactStack<P>>;

}  // namespace simdts::lb
