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
// Hot-path structure: the lane state is one object, lb::Lanes
// (lb/lanes.hpp): the per-lane stacks, the busy/idle/dead flag planes
// (packed simd::BitPlanes, one std::uint64_t word per 64 lanes), their
// summaries, and the census (how many lanes are non-empty and splittable;
// the empty count is derived, alive - non-empty).  Lanes is the only code
// that writes them: the expansion cycle walks only the active lanes (one
// word load covers 64 lanes; a fully idle or dead block costs a single
// test) and settles each word through it, and work transfers and fault
// events reclassify exactly the lanes they change.  Matching enumerations
// are word-level popcount/countr_zero walks over the same planes.  Every
// bundled domain writes a popped node's children in place, four child
// slots at a time, into the four slots above the lane's stack top
// (top_row), and the stack is advanced by the child count (commit), so no
// step copies a child through a vector or branches on how many a node had
// (see expand_cycle).
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
// Expansion step: the word walk expands each word's active lanes in one
// step, as the paper's machine does, one expansion over all of a word's
// lanes: it pops them all first, noting each one's top row, then fills the
// rows one group of four child slots at a time, committing every lane's
// row between groups.  Only the row source varies, fixed by the problem's
// type and, for a kernel, at construction: the domain's word kernel
// (vec::expand_group: the 15-puzzle's AVX2 or AVX-512 build, or the
// synthetic tree's AVX-512 build) where vec::kernel_rule picks one
// (vec/expand.hpp), else one expand_row() call per node
// (search::RowTreeProblem, which every bundled domain is), else, for a
// type with only expand(), the node's expand() output, staged once per
// pop and handed out four children at a time.  Both stacks take rows the
// same way: a WorkStack's top row is its own storage, a CompactStack's a
// staging row that commit() encodes.  A row of four plus commit(k) equals
// k successive pushes, so each lane sees the same stack sequence whichever
// source runs, and the word settles through the same flag/census
// transition in the same bit order, so the choice never moves a simulated
// result; tests/test_row_step.cpp and tests/test_vector_backend.cpp pin
// that.
//
// Mega-P (P up to 2^20 and beyond): three coordinated mechanisms keep such
// machines practical.  The per-lane stacks live in one std::vector sized
// at construction and never resized, so a flag word's 64 stacks are one
// contiguous run and every address is stable for the engine's life; each
// flag plane carries a simd::SummaryPlane (one bit per 64-lane word,
// maintained by the one write-back that stores the word) so the expansion
// walk and every load-balancing enumeration skip empty regions and scale
// with *occupied* words, not P; and the per-lane stack is a template
// parameter, so a DeltaTreeProblem can swap WorkStack's full-Node entries
// for CompactStack's 2-byte delta records (see CompactEngine below).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/error.hpp"
#include "fault/fault.hpp"
#include "lb/config.hpp"
#include "lb/lanes.hpp"
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
#include "vec/expand.hpp"

namespace simdts::lb {

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
        lanes_(machine.size(), problem) {
    cfg_.validate();
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
    lanes_.revive_all();
    orphaned_total_ = 0;
    recovered_total_ = 0;
    recovery_journal_.clear();
#ifdef SIMDTS_SANITIZE
    san_dead_.clear();
#endif
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

    // The first surviving PE holds the root, every other survivor is idle.
    // From here on the lane state follows every expansion cycle, work
    // transfer and fault event, and is never recomputed by a full rescan.
    if (lanes_.alive() == 0) {
      throw FaultError("no surviving PE to start an iteration on",
                       cfg_.name(), machine_.size(), fault_clock_);
    }
    lanes_.reset(problem_.root());

    next_bound_ = search::NextBound{};
    goal_nodes_.clear();
    std::size_t goals_seen = 0;  // goal_nodes_ scanned so far (for B&B)

    Trigger trigger(cfg_, lanes_.alive(), machine_.cost().t_expand,
                    initial_lb_cost());
    trigger.begin_search_phase();
    // The initial work-distribution phase (Section 7): dynamic triggers are
    // preceded by static triggering at init_threshold until that fraction of
    // processors is active.
    bool init_phase =
        cfg_.trigger == TriggerKind::kDP || cfg_.trigger == TriggerKind::kDK;

    while (lanes_.nonempty() > 0) {
      if (cycle_budget_ != 0 && stats.expand_cycles >= cycle_budget_) {
        throw TimeoutError(cfg_.name(), machine_.size(), stats.expand_cycles,
                           cycle_budget_);
      }
      const std::uint32_t working = lanes_.nonempty();
      expand_cycle(bound, stats);
      machine_.charge_expand_cycle(working, lanes_.alive());
      trigger.note_cycle(working);
      ++stats.expand_cycles;
      if (cfg_.track_stack_memory) note_stack_memory();
      if (cfg_.record_trace) {
        stats.trace.push_back(TracePoint{lanes_.nonempty(),
                                         lanes_.splittable(), lanes_.alive()});
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
                                       ? lanes_.splittable()
                                       : lanes_.nonempty();
      bool fire;
      if (init_phase) {
        const bool below = static_cast<double>(active) <=
                           cfg_.init_threshold *
                               static_cast<double>(lanes_.alive());
        if (!below) init_phase = false;
        fire = below;
      } else {
        fire = trigger.should_trigger(active, lanes_.empty());
      }
      if (fire && lanes_.empty() > 0 && lanes_.splittable() > 0) {
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
    return lanes_.memory_bytes();
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
  [[nodiscard]] std::uint32_t alive() const noexcept { return lanes_.alive(); }

  /// The lost-work journal of the armed fault plan's kills: one record per
  /// kill event, with the detected orphan count and the recovery rounds it
  /// cost.  Cleared by arm_faults().
  [[nodiscard]] const std::vector<fault::RecoveryRecord>& recovery_journal()
      const noexcept {
    return recovery_journal_;
  }

 private:
  using Row = std::array<Node, 4>;

  /// The walk's reusable buffers, held inline so a steady-state cycle and
  /// the engine's construction allocate nothing for them.  A word's
  /// non-goal pops, in bit order, fill entry j of each: its node (the row
  /// sources expand_group and expand_row read it), the lane row its current
  /// slot group goes to, and that group's child count.  Each word writes an
  /// entry before reading it, so they start uninitialized and constructing
  /// an engine writes none of them.
  struct WalkScratch {
    std::array<Node, simd::BitPlane::kWordBits> nodes;
    std::array<Row*, simd::BitPlane::kWordBits> rows;
    std::array<std::uint32_t, simd::BitPlane::kWordBits> counts;
    // The expand() row source: a word's expand() output, node j's children
    // at children[staged[j], staged[j + 1]).  Cleared per word.
    std::vector<Node> children;
    std::array<std::uint32_t, simd::BitPlane::kWordBits + 1> staged;
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

  [[nodiscard]] double initial_lb_cost() const {
    return cfg_.match == MatchScheme::kNeighbor
               ? machine_.cost().neighbor_cost()
               : machine_.lb_round_cost();
  }

  /// One lock-step node-expansion cycle.  Every non-empty PE pops one node;
  /// goal nodes are recorded (and not expanded), everything else is expanded
  /// with the bound.  The loop walks the lane state one 64-lane word at a
  /// time, visiting only the words its work summary marks, and takes each
  /// word's active lanes (Lanes::active_lanes: alive and holding work) with
  /// std::countr_zero; the dead-lane mask is a word-level AND (zero-cost
  /// when no plan is armed: the plane is all-zero).  The walk is one host
  /// thread in PE order; its pruned bound is a local, folded into the run
  /// state once at the end of the cycle.
  ///
  /// Each word takes the one word step.  It pops the whole word first,
  /// noting each lane's top row, prefetches the next occupied word's stack
  /// tops, and fills the rows one group of four child slots at a time
  /// (expand_word); Lanes::settle_word then commits each lane's last group
  /// and runs the flag/census transition, in bit order.  Every lane thus
  /// writes each group into the four slots above its top and commits its
  /// count, in slot order, so its stack ends up exactly as after pushing
  /// expand()'s output.
  ///
  ///   pop all active bits, rows[j] = top_row  (expand() source: stage the
  ///                                            node's children)
  ///   -> prefetch next word's tops
  ///   -> per slot group: (commit(count[j]), rows[j] = top_row) after the
  ///      first; expand_group(rows), or expand_row(nodes[j], *rows[j]), or
  ///      the staged children's next four, for each j
  ///   settle, each active bit:  commit(count[j]) -> flags
  // SIMDLINT-REGION(lockstep)
  void expand_cycle(search::Bound bound, IterationStats& stats) {
    // Constant kNone for problems without a kernel, so their walk compiles
    // without it.
    const vec::Isa kernel = vec::kHasKernel<P> ? kernel_ : vec::Isa::kNone;
    const std::size_t nwords = lanes_.word_count();
    search::NextBound next_bound;  // least f-value pruned this cycle
    const std::size_t goals_before = goal_nodes_.size();
#ifdef SIMDTS_SANITIZE
    // The dead-lane-expansion mutation needs the flat walk: it fakes every
    // lane alive, which the work summary would mask back out by skipping
    // all-dead words entirely.
    const bool san_flat = san::mutation().expand_dead_lane;
#else
    constexpr bool san_flat = false;
#endif
    std::size_t next_w = 0;
    for (std::size_t w = san_flat ? 0 : lanes_.next_occupied(0); w < nwords;
         w = next_w) {
      // Only word w's summary bit changes below, so the next occupied word
      // is known now (the word step prefetches its stack tops).
      next_w = san_flat ? w + 1 : lanes_.next_occupied(w + 1);
      std::uint64_t active = lanes_.active_lanes(w);
#ifdef SIMDTS_SANITIZE
      if (san_flat) active |= lanes_.dead().words()[w];
#endif
      if (active == 0) continue;
#ifdef SIMDTS_SANITIZE
      for (std::uint64_t m = active; m != 0; m &= m - 1) {
        const auto b = static_cast<unsigned>(std::countr_zero(m));
        san_dead_.check_alive(w * simd::BitPlane::kWordBits + b, "expand");
      }
#endif
      const std::uint64_t next_active =
          next_w < nwords ? lanes_.active_lanes(next_w) : 0;
      const std::uint64_t goal_bits = expand_word(
          lanes_.word_stacks(w), active,
          next_active != 0 ? lanes_.word_stacks(next_w) : nullptr,
          next_active, kernel, bound, next_bound);
      lanes_.settle_word(w, active, goal_bits, scratch_.counts.data());
    }
#ifdef SIMDTS_SANITIZE
    lanes_.san_end_cycle();
#endif
    stats.goals_found += goal_nodes_.size() - goals_before;
    next_bound_.merge(next_bound);
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
  /// word's expansion instead of the next gather; then fills the rows one
  /// slot group at a time, the group loop outside the node loop.  Each
  /// group after the first commits the previous group's counts and takes a
  /// fresh top row per lane.  On return node j's last group sits in the
  /// first scratch_.counts[j] slots of *scratch_.rows[j], uncommitted.
  /// The row source: with a `kernel` build one vec::expand_group() call per
  /// group, else one expand_row() call per node and group; a type without
  /// expand_row() expands each node once as it is popped, and its groups
  /// (as many as the word's widest node needs, at least one) hand out the
  /// staged children four at a time.  Returns the word's goal bits.
  // SIMDLINT-REGION(lockstep)
  std::uint64_t expand_word(StackT* lanes, std::uint64_t active,
                            const StackT* next_lanes,
                            std::uint64_t next_active, vec::Isa kernel,
                            search::Bound bound,
                            search::NextBound& next_bound) {
    constexpr bool kRowSource = search::RowTreeProblem<P>;
    Node* const nodes = scratch_.nodes.data();
    Row** const rows = scratch_.rows.data();
    std::uint32_t* const counts = scratch_.counts.data();
    std::vector<Node>& children = scratch_.children;
    std::uint32_t* const staged = scratch_.staged.data();
    std::uint32_t slots = 1;  // the expand() source's group loop bound
    if constexpr (!kRowSource) {
      children.clear();
      staged[0] = 0;
    }
    std::uint32_t count = 0;
    std::uint64_t goal_bits = 0;
    for (std::uint64_t m = active; m != 0; m &= m - 1) {
      const auto b = static_cast<unsigned>(std::countr_zero(m));
      Node n = lanes[b].pop();
      if (record_goal(n)) {
        goal_bits |= std::uint64_t{1} << b;
        continue;
      }
      if constexpr (kRowSource) {
        nodes[count] = n;
      } else {
        // SIMDLINT-EFFECT-OK(allocates) children is persistent-capacity
        problem_.expand(n, bound, children, next_bound);
        // scratch: growth is amortized over the run.
        staged[count + 1] = static_cast<std::uint32_t>(children.size());
        slots = std::max(slots, staged[count + 1] - staged[count]);
      }
      rows[count] = &lanes[b].top_row();
      ++count;
    }
    if constexpr (requires(const StackT& s) { s.prefetch_top(); }) {
      for (std::uint64_t m = next_active; m != 0; m &= m - 1) {
        next_lanes[std::countr_zero(m)].prefetch_top();
      }
    }
    if constexpr (kRowSource) slots = problem_.child_slots();
    const std::uint64_t expanded = active & ~goal_bits;
    for (std::uint32_t first = 0; first < slots; first += 4) {
      if (first != 0) {
        std::uint32_t j = 0;
        for (std::uint64_t m = expanded; m != 0; m &= m - 1, ++j) {
          StackT& st = lanes[std::countr_zero(m)];
          st.commit(counts[j]);
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
        if constexpr (kRowSource) {
          counts[j] = problem_.expand_row(nodes[j], bound, *rows[j],
                                          next_bound, first);
        } else {
          const std::uint32_t from = staged[j] + first;
          const std::uint32_t k =
              from < staged[j + 1] ? std::min(staged[j + 1] - from, 4u) : 0;
          std::copy_n(children.begin() + from, k, rows[j]->begin());
          counts[j] = k;
        }
      }
    }
    return goal_bits;
  }

#ifdef SIMDTS_SANITIZE
  /// Mutation hook: redirect the first matched pair's donor to a dead lane
  /// so the donation-side dead-lane check can be proven to fire.
  void san_apply_pair_mutation() {
    if (!san::mutation().donate_from_dead || pairs_.empty()) return;
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_.dead().test(i)) {
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

  /// Kills PE `pe`: removes it from the lane state, then journals its
  /// unexpanded stack intervals and re-donates them to survivors (the
  /// recovery phase).  Receivers are the surviving idle PEs in wrap order
  /// after the dead PE (falling back to all survivors when none is idle);
  /// nodes are dealt round-robin bottom-first, so each receiver's stack
  /// stays in depth-first order.  Each round-robin wave costs one recovery
  /// transfer round on the machine clock.
  void kill_pe(std::uint32_t pe, IterationStats& stats, Trigger& trigger) {
    if (lanes_.dead().test(pe)) return;
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_dead(pe);
#endif
    ++stats.pes_killed;

    orphan_buf_.clear();
    lanes_.kill(pe, orphan_buf_);
    const std::uint64_t orphans = orphan_buf_.size();
    if (lanes_.alive() == 0) {
      if (orphans > 0 || lanes_.nonempty() > 0) {
        throw FaultError("fault plan killed every PE with work outstanding",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    trigger.set_machine_size(lanes_.alive());
    if (orphans == 0) {
      recovery_journal_.push_back(
          fault::RecoveryRecord{fault_clock_, pe, 0, 0});
      return;
    }
    orphaned_total_ += orphans;

    // Enumerate receivers: surviving idle lanes in wrap order after the dead
    // PE — the same fairness rotation GP applies to donors (the idle plane
    // holds no dead lane) — falling back to every survivor when no lane is
    // idle.
    simd::ranked_into(lanes_.idle(), lanes_.idle_summary(), pe,
                      recovery_receivers_);
    if (recovery_receivers_.empty()) {
      const std::uint32_t p = machine_.size();
      for (std::uint32_t off = 1; off <= p; ++off) {
        const std::uint32_t i = (pe + off) % p;
        if (!lanes_.dead().test(i)) recovery_receivers_.push_back(i);
      }
    }
    const std::size_t receivers = recovery_receivers_.size();
    for (std::size_t j = 0; j < orphan_buf_.size(); ++j) {
      lanes_.reclassify(recovery_receivers_[j % receivers],
                        [&](StackT& s) { s.push(orphan_buf_[j]); });
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
    if (!lanes_.dead().test(pe)) return;
    lanes_.revive(pe);
#ifdef SIMDTS_SANITIZE
    san_dead_.mark_alive(pe);
#endif
    ++stats.pes_revived;
    trigger.set_machine_size(lanes_.alive());
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
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_.dead().test(i) && !lanes_.stack(i).empty()) {
        throw FaultError("conservation violated: a dead PE still holds work",
                         cfg_.name(), machine_.size(), fault_clock_);
      }
    }
  }

  /// One stack-memory sample (serial, between cycles): accumulates the
  /// byte-cycle integral and the peak behind SchemeConfig::track_stack_memory.
  void note_stack_memory() {
    const std::size_t bytes = stack_memory_bytes();
    stack_bytes_integral_ += bytes;
    if (bytes > stack_bytes_peak_) stack_bytes_peak_ = bytes;
    ++stack_bytes_cycles_;
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
        neighbor_pairs_into(lanes_.busy(), lanes_.busy_summary(),
                            lanes_.idle(), pairs_);
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
        matcher_.match_into(lanes_.busy(), lanes_.busy_summary(),
                            lanes_.idle(), lanes_.idle_summary(), limit,
                            pairs_);
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
      if (!lanes_.stack(donor).splittable() ||
          !lanes_.stack(receiver).empty()) {
        throw EngineError(
            "matched transfer pair violates its busy/idle preconditions",
            cfg_.name(), machine_.size(), fault_clock_);
      }
      lanes_.reclassify(donor, [&](StackT& s) {
        search::split(s, cfg_.split, split_buf_);
      });
      lanes_.reclassify(receiver,
                        [&](StackT& s) { search::receive(s, split_buf_); });
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
    simd::ranked_into(lanes_.busy(), lanes_.busy_summary(), start_after,
                      donors_buf_);
    simd::ranked_into(lanes_.idle(), lanes_.idle_summary(), simd::kNoPe,
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
      while (lanes_.stack(d).size() >= 2 && r < receivers.size()) {
        const simd::PeIndex rec = receivers[r];
        ++r;
        if (drop_budget_ > 0) {
          --drop_budget_;
          ++stats.messages_dropped;
          continue;
        }
        Node n{};
        lanes_.reclassify(d, [&](StackT& s) { n = s.take_bottom(); });
        lanes_.reclassify(rec, [&](StackT& s) { s.push(n); });
        ++transfers;
      }
    }
    return transfers;
  }

  const P& problem_;
  simd::Machine& machine_;
  SchemeConfig cfg_;
  const vec::Isa kernel_;  ///< the word kernel's build (select_kernel)
  Matcher matcher_;
  Lanes<StackT> lanes_;  ///< stacks, flag planes, summaries, census
  // Stack-memory accounting (track_stack_memory only; results-inert).
  std::uint64_t stack_bytes_integral_ = 0;  ///< sum over sampled cycles
  std::uint64_t stack_bytes_peak_ = 0;
  std::uint64_t stack_bytes_cycles_ = 0;
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
/// problems that provide a delta codec (search::DeltaTreeProblem).
template <search::DeltaTreeProblem P>
using CompactEngine = Engine<P, search::CompactStack<P>>;

}  // namespace simdts::lb
