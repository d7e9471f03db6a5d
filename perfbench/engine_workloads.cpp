// The two engine workloads: puzzle-p8192 and fig4-sweep.
#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "common/error.hpp"
#include "layers.hpp"
#include "lb/engine.hpp"
#include "pools.hpp"
#include "probes.hpp"
#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "runtime/sweep.hpp"
#include "search/serial.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "synthetic/calibrate.hpp"
#include "synthetic/tree.hpp"
#include "synthetic/workloads.hpp"

namespace perfbench {

namespace {

using namespace simdts;

constexpr std::uint32_t kPuzzleP = 8192;
constexpr std::uint32_t kFig4Sizes[] = {512, 1024, 2048, 4096, 8192};
constexpr std::uint64_t kFig4CycleBudget = 1u << 24;  // watchdog per cell
constexpr std::size_t kProbeInputs = 8;

lb::IterationStats without_trace(lb::IterationStats s) {
  s.trace.clear();
  return s;
}

/// Adds one engine run's domain counters and IterationStats counts to the
/// layer totals (a grid adds 30 runs).  Every expand call runs inside an
/// lb.iteration span, so all domain time is credited inside lb.
void add_run(Layers& l, const DomainCounters& dc, const lb::IterationStats& s) {
  l.expand_calls += static_cast<double>(dc.expand_calls);
  l.children += static_cast<double>(dc.children);
  l.expand_s += dc.expand_s();
  l.expand_in_lb_s = l.expand_s;
  l.expand_cycles += static_cast<double>(s.expand_cycles);
  l.lb_phases += static_cast<double>(s.lb_phases);
  l.lb_rounds += static_cast<double>(s.lb_rounds);
  l.transfers += static_cast<double>(s.transfers);
}

// --- puzzle-p8192 ------------------------------------------------------------

lb::SchemeConfig puzzle_config() { return lb::gp_dk(); }

struct PuzzleState {
  puzzle::FifteenPuzzle problem;
  simd::Machine machine;
  lb::Engine<puzzle::FifteenPuzzle> engine;

  explicit PuzzleState(const PuzzleEntry& e)
      : problem(puzzle::random_walk(e.walk_seed, kPuzzleWalkSteps)),
        machine(kPuzzleP, simd::cm2_cost_model()),
        engine(problem, machine, puzzle_config()) {}
};

/// The simulated outputs a puzzle solve is checked on.
struct PuzzleOutcome {
  std::uint64_t w = 0;
  search::Bound bound = 0;
  std::uint64_t goals = 0;
  std::uint64_t expand_cycles = 0;
  std::uint64_t lb_phases = 0;

  friend bool operator==(const PuzzleOutcome&, const PuzzleOutcome&) = default;
};

PuzzleOutcome outcome_of(const lb::RunStats& rs) {
  return PuzzleOutcome{rs.total.nodes_expanded, rs.solution_bound,
                       rs.goals_found, rs.total.expand_cycles,
                       rs.total.lb_phases};
}

PuzzleOutcome pinned_outcome(const PuzzleEntry& e) {
  return PuzzleOutcome{e.serial_total, e.bound, e.goals, e.expand_cycles,
                       e.lb_phases};
}

/// One traced solve: Engine::run()'s IDA* loop driven from outside, one
/// lb.iteration span per run_iteration call, expand time folded in.
struct PuzzleTraced {
  Layers layers;
  lb::RunStats stats;
  std::vector<lb::TracePoint> trace;
};

PuzzleTraced traced_puzzle(const PuzzleEntry& e, SpanRecorder& rec) {
  PuzzleTraced out;
  Layers& l = out.layers;
  DomainCounters dc;
  const puzzle::FifteenPuzzle problem(
      puzzle::random_walk(e.walk_seed, kPuzzleWalkSteps));
  const TimedProblem<puzzle::FifteenPuzzle> timed(problem, dc);
  lb::SchemeConfig cfg = puzzle_config();
  cfg.record_trace = true;
  cfg.track_stack_memory = true;

  const int construct = rec.open("lb.construct");
  simd::Machine machine(kPuzzleP, simd::cm2_cost_model());
  lb::Engine<TimedProblem<puzzle::FifteenPuzzle>> engine(timed, machine, cfg);
  rec.close(construct);

  const int body = rec.open("bench.body");
  lb::RunStats& rs = out.stats;
  search::Bound bound = timed.f_value(timed.root());
  for (;;) {
    const double before = dc.expand_s();
    const int it = rec.open("lb.iteration", body);
    lb::IterationStats iter = engine.run_iteration(bound);
    rec.close(it);
    rec.fold(it, "domain.expand", dc.expand_s() - before);
    out.trace.insert(out.trace.end(), iter.trace.begin(), iter.trace.end());
    iter.trace.clear();
    rs.total += iter;
    rs.final_iteration = iter;
    rs.iterations.push_back(iter);
    if (iter.goals_found > 0) {
      rs.solution_bound = bound;
      rs.goals_found = iter.goals_found;
      break;
    }
    if (iter.next_bound == search::kUnbounded) break;
    bound = iter.next_bound;
  }
  rec.close(body);

  const std::vector<Span> spans = rec.spans();
  const Span& b = spans[static_cast<std::size_t>(body)];
  l.traced_wall_s = b.end - b.start;
  l.self_times = layer_self_times(spans, b.start, b.end);
  const Span& c = spans[static_cast<std::size_t>(construct)];
  l.construct_s = c.end - c.start;
  for (const Span& s : spans) {
    if (s.parent == body && s.name == "lb.iteration") {
      l.iteration_s += s.end - s.start;
    }
  }
  add_run(l, dc, rs.total);
  l.iterations = static_cast<double>(rs.iterations.size());
  l.sim_efficiency = rs.efficiency();
  l.stack_peak_bytes = static_cast<double>(engine.stack_memory_peak());
  l.stack_avg_bytes_per_lane = engine.stack_memory_avg_per_lane();
  return out;
}

// --- fig4-sweep --------------------------------------------------------------

synthetic::Params ladder_params(std::size_t tree, const TreeEntry& e) {
  synthetic::Params p = synthetic::iso_workloads()[tree].params;
  p.seed = e.seed;
  return p;
}

lb::SchemeConfig fig4_config() { return lb::gp_static(0.90); }

struct Fig4State {
  std::vector<synthetic::SyntheticWorkload> trees;
  lb::SchemeConfig cfg;
  analysis::GridOptions options;
};

std::unique_ptr<Fig4State> fig4_setup(std::size_t pool_index) {
  auto s = std::make_unique<Fig4State>();
  const auto ladder = synthetic::iso_workloads();
  for (std::size_t t = 0; t < kFig4Trees; ++t) {
    const TreeEntry& e = kLadderPool[t][pool_index];
    s->trees.push_back(
        synthetic::SyntheticWorkload{ladder[t].name, ladder_params(t, e), e.w});
  }
  s->cfg = fig4_config();
  s->cfg.validate();
  s->options.threads = kSweepThreads;
  s->options.cycle_budget = kFig4CycleBudget;
  return s;
}

analysis::GridResult fig4_body(const Fig4State& s) {
  return analysis::run_grid(s.cfg, s.trees, kFig4Sizes, simd::cm2_cost_model(),
                            s.options);
}

std::uint64_t grid_digest(const std::vector<analysis::GridPoint>& points) {
  std::uint64_t h = fnv1a("");
  for (const auto& pt : points) {
    h = fnv1a(analysis::encode_grid_point(pt) + "\n", h);
  }
  return h;
}

struct Fig4Traced {
  Layers layers;
  std::vector<analysis::GridPoint> points;
  std::vector<lb::TracePoint> largest_p_trace;
};

/// The same 30 cells as run_grid, driven through runtime::SweepRunner with
/// one runtime.task span per cell.
Fig4Traced traced_fig4(const Fig4State& s, SpanRecorder& rec) {
  Fig4Traced out;
  Layers& l = out.layers;
  const std::size_t per_size = s.trees.size();
  const std::size_t n = std::size(kFig4Sizes) * per_size;
  out.points.resize(n);
  struct Cell {
    DomainCounters dc;
    lb::IterationStats stats;
    std::uint64_t stack_peak = 0;
    double stack_avg = 0;
    int task = -1, construct = -1, iteration = -1;
  };
  std::vector<Cell> cells(n);
  lb::SchemeConfig cfg = s.cfg;
  cfg.record_trace = true;
  cfg.track_stack_memory = true;

  runtime::SweepRunner runner(kSweepThreads);
  const int body = rec.open("bench.body");
  runner.run(n, [&](std::size_t k) {
    Cell& cell = cells[k];
    cell.task = rec.open("runtime.task", body);
    {
      const std::uint32_t p = kFig4Sizes[k / per_size];
      const synthetic::Tree tree(s.trees[k % per_size].params);
      const TimedProblem<synthetic::Tree> timed(tree, cell.dc);
      cell.construct = rec.open("lb.construct", cell.task);
      simd::Machine machine(p, simd::cm2_cost_model());
      lb::Engine<TimedProblem<synthetic::Tree>> engine(timed, machine, cfg);
      engine.set_cycle_budget(s.options.cycle_budget);
      rec.close(cell.construct);
      analysis::GridPoint& pt = out.points[k];
      cell.iteration = rec.open("lb.iteration", cell.task);
      try {
        cell.stats = engine.run_iteration(search::kUnbounded);
        pt.p = p;
        pt.w = cell.stats.nodes_expanded;
        pt.efficiency = cell.stats.efficiency();
        pt.expand_cycles = cell.stats.expand_cycles;
        pt.lb_phases = cell.stats.lb_phases;
        pt.lb_rounds = cell.stats.lb_rounds;
        pt.clock = cell.stats.clock;
      } catch (const TimeoutError&) {
        pt = analysis::GridPoint{};
        pt.p = p;
        pt.timed_out = true;
      }
      rec.close(cell.iteration);
      rec.fold(cell.iteration, "domain.expand", cell.dc.expand_s());
      cell.stack_peak = engine.stack_memory_peak();
      cell.stack_avg = engine.stack_memory_avg_per_lane();
    }
    rec.close(cell.task);
  });
  rec.close(body);

  const std::vector<Span> spans = rec.spans();
  const Span& b = spans[static_cast<std::size_t>(body)];
  l.host_threads = kSweepThreads;
  l.traced_wall_s = b.end - b.start;
  l.self_times = layer_self_times(spans, b.start, b.end);
  std::map<std::uint64_t, double> busy, last_end;
  double sim_eff_sum = 0, stack_bytes = 0, lane_cycles = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const Cell& cell = cells[k];
    const Span& t = spans[static_cast<std::size_t>(cell.task)];
    const Span& c = spans[static_cast<std::size_t>(cell.construct)];
    const Span& i = spans[static_cast<std::size_t>(cell.iteration)];
    const double task_s = t.end - t.start;
    busy[t.thread] += task_s;
    last_end[t.thread] = std::max(last_end[t.thread], t.end);
    l.task_busy_s += task_s;
    l.max_task_s = std::max(l.max_task_s, task_s);
    l.construct_s += c.end - c.start;
    l.iteration_s += i.end - i.start;
    add_run(l, cell.dc, cell.stats);
    sim_eff_sum += cell.stats.efficiency();
    const double p = kFig4Sizes[k / per_size];
    l.stack_peak_bytes =
        std::max(l.stack_peak_bytes, static_cast<double>(cell.stack_peak));
    const double cycles = static_cast<double>(cell.stats.expand_cycles);
    stack_bytes += cell.stack_avg * cycles * p;
    lane_cycles += cycles * p;
    if (kFig4Sizes[k / per_size] == kFig4Sizes[std::size(kFig4Sizes) - 1]) {
      out.largest_p_trace.insert(out.largest_p_trace.end(),
                                 cell.stats.trace.begin(),
                                 cell.stats.trace.end());
    }
  }
  l.iterations = static_cast<double>(n);
  l.sim_efficiency = sim_eff_sum / static_cast<double>(n);
  l.stack_avg_bytes_per_lane = lane_cycles > 0 ? stack_bytes / lane_cycles : 0;
  l.tasks = static_cast<double>(n);
  double max_busy = 0;
  for (const auto& [thread, t] : busy) {
    max_busy = std::max(max_busy, t);
    l.tail_idle_s += b.end - last_end[thread];
  }
  // A sweep thread that ran no task idled through the whole body.
  const auto idle_threads = static_cast<double>(
      kSweepThreads - std::min<std::size_t>(busy.size(), kSweepThreads));
  l.tail_idle_s += idle_threads * l.traced_wall_s;
  l.imbalance = l.task_busy_s > 0
                    ? max_busy / (l.task_busy_s / kSweepThreads)
                    : 0;
  return out;
}

void add_probes(Layers& l, std::uint32_t p,
                const std::vector<lb::TracePoint>& trace, Report& report) {
  const ProbeResult pr =
      probe_lb(p, densities_from_trace(trace, kProbeInputs), 0x9E3779B9ULL + p);
  l.rendezvous_flat_ns = pr.flat_ns;
  l.rendezvous_hier_ns = pr.hier_ns;
  l.match_gp_ns = pr.match_ns;
  report.check(pr.inputs > 0 && pr.mismatches == 0,
               "flat and hierarchical rendezvous pairs differ");
}

}  // namespace

// --- workload entry points ------------------------------------------------------

void run_puzzle(const Options& opt, Report& report) {
  const std::size_t k = pool_index(opt.seed);
  const PuzzleEntry& e = kPuzzlePool[k];
  report.info.push_back("instance: random_walk(seed=" +
                        std::to_string(e.walk_seed) + ", steps=" +
                        std::to_string(kPuzzleWalkSteps) + "), P=8192, " +
                        puzzle_config().name());
  std::vector<PuzzleOutcome> outcomes;
  lb::RunStats untraced;  // the first solve's full stats
  const Samples s = timed_loop(
      opt.untraced_seconds(),
      [&] { return std::make_unique<PuzzleState>(e); },
      [](PuzzleState& st) { return st.engine.run(); },
      [&](lb::RunStats&& rs) {
        outcomes.push_back(outcome_of(rs));
        if (outcomes.size() == 1) untraced = std::move(rs);
      });

  // Reference: the pinned pool values; any seed but the default also
  // re-derives W, the bound and the goal count by serial IDA*.
  const PuzzleOutcome ref = pinned_outcome(e);
  if (!opt.is_default_seed()) {
    const puzzle::FifteenPuzzle problem(
        puzzle::random_walk(e.walk_seed, kPuzzleWalkSteps));
    const search::SerialIdaResult serial = search::serial_ida(problem);
    report.check(serial.total_expanded == e.serial_total &&
                     serial.solution_bound == e.bound &&
                     serial.goals_found == e.goals,
                 "serial IDA* disagrees with the pinned pool entry");
  }
  for (const PuzzleOutcome& o : outcomes) {
    report.check(o == ref, "puzzle solve: W/bound/goals/phases differ from "
                           "the reference");
  }

  if (!opt.trace) {
    add_end_to_end(report, s, static_cast<double>(e.serial_total), 1.0, 1);
    return;
  }
  SpanRecorder rec;
  std::vector<lb::TracePoint> trace;
  Layers l = run_traced(opt.traced_seconds(), [&] {
    PuzzleTraced t = traced_puzzle(e, rec);
    lb::RunStats expect = untraced;
    expect.total = without_trace(expect.total);
    expect.final_iteration = without_trace(expect.final_iteration);
    for (auto& it : expect.iterations) it = without_trace(it);
    report.check(t.stats == expect,
                 "traced puzzle solve differs from the untraced one");
    if (trace.empty()) trace = std::move(t.trace);
    return t.layers;
  });
  add_probes(l, kPuzzleP, trace, report);
  emit_layers(report, l, median(s.wall_s));
  finish_trace(opt, rec, report);
}

void run_fig4(const Options& opt, Report& report) {
  const std::size_t k = pool_index(opt.seed);
  std::uint64_t total_w = 0;
  std::string seeds;
  for (std::size_t t = 0; t < kFig4Trees; ++t) {
    total_w += kLadderPool[t][k].w * std::size(kFig4Sizes);
    seeds += (t == 0 ? "" : ",") + std::to_string(kLadderPool[t][k].seed);
  }
  report.info.push_back("instance: synthetic seeds=" + seeds +
                        ", P=512..8192, " + fig4_config().name());
  std::vector<analysis::GridResult> grids;
  const Samples s = timed_loop(
      opt.untraced_seconds(), [&] { return fig4_setup(k); }, fig4_body,
      [&](analysis::GridResult&& g) { grids.push_back(std::move(g)); });

  // Reference W per tree: pinned; re-derived by serial DFS off the default
  // seed.
  std::vector<std::uint64_t> ref_w;
  const auto state = fig4_setup(k);
  for (std::size_t t = 0; t < kFig4Trees; ++t) {
    ref_w.push_back(kLadderPool[t][k].w);
    if (!opt.is_default_seed()) {
      report.check(synthetic::measure(state->trees[t].params) == ref_w[t],
                   "serial DFS disagrees with the pinned pool entry");
    }
  }
  for (const analysis::GridResult& g : grids) {
    bool digest_ok = grid_digest(g.points) == kFig4Digests[k];
    for (std::size_t i = 0; i < g.points.size(); ++i) {
      const analysis::GridPoint& pt = g.points[i];
      report.check(digest_ok && !pt.timed_out &&
                       pt.p == kFig4Sizes[i / kFig4Trees] &&
                       pt.w == ref_w[i % kFig4Trees],
                   "fig4 cell " + std::to_string(i) +
                       ": timed out, wrong W, or grid digest differs");
    }
  }

  if (!opt.trace) {
    add_end_to_end(report, s, static_cast<double>(total_w),
                   static_cast<double>(std::size(kFig4Sizes) * kFig4Trees),
                   kSweepThreads);
    return;
  }
  SpanRecorder rec;
  std::vector<lb::TracePoint> trace;
  Layers l = run_traced(opt.traced_seconds(), [&] {
    Fig4Traced t = traced_fig4(*state, rec);
    report.check(t.points == grids.front().points,
                 "SweepRunner-driven grid differs from run_grid's");
    if (trace.empty()) trace = std::move(t.largest_p_trace);
    return t.layers;
  });
  add_probes(l, kFig4Sizes[std::size(kFig4Sizes) - 1], trace, report);
  emit_layers(report, l, median(s.wall_s));
  finish_trace(opt, rec, report);
}

void print_pins() {
  std::printf("// kPuzzlePool parallel pins (expand_cycles, lb_phases)\n");
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    PuzzleState st(kPuzzlePool[k]);
    const lb::RunStats rs = st.engine.run();
    std::printf("    {%llu, %llu, %llu, %d, %llu, %llu, %llu},\n",
                static_cast<unsigned long long>(kPuzzlePool[k].walk_seed),
                static_cast<unsigned long long>(rs.total.nodes_expanded),
                static_cast<unsigned long long>(
                    rs.final_iteration.nodes_expanded),
                rs.solution_bound,
                static_cast<unsigned long long>(rs.goals_found),
                static_cast<unsigned long long>(rs.total.expand_cycles),
                static_cast<unsigned long long>(rs.total.lb_phases));
    std::fflush(stdout);
  }
  std::printf("// kFig4Digests\n");
  for (std::size_t k = 0; k < kPoolSize; ++k) {
    const analysis::GridResult g = fig4_body(*fig4_setup(k));
    bool ok = true;
    for (const auto& pt : g.points) ok = ok && !pt.timed_out;
    std::printf("    0x%016llxULL,%s\n",
                static_cast<unsigned long long>(grid_digest(g.points)),
                ok ? "" : "  // TIMED OUT");
    std::fflush(stdout);
  }
}

}  // namespace perfbench
