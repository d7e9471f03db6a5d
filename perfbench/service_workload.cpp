// service-trace: one SolveService with a cache journal replays a 100k-request
// random trace twice — a cold pass that writes the cache, then a warm pass
// on a fresh service over the same journal that reads it back.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "fault/service_fault.hpp"
#include "layers.hpp"
#include "lb/engine.hpp"
#include "pools.hpp"
#include "probes.hpp"
#include "puzzle/board.hpp"
#include "puzzle/fifteen.hpp"
#include "search/serial.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"
#include "service/service.hpp"
#include "simd/cost_model.hpp"
#include "simd/machine.hpp"
#include "synthetic/tree.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace simdts;
using service::Request;
using service::Response;
using service::ResponseStatus;

constexpr std::size_t kRequests = 100000;
constexpr std::uint32_t kTenants = 4;
constexpr std::uint64_t kTraceSeedBase = 20260808;

service::ServiceConfig service_config(const std::filesystem::path& journal) {
  service::ServiceConfig cfg;
  // Sized so the trace's offered load sits just under capacity: nearly
  // every request is admitted, and the queue still fills now and then.
  cfg.admission.engines = 5;
  cfg.admission.queue_capacity = 16;
  cfg.cache_path = journal;
  cfg.threads = kServiceThreads;
  return cfg;
}

struct ServiceState {
  std::vector<Request> trace;
  std::filesystem::path journal;
  std::unique_ptr<service::SolveService> svc;

  ServiceState(std::uint64_t trace_seed, const std::string& dir)
      : trace(service::random_trace(trace_seed, kRequests, kTenants)),
        journal(fresh_journal(dir)),
        svc(std::make_unique<service::SolveService>(service_config(journal))) {}
  ServiceState(const ServiceState&) = delete;
  ServiceState& operator=(const ServiceState&) = delete;
  ~ServiceState() {
    std::error_code ec;
    std::filesystem::remove(journal, ec);
  }

  static std::filesystem::path fresh_journal(const std::string& dir) {
    static int counter = 0;
    std::filesystem::path p = std::filesystem::path(dir) /
                              ("cache-" + std::to_string(counter++) + ".journal");
    std::filesystem::remove(p);
    return p;
  }
};

struct Passes {
  std::vector<Response> cold, warm;
  service::ServiceCounters cold_counters, warm_counters;
};

/// The timed body: the cold pass, then a warm pass on a fresh service that
/// opens (and replays) the journal the cold pass wrote.
Passes replay(ServiceState& st) {
  Passes p;
  p.cold = st.svc->run_trace(st.trace);
  p.cold_counters = st.svc->counters();
  service::SolveService warm(service_config(st.journal));
  p.warm = warm.run_trace(st.trace);
  p.warm_counters = warm.counters();
  return p;
}

std::uint64_t log_digest(const std::vector<Response>& rs) {
  return fnv1a(service::SolveService::response_log(rs));
}

bool executed_exhaustive(const Request& r, const Response& out) {
  return r.mode == service::SolveMode::kExhaustive &&
         !out.first_solution_forced;
}

std::uint64_t effective_key(const Request& r, const Response& out) {
  const service::SolveMode mode = out.first_solution_forced
                                      ? service::SolveMode::kFirstSolution
                                      : r.mode;
  return service::canonical_key(r, out.executed_p, mode);
}

lb::SchemeConfig scheme_of(const Request& r) {
  const double x = service::ServiceConfig{}.static_x;
  switch (r.scheme) {
    case service::SchemeKind::kNgpStatic: return lb::ngp_static(x);
    case service::SchemeKind::kGpStatic: return lb::gp_static(x);
    case service::SchemeKind::kNgpDp: return lb::ngp_dp();
    case service::SchemeKind::kGpDp: return lb::gp_dp();
    case service::SchemeKind::kNgpDk: return lb::ngp_dk();
    case service::SchemeKind::kGpDk: return lb::gp_dk();
  }
  return lb::gp_dk();
}

// The service's instance mapping (service.cpp's solve_one): a synthetic tree
// of depth instance_size, or a random-walk 15-puzzle of that many steps.
synthetic::Params tree_params(const Request& r) {
  return synthetic::Params{r.instance_seed, 4, 0.395,
                           static_cast<std::uint16_t>(r.instance_size)};
}

puzzle::Board puzzle_board(const Request& r) {
  return puzzle::random_walk(r.instance_seed,
                             static_cast<int>(r.instance_size));
}

/// Serial IDA* of a request's instance, through the timing decorator.
template <typename P>
search::SerialIdaResult timed_serial(const P& problem, DomainCounters& dc) {
  return search::serial_ida(TimedProblem<P>(problem, dc));
}

search::SerialIdaResult serial_for(const Request& r, DomainCounters& dc) {
  if (r.problem == service::ProblemKind::kSyntheticTree) {
    return timed_serial(synthetic::Tree(tree_params(r)), dc);
  }
  return timed_serial(puzzle::FifteenPuzzle(puzzle_board(r)), dc);
}

/// Per-request checks of the first replay, which becomes the reference for
/// every later one.  Returns one flag per request and pass.
struct FirstChecks {
  std::vector<bool> cold_ok, warm_ok;
  DomainCounters serial_domain;
};

FirstChecks check_first(const std::vector<Request>& trace, const Passes& p,
                        bool serial) {
  FirstChecks fc;
  fc.cold_ok.assign(trace.size(), true);
  fc.warm_ok.assign(trace.size(), true);
  // Keys whose cold solve succeeded: the warm pass must hit exactly these.
  std::set<std::uint64_t> ok_keys;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    if (p.cold[i].status == ResponseStatus::kOk) {
      ok_keys.insert(effective_key(trace[i], p.cold[i]));
    }
  }
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const Request& r = trace[i];
    const Response& c = p.cold[i];
    const Response& w = p.warm[i];
    const bool keyed = c.status != ResponseStatus::kRejected &&
                       c.status != ResponseStatus::kShed;
    const bool expect_hit = keyed && ok_keys.count(effective_key(r, c)) != 0;
    // Cold: no fault plan is armed, so nothing fails and nothing hits.
    bool cold_ok = c.request_id == r.id &&
                   c.status != ResponseStatus::kFailed &&
                   c.status != ResponseStatus::kCacheHit;
    if (serial && c.status == ResponseStatus::kOk &&
        executed_exhaustive(r, c)) {
      const search::SerialIdaResult s = serial_for(r, fc.serial_domain);
      cold_ok = cold_ok && s.total_expanded == c.nodes_expanded &&
                s.goals_found == c.goals_found;
    }
    // Warm: the same admission decisions; a hit exactly where the cold pass
    // cached a result, carrying the cold result.
    bool warm_ok = w.request_id == r.id &&
                   (w.status == ResponseStatus::kCacheHit) == expect_hit &&
                   w.status != ResponseStatus::kOk &&
                   w.status != ResponseStatus::kFailed &&
                   w.queue_delay_ticks == c.queue_delay_ticks;
    if (expect_hit) {
      warm_ok = warm_ok && w.nodes_expanded == c.nodes_expanded &&
                w.expand_cycles == c.expand_cycles &&
                w.goals_found == c.goals_found;
    }
    fc.cold_ok[i] = cold_ok;
    fc.warm_ok[i] = warm_ok;
  }
  return fc;
}

}  // namespace

void run_service(const Options& opt, Report& report) {
  const std::uint64_t trace_seed = kTraceSeedBase + opt.seed;
  report.info.push_back("trace: random_trace(seed=" +
                        std::to_string(trace_seed) + ", n=100000, tenants=4), "
                        "5 engines, queue 16, 2 threads");
  std::unique_ptr<Passes> ref;  // the first (warm-up) replay
  std::uint64_t ref_cold_digest = 0, ref_warm_digest = 0;
  double nodes_per_body = 0;
  const auto on_result = [&](Passes&& p) {
    if (!ref) {
      ref = std::make_unique<Passes>(std::move(p));
      ref_cold_digest = log_digest(ref->cold);
      ref_warm_digest = log_digest(ref->warm);
      for (const auto* pass : {&ref->cold, &ref->warm}) {
        for (const Response& r : *pass) {
          if (r.attempts > 0) nodes_per_body += static_cast<double>(r.nodes_expanded);
        }
      }
      return;
    }
    // Later replays must be response-for-response identical.
    for (std::size_t i = 0; i < kRequests; ++i) {
      report.check(p.cold[i] == ref->cold[i],
                   "cold response " + std::to_string(i) + " differs");
      report.check(p.warm[i] == ref->warm[i],
                   "warm response " + std::to_string(i) + " differs");
    }
    report.check(p.cold_counters == ref->cold_counters &&
                     p.warm_counters == ref->warm_counters,
                 "service counters differ between replays");
  };
  const Samples s = timed_loop(
      opt.untraced_seconds(),
      [&] { return std::make_unique<ServiceState>(trace_seed, opt.tmp_dir); },
      replay, on_result);

  // The reference replay itself: per-request checks, serial IDA* off the
  // default seed, pinned digests on it.
  const std::vector<Request> trace =
      service::random_trace(trace_seed, kRequests, kTenants);
  const FirstChecks fc = check_first(trace, *ref, !opt.is_default_seed());
  const service::ServiceCounters& cc = ref->cold_counters;
  const service::ServiceCounters& wc = ref->warm_counters;
  const bool pinned_ok =
      !opt.is_default_seed() ||
      (ref_cold_digest == kServicePin.cold_log_digest &&
       ref_warm_digest == kServicePin.warm_log_digest &&
       cc.summary() == kServicePin.cold_counters &&
       wc.summary() == kServicePin.warm_counters);
  const bool counters_ok = cc.cache_corruptions == 0 &&
                           wc.cache_corruptions == 0 && cc.failed == 0 &&
                           wc.failed == 0 && wc.ok == 0 &&
                           wc.cache_hits >= cc.ok;
  for (std::size_t i = 0; i < kRequests; ++i) {
    report.check(fc.cold_ok[i] && pinned_ok && counters_ok,
                 "cold request " + std::to_string(i) + " failed its check");
    report.check(fc.warm_ok[i] && pinned_ok && counters_ok,
                 "warm request " + std::to_string(i) + " failed its check");
  }
  report.info.push_back("cold: " + cc.summary());
  report.info.push_back("warm: " + wc.summary());
  const double not_served =
      static_cast<double>(cc.budget_exhausted + cc.shed + cc.rejected +
                          cc.failed) /
      static_cast<double>(kRequests);
  char line[160];
  std::snprintf(line, sizeof line,
                "service share not ok/cache_hit/coalesced (cold pass) = %.6f",
                not_served);
  report.info.push_back(line);

  if (!opt.trace) {
    add_end_to_end(report, s, nodes_per_body, 2.0 * kRequests, kServiceThreads);
    return;
  }

  // Traced replays: one span per pass.
  SpanRecorder rec;
  Layers l = run_traced(opt.traced_seconds(), [&] {
    ServiceState st(trace_seed, opt.tmp_dir);
    const int body = rec.open("bench.body");
    const int cold = rec.open("service.cold_pass", body);
    const std::vector<Response> c = st.svc->run_trace(st.trace);
    rec.close(cold);
    const int warm = rec.open("service.warm_pass", body);
    service::SolveService warm_svc(service_config(st.journal));
    const std::vector<Response> w = warm_svc.run_trace(st.trace);
    rec.close(warm);
    rec.close(body);
    report.check(c == ref->cold && w == ref->warm,
                 "traced replay differs from the untraced one");
    const std::vector<Span> spans = rec.spans();
    const auto duration = [&spans](int id) {
      const Span& sp = spans[static_cast<std::size_t>(id)];
      return sp.end - sp.start;
    };
    Layers rep;
    rep.host_threads = 1;  // run_trace is one call; its pool is internal
    rep.traced_wall_s = duration(body);
    rep.self_times = layer_self_times(
        spans, spans[static_cast<std::size_t>(body)].start,
        spans[static_cast<std::size_t>(body)].end);
    rep.cold_pass_s = duration(cold);
    rep.warm_pass_s = duration(warm);
    return rep;
  });

  l.requests = static_cast<double>(kRequests);
  l.admitted = static_cast<double>(cc.admitted);
  l.ok = static_cast<double>(cc.ok);
  l.cache_hits = static_cast<double>(wc.cache_hits);
  l.budget_exhausted = static_cast<double>(cc.budget_exhausted);
  l.rejected = static_cast<double>(cc.rejected);
  l.shed = static_cast<double>(cc.shed);
  l.degraded = static_cast<double>(cc.degraded);
  for (const Response& r : ref->cold) {
    l.expand_cycles += static_cast<double>(r.attempts > 0 ? r.expand_cycles : 0);
  }

  // Standalone calls.  Admission: AdmissionController::plan on the trace.
  {
    const service::AdmissionController ctl(service_config({}).admission);
    const fault::ServiceFaultPlan none;
    std::vector<double> t;
    for (int i = 0; i < 5; ++i) {
      const int sp = rec.open("service.admission");
      const auto decisions = ctl.plan(trace, none);
      rec.close(sp);
      const std::vector<Span> spans = rec.spans();
      t.push_back(spans[static_cast<std::size_t>(sp)].end -
                  spans[static_cast<std::size_t>(sp)].start);
      report.check(decisions.size() == kRequests, "admission plan size");
    }
    l.admission_s = median(t);
  }
  // Cache: a ResultCache on a scratch journal fed the cold pass's payloads.
  {
    const std::filesystem::path journal =
        std::filesystem::path(opt.tmp_dir) / "probe-cache.journal";
    std::filesystem::remove(journal);
    std::vector<std::pair<std::uint64_t, std::string>> entries;
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Response& c = ref->cold[i];
      if (c.status != ResponseStatus::kOk) continue;
      entries.emplace_back(effective_key(trace[i], c),
                           service::encode_cache_payload(
                               c.nodes_expanded, c.expand_cycles, c.goals_found));
    }
    {
      service::ResultCache cache(journal);
      const int ins = rec.open("service.cache_insert");
      for (const auto& [key, payload] : entries) cache.insert(key, payload);
      rec.close(ins);
      std::size_t hits = 0;
      const int look = rec.open("service.cache_lookup");
      for (const auto& [key, payload] : entries) {
        const auto got = cache.lookup(key);
        hits += got.has_value() && *got == payload ? 1 : 0;
      }
      rec.close(look);
      report.check(hits == entries.size(), "cache probe lookups missed");
      const std::vector<Span> spans = rec.spans();
      const double n = std::max<double>(1.0, static_cast<double>(entries.size()));
      l.cache_insert_us = (spans[static_cast<std::size_t>(ins)].end -
                           spans[static_cast<std::size_t>(ins)].start) / n * 1e6;
      l.cache_lookup_us = (spans[static_cast<std::size_t>(look)].end -
                           spans[static_cast<std::size_t>(look)].start) / n * 1e6;
    }
    std::filesystem::remove(journal);
  }
  // lb: Machine + Engine construction for every solve the cold pass ran.
  {
    const int sp = rec.open("lb.construct");
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Response& c = ref->cold[i];
      if (c.attempts == 0) continue;
      const Request& r = trace[i];
      simd::Machine machine(c.executed_p, simd::cm2_cost_model());
      if (r.problem == service::ProblemKind::kSyntheticTree) {
        const synthetic::Tree tree(tree_params(r));
        const lb::Engine<synthetic::Tree> engine(tree, machine, scheme_of(r));
      } else {
        const puzzle::FifteenPuzzle prob(puzzle_board(r));
        const lb::Engine<puzzle::FifteenPuzzle> engine(prob, machine,
                                                       scheme_of(r));
      }
    }
    rec.close(sp);
    const std::vector<Span> spans = rec.spans();
    l.construct_s = spans[static_cast<std::size_t>(sp)].end -
                    spans[static_cast<std::size_t>(sp)].start;
  }
  // Domain: the service builds its engines internally, out of reach of the
  // decorator, so expand cost is measured on a serial IDA* replay of every
  // exhaustive solve the cold pass completed.
  {
    DomainCounters dc;
    const int sp = rec.open("domain.serial_replay");
    for (std::size_t i = 0; i < kRequests; ++i) {
      const Response& c = ref->cold[i];
      if (c.status != ResponseStatus::kOk || !executed_exhaustive(trace[i], c)) {
        continue;
      }
      const search::SerialIdaResult sr = serial_for(trace[i], dc);
      report.check(sr.total_expanded == c.nodes_expanded,
                   "serial replay disagrees with request " + std::to_string(i));
    }
    rec.close(sp);
    l.expand_calls = static_cast<double>(dc.expand_calls);
    l.children = static_cast<double>(dc.children);
    l.expand_s = dc.expand_s();
  }
  // Probes at the largest machine size the trace requests.
  {
    std::vector<Density> d;
    for (int k = 1; k < 8; ++k) d.push_back(Density{k / 16.0, 0.5});
    const ProbeResult pr = probe_lb(16, d, 0x5E41CEULL);
    l.rendezvous_flat_ns = pr.flat_ns;
    l.rendezvous_hier_ns = pr.hier_ns;
    l.match_gp_ns = pr.match_ns;
    report.check(pr.mismatches == 0,
                 "flat and hierarchical rendezvous pairs differ");
  }
  emit_layers(report, l, median(s.wall_s));
  finish_trace(opt, rec, report);
}

void print_service_pins(const Options& opt) {
  const std::uint64_t trace_seed = kTraceSeedBase + opt.seed;
  ServiceState st(trace_seed, opt.tmp_dir);
  const Passes p = replay(st);
  std::printf("inline constexpr ServicePin kServicePin{\n"
              "    0x%016llxULL, 0x%016llxULL,\n    \"%s\",\n    \"%s\"};\n",
              static_cast<unsigned long long>(log_digest(p.cold)),
              static_cast<unsigned long long>(log_digest(p.warm)),
              p.cold_counters.summary().c_str(),
              p.warm_counters.summary().c_str());
}

}  // namespace perfbench
