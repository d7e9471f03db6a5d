// The solve-service layer (docs/service.md): admission control, deadline
// budgets, retry accounting, graceful degradation, and the crash-tolerant
// verified-on-read result cache.  The backbone assertions: every request in
// a trace is accounted for in exactly one terminal status, replays are
// byte-identical across host thread counts and fault arming, and a damaged
// cache journal can cause misses but never a wrong answer.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "fault/service_fault.hpp"
#include "runtime/sweep.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/request.hpp"
#include "service/service.hpp"

namespace simdts {
namespace {

std::string temp_path(const std::string& name) {
  const std::string p = ::testing::TempDir() + "simdts_service_" + name;
  std::remove(p.c_str());
  return p;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << v;
  return os.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

service::Request make_req(std::uint64_t id, std::uint64_t arrival,
                          service::Priority pri, std::uint32_t tenant = 0,
                          std::uint64_t hint = 100) {
  service::Request r;
  r.id = id;
  r.tenant = tenant;
  r.arrival_tick = arrival;
  r.priority = pri;
  r.problem = service::ProblemKind::kSyntheticTree;
  r.instance_seed = 7000 + id;
  r.instance_size = 8;
  r.scheme = service::SchemeKind::kGpDk;
  r.p = 4;
  r.cost_hint = hint;
  return r;
}

// ---------------------------------------------------------------------------
// Service fault plans.
// ---------------------------------------------------------------------------

TEST(ServiceFaultPlan, ValidatesEventBounds) {
  using fault::ServiceFaultEvent;
  using fault::ServiceFaultKind;
  const fault::ServiceFaultPlan out_of_range(
      {ServiceFaultEvent{10, ServiceFaultKind::kEngineCrash, 1}});
  EXPECT_THROW(out_of_range.validate(10), ConfigError);
  EXPECT_NO_THROW(out_of_range.validate(11));

  const fault::ServiceFaultPlan zero_crash(
      {ServiceFaultEvent{0, ServiceFaultKind::kEngineCrash, 0}});
  EXPECT_THROW(zero_crash.validate(5), ConfigError);
  const fault::ServiceFaultPlan zero_stall(
      {ServiceFaultEvent{0, ServiceFaultKind::kQueueStall, 0}});
  EXPECT_THROW(zero_stall.validate(5), ConfigError);
  // A zero corrupt offset is byte 0 — legal.
  const fault::ServiceFaultPlan zero_corrupt(
      {ServiceFaultEvent{0, ServiceFaultKind::kCacheCorrupt, 0}});
  EXPECT_NO_THROW(zero_corrupt.validate(5));
}

TEST(ServiceFaultPlan, AccessorsAggregatePerRequest) {
  using fault::ServiceFaultEvent;
  using fault::ServiceFaultKind;
  const fault::ServiceFaultPlan plan(
      {ServiceFaultEvent{3, ServiceFaultKind::kEngineCrash, 2},
       ServiceFaultEvent{3, ServiceFaultKind::kEngineCrash, 1},
       ServiceFaultEvent{3, ServiceFaultKind::kCacheCorrupt, 5},
       ServiceFaultEvent{1, ServiceFaultKind::kQueueStall, 7},
       ServiceFaultEvent{1, ServiceFaultKind::kQueueStall, 4}});
  EXPECT_EQ(plan.crash_attempts_for(3), 3u);
  EXPECT_EQ(plan.crash_attempts_for(0), 0u);
  EXPECT_EQ(plan.stall_ticks_for(1), 11u);
  ASSERT_EQ(plan.corrupt_bytes_for(3).size(), 1u);
  EXPECT_EQ(plan.corrupt_bytes_for(3)[0], 5u);
  // Sorted by request index, stable within one.
  EXPECT_EQ(plan.events().front().request_index, 1u);
  EXPECT_EQ(plan.events().back().request_index, 3u);
}

TEST(ServiceFaultPlan, RandomIsSeedDeterministic) {
  const auto a = fault::ServiceFaultPlan::random(99, 500, 10, 5, 3);
  const auto b = fault::ServiceFaultPlan::random(99, 500, 10, 5, 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.events().size(), 18u);
  EXPECT_NO_THROW(a.validate(500));
  const auto c = fault::ServiceFaultPlan::random(100, 500, 10, 5, 3);
  EXPECT_NE(a, c);
  EXPECT_THROW(fault::ServiceFaultPlan::random(1, 0, 1, 0, 0), ConfigError);
}

// ---------------------------------------------------------------------------
// Request schema and the content address.
// ---------------------------------------------------------------------------

std::string validation_error(const service::Request& r) {
  try {
    service::validate(r);
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "<valid>";
}

TEST(ServiceRequest, ValidationRejectsNonsense) {
  service::Request r = make_req(1, 0, service::Priority::kStandard);
  EXPECT_NO_THROW(service::validate(r));
  r.p = 3;
  EXPECT_THROW(service::validate(r), ConfigError);
  EXPECT_NE(validation_error(r).find("[request=1 p=3]"), std::string::npos)
      << validation_error(r);
  r.p = 8192;
  EXPECT_THROW(service::validate(r), ConfigError);
  r = make_req(1, 0, service::Priority::kStandard);
  r.instance_size = 0;
  EXPECT_THROW(service::validate(r), ConfigError);
  EXPECT_NE(validation_error(r).find("[request=1 instance_size=0]"),
            std::string::npos)
      << validation_error(r);
  r = make_req(1, 0, service::Priority::kStandard);
  r.cost_hint = 0;
  EXPECT_THROW(service::validate(r), ConfigError);
  EXPECT_NE(validation_error(r).find("[request=1]"), std::string::npos)
      << validation_error(r);
}

TEST(ServiceRequest, CanonicalKeyHashesContentNotEnvelope) {
  const service::Request a = make_req(1, 0, service::Priority::kStandard, 0);
  service::Request b = a;
  b.id = 999;
  b.tenant = 3;
  b.arrival_tick = 55;
  b.priority = service::Priority::kInteractive;
  b.cost_hint = 12345;
  EXPECT_EQ(service::canonical_key(a), service::canonical_key(b));

  service::Request c = a;
  c.instance_seed += 1;
  EXPECT_NE(service::canonical_key(a), service::canonical_key(c));
  service::Request d = a;
  d.scheme = service::SchemeKind::kNgpDp;
  EXPECT_NE(service::canonical_key(a), service::canonical_key(d));
  // Downgrades change the computation, so they change the key.
  EXPECT_NE(service::canonical_key(a, a.p, a.mode),
            service::canonical_key(a, a.p / 2, a.mode));
  EXPECT_NE(service::canonical_key(a, a.p, service::SolveMode::kExhaustive),
            service::canonical_key(a, a.p, service::SolveMode::kFirstSolution));
}

TEST(ServiceRequest, RandomTraceIsDeterministicAndOrdered) {
  const auto a = service::random_trace(2026, 64, 4);
  const auto b = service::random_trace(2026, 64, 4);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 64u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NO_THROW(service::validate(a[i]));
    if (i > 0) EXPECT_GE(a[i].arrival_tick, a[i - 1].arrival_tick);
    EXPECT_LT(a[i].tenant, 4u);
  }
}

// ---------------------------------------------------------------------------
// Admission control: deterministic overload policy.
// ---------------------------------------------------------------------------

service::AdmissionConfig tight_admission() {
  service::AdmissionConfig cfg;
  cfg.engines = 1;
  cfg.queue_capacity = 1;
  cfg.tenant_quota = 10;
  cfg.cycles_per_tick = 1;  // service time == cost_hint ticks
  cfg.degrade_depth = 99;
  return cfg;
}

TEST(Admission, ShedsCheapestFirstUnderOverload) {
  const service::AdmissionController ctl(tight_admission());
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kInteractive),
      make_req(1, 0, service::Priority::kStandard),
      make_req(2, 0, service::Priority::kBatch),
      make_req(3, 0, service::Priority::kInteractive),
  };
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  ASSERT_EQ(d.size(), 4u);
  // r0 runs at once; r1 queues; batch r2 is the cheapest candidate and is
  // refused; interactive r3 then evicts queued standard r1.
  EXPECT_EQ(d[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[0].start_tick, 0u);
  EXPECT_EQ(d[1].outcome, service::AdmissionOutcome::kShed);
  EXPECT_NE(d[1].note.find("request=1"), std::string::npos) << d[1].note;
  EXPECT_EQ(d[2].outcome, service::AdmissionOutcome::kReject);
  EXPECT_NE(d[2].note.find("cheapest"), std::string::npos) << d[2].note;
  EXPECT_EQ(d[3].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[3].start_tick, 100u);
  EXPECT_EQ(d[3].queue_delay_ticks, 100u);
  // Replay: identical decisions.
  EXPECT_EQ(d, ctl.plan(trace, fault::ServiceFaultPlan{}));
}

TEST(Admission, TenantQuotaRejects) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.engines = 2;
  cfg.queue_capacity = 8;
  cfg.tenant_quota = 1;
  const service::AdmissionController ctl(cfg);
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard, /*tenant=*/7),
      make_req(1, 0, service::Priority::kStandard, /*tenant=*/7),
      make_req(2, 0, service::Priority::kStandard, /*tenant=*/8),
  };
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_EQ(d[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(d[1].outcome, service::AdmissionOutcome::kReject);
  EXPECT_NE(d[1].note.find("quota"), std::string::npos) << d[1].note;
  EXPECT_EQ(d[2].outcome, service::AdmissionOutcome::kAdmit);
}

TEST(Admission, QueueStallDelaysDrainAndDeepensQueue) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.queue_capacity = 4;
  const service::AdmissionController ctl(cfg);
  const std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard),
  };
  // Unstalled, the lone request starts immediately.
  const auto clean = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_EQ(clean[0].queue_delay_ticks, 0u);
  // A stall at its own arrival pins it in the queue for the stall window.
  const fault::ServiceFaultPlan stall(
      {fault::ServiceFaultEvent{0, fault::ServiceFaultKind::kQueueStall, 10}});
  const auto stalled = ctl.plan(trace, stall);
  EXPECT_EQ(stalled[0].outcome, service::AdmissionOutcome::kAdmit);
  EXPECT_EQ(stalled[0].start_tick, 10u);
  EXPECT_EQ(stalled[0].queue_delay_ticks, 10u);
}

TEST(Admission, DegradeWatermarkMarksDowngrades) {
  service::AdmissionConfig cfg = tight_admission();
  cfg.queue_capacity = 8;
  cfg.degrade_depth = 2;
  const service::AdmissionController ctl(cfg);
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 4; ++i) {
    trace.push_back(make_req(i, 0, service::Priority::kStandard));
  }
  const auto d = ctl.plan(trace, fault::ServiceFaultPlan{});
  EXPECT_FALSE(d[1].downshift_p);  // queue depth 1 on enqueue
  EXPECT_TRUE(d[2].downshift_p);   // depth 2: watermark reached
  EXPECT_TRUE(d[2].force_first_solution);
  EXPECT_TRUE(d[3].downshift_p);
}

TEST(Admission, RejectsUnsortedTraces) {
  const service::AdmissionController ctl(tight_admission());
  const std::vector<service::Request> trace = {
      make_req(0, 5, service::Priority::kStandard),
      make_req(1, 2, service::Priority::kStandard),
  };
  EXPECT_THROW(ctl.plan(trace, fault::ServiceFaultPlan{}), ConfigError);
}

// ---------------------------------------------------------------------------
// Result cache: journaled, verified on read.
// ---------------------------------------------------------------------------

TEST(ResultCache, RoundTripsAndPersists) {
  const std::string path = temp_path("roundtrip");
  {
    service::ResultCache cache(path);
    cache.insert(0xABC, "1 2 3");
    cache.insert(0xDEF, "40 50 60");
    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.lookup(0xABC).value_or(""), "1 2 3");
    EXPECT_FALSE(cache.lookup(0x123).has_value());
  }
  service::ResultCache reloaded(path);
  EXPECT_EQ(reloaded.size(), 2u);
  EXPECT_EQ(reloaded.lookup(0xDEF).value_or(""), "40 50 60");
  EXPECT_EQ(reloaded.corruptions_detected(), 0u);
  std::remove(path.c_str());
}

TEST(ResultCache, LastInsertWins) {
  const std::string path = temp_path("lastwins");
  {
    service::ResultCache cache(path);
    cache.insert(7, "1 1 1");
    cache.insert(7, "2 2 2");
    EXPECT_EQ(cache.lookup(7).value_or(""), "2 2 2");
  }
  service::ResultCache reloaded(path);
  EXPECT_EQ(reloaded.lookup(7).value_or(""), "2 2 2");
  std::remove(path.c_str());
}

TEST(ResultCache, ScriptedCorruptionIsCaughtOnRead) {
  const std::string path = temp_path("scripted_corrupt");
  {
    service::ResultCache cache(path);
    cache.insert(42, "10 20 30");
    ASSERT_TRUE(cache.corrupt_payload_byte(42, 3));
    std::string diag;
    EXPECT_FALSE(cache.lookup(42, &diag).has_value());
    EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
    EXPECT_EQ(cache.corruptions_detected(), 1u);
    // The corrupt entry was erased: a second lookup is a clean miss.
    diag.clear();
    EXPECT_FALSE(cache.lookup(42, &diag).has_value());
    EXPECT_TRUE(diag.empty());
  }
  // Durability: the corruption survives reload (last-wins journal line) and
  // is caught there too — never served.
  service::ResultCache reloaded(path);
  std::string diag;
  EXPECT_FALSE(reloaded.lookup(42, &diag).has_value());
  EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
  std::remove(path.c_str());
}

TEST(ResultCache, CorruptOfAbsentKeyIsANoop) {
  const std::string path = temp_path("corrupt_absent");
  service::ResultCache cache(path);
  EXPECT_FALSE(cache.corrupt_payload_byte(1, 0));
  std::remove(path.c_str());
}

// The journal is held open for the cache's lifetime, one flushed line per
// append: a second reader on the same path sees every line while the writer
// is still alive.
TEST(ResultCache, SecondCacheOnLivePathSeesEveryLine) {
  const std::string path = temp_path("live_reader");
  service::ResultCache writer(path);
  writer.insert(0x10, "1 2 3");
  writer.insert(0x20, "4 5 6");
  writer.insert(0x30, "7 8 9");
  ASSERT_TRUE(writer.corrupt_payload_byte(0x20, 0));
  {
    service::ResultCache reader(path);
    EXPECT_EQ(reader.size(), 3u);
    EXPECT_EQ(reader.lookup(0x10).value_or("<miss>"), "1 2 3");
    EXPECT_EQ(reader.lookup(0x30).value_or("<miss>"), "7 8 9");
    std::string diag;
    EXPECT_FALSE(reader.lookup(0x20, &diag).has_value());
    EXPECT_NE(diag.find("checksum mismatch"), std::string::npos) << diag;
  }
  // The writer keeps appending after a reader came and went.
  writer.insert(0x40, "10 11 12");
  service::ResultCache late_reader(path);
  EXPECT_EQ(late_reader.lookup(0x40).value_or("<miss>"), "10 11 12");
  std::remove(path.c_str());
}

TEST(ResultCache, NoJournalUntilFirstInsert) {
  const std::string path = temp_path("lazy_open");
  service::ResultCache cache(path);
  EXPECT_FALSE(cache.lookup(1).has_value());
  EXPECT_FALSE(cache.corrupt_payload_byte(1, 0));
  EXPECT_FALSE(std::filesystem::exists(path));
  cache.insert(1, "1 1 1");
  EXPECT_TRUE(std::filesystem::exists(path));
  const std::uint64_t checksum =
      service::ResultCache::entry_checksum(1, "1 1 1");
  EXPECT_EQ(read_file(path), "1 " + hex(checksum) + " 1 1 1 ok\n");
  std::remove(path.c_str());
}

TEST(ResultCache, UnwritableJournalThrowsOnEveryInsert) {
  const std::string path =
      ::testing::TempDir() + "simdts_service_no_such_dir/cache.journal";
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
  service::ResultCache cache(path);
  EXPECT_THROW(cache.insert(1, "1 2 3"), InvariantError);
  EXPECT_THROW(cache.insert(2, "4 5 6"), InvariantError);
  // A failed append leaves the in-memory map untouched.
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_FALSE(cache.lookup(1).has_value());
}

// Golden replay: a hand-written journal with every kind of line the loader
// must accept or skip, pinned to the exact entries that load.  Key and
// checksum tokens are whole lowercase (or uppercase) hex with no sign, `0x`
// prefix or whitespace, and must fit in 64 bits; the writer never emits
// anything else.  (The loader once used strtoull, which also took a sign,
// a `0x` prefix or leading whitespace and saturated on overflow; such lines
// are now skipped.)
TEST(ResultCache, JournalReplayLoadsExactlyTheCommittedLines) {
  const std::string path = temp_path("replay_golden");
  // `<key_token> <checksum of (key, payload)> <payload><end>`
  const auto line = [](const std::string& key_token, std::uint64_t key,
                       const std::string& payload,
                       const std::string& end = " ok\n") {
    return key_token + " " +
           hex(service::ResultCache::entry_checksum(key, payload)) + " " +
           payload + end;
  };
  std::string journal;
  journal += line("1", 1, "1 2 3");                   // valid
  journal += line("2", 2, "4 5 6");                   // valid
  journal += line("1", 1, "7 8 9");                   // duplicate: last wins
  journal += line("3", 3, "1 2 3", "\n");             // no " ok"
  journal += "2 0 99 9 o\n";                          // torn mid-terminator
  journal += line("4", 4, "1 2 3", "ok\n");           // "ok" without its space
  journal += line("5", 5, "1 2 3", " OK\n");          // wrong terminator
  journal += "\n";                                    // empty line
  journal += line("0x6", 6, "1 2 3");                 // `0x` prefix
  journal += line("+7", 7, "1 2 3");                  // signed key
  journal += line("-7", 7, "1 2 3");                  // negative key
  journal += line("6g", 6, "1 2 3");                  // non-hex digit
  journal += line("10000000000000006", 6, "1 2 3");   // 65-bit key
  journal += "6 zz 1 2 3 ok\n";                       // bad checksum token
  journal += "6 -" + line("", 6, "1 2 3").substr(1);  // signed checksum
  journal += "6 ok\n";                                // no checksum field
  journal += line("a", 0xA, "");                      // empty payload: loads
  journal += line("B", 0xB, "13 14 15");              // uppercase hex
  journal += line("c", 0xC, "16 17 18");              // valid
  journal.pop_back();                                 // final line: no newline
  write_file(path, journal);

  service::ResultCache cache(path);
  EXPECT_EQ(cache.size(), 5u);
  EXPECT_EQ(cache.lookup(1).value_or("<miss>"), "7 8 9");
  EXPECT_EQ(cache.lookup(2).value_or("<miss>"), "4 5 6");
  EXPECT_EQ(cache.lookup(0xA).value_or("<miss>"), "");
  EXPECT_EQ(cache.lookup(0xB).value_or("<miss>"), "13 14 15");
  EXPECT_EQ(cache.lookup(0xC).value_or("<miss>"), "16 17 18");
  for (const std::uint64_t absent : {3, 4, 5, 6, 7}) {
    std::string diag;
    EXPECT_FALSE(cache.lookup(absent, &diag).has_value()) << absent;
    EXPECT_TRUE(diag.empty()) << absent << ": " << diag;
  }
  EXPECT_EQ(cache.corruptions_detected(), 0u);
  std::remove(path.c_str());
}

TEST(CachePayloadCodec, RejectsAnythingButThreeUnsignedFields) {
  const char* const malformed[] = {
      "",                          // empty
      "1 2",                       // two fields
      "1 2 3 4",                   // four fields
      "1 2 3x",                    // trailing junk
      "1 2 3 ",                    // trailing space
      " 1 2 3",                    // leading space
      "1  2 3",                    // double separator
      "-1 2 3",                    // negative
      "-1 +2 3",                   // negative and signed
      "1 +2 3",                    // signed
      "1 2 0x10",                  // hex prefix
      "1 2 18446744073709551616",  // 2^64 overflows
  };
  for (const char* payload : malformed) {
    std::uint64_t n = 11;
    std::uint64_t c = 22;
    std::uint64_t g = 33;
    EXPECT_FALSE(service::decode_cache_payload(payload, n, c, g))
        << '"' << payload << '"';
    EXPECT_EQ(n, 11u) << '"' << payload << '"';
    EXPECT_EQ(c, 22u) << '"' << payload << '"';
    EXPECT_EQ(g, 33u) << '"' << payload << '"';
  }
}

TEST(CachePayloadCodec, RoundTripsTheExtremes) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(service::encode_cache_payload(0, 0, 0), "0 0 0");
  EXPECT_EQ(service::encode_cache_payload(kMax, kMax, kMax),
            "18446744073709551615 18446744073709551615 "
            "18446744073709551615");
  for (const std::uint64_t v : {std::uint64_t{0}, kMax}) {
    std::uint64_t n = 1;
    std::uint64_t c = 1;
    std::uint64_t g = 1;
    ASSERT_TRUE(service::decode_cache_payload(
        service::encode_cache_payload(v, v, v), n, c, g));
    EXPECT_EQ(n, v);
    EXPECT_EQ(c, v);
    EXPECT_EQ(g, v);
  }
}

// The crash-tolerance fuzz: truncate the journal at every byte offset, and
// separately flip every byte, asserting the only observable outcomes are a
// clean miss or the exact inserted payload.  Wrong answers are not an
// outcome.
TEST(ResultCacheFuzz, TruncationAtEveryOffsetNeverServesWrongPayload) {
  const std::string path = temp_path("fuzz_trunc");
  const std::vector<std::pair<std::uint64_t, std::string>> entries = {
      {0x11, "1 2 3"}, {0x22, "444 555 666"}, {0x33, "7 8 9"}};
  {
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) cache.insert(k, v);
  }
  const std::string full = read_file(path);
  ASSERT_FALSE(full.empty());
  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_file(path, full.substr(0, len));
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) {
      const auto hit = cache.lookup(k);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, v) << "truncated at " << len;
      }
    }
  }
  // Untruncated: everything verifies.
  write_file(path, full);
  service::ResultCache cache(path);
  for (const auto& [k, v] : entries) {
    EXPECT_EQ(cache.lookup(k).value_or("<miss>"), v);
  }
  std::remove(path.c_str());
}

TEST(ResultCacheFuzz, BitFlipAtEveryOffsetNeverServesWrongPayload) {
  const std::string path = temp_path("fuzz_flip");
  const std::vector<std::pair<std::uint64_t, std::string>> entries = {
      {0xA1, "12 34 56"}, {0xB2, "9999 1 0"}};
  {
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) cache.insert(k, v);
  }
  const std::string full = read_file(path);
  for (std::size_t off = 0; off < full.size(); ++off) {
    std::string damaged = full;
    damaged[off] = static_cast<char>(damaged[off] ^ 0xFF);
    write_file(path, damaged);
    service::ResultCache cache(path);
    for (const auto& [k, v] : entries) {
      const auto hit = cache.lookup(k);
      if (hit.has_value()) {
        EXPECT_EQ(*hit, v) << "flipped offset " << off;
      }
    }
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// SolveService end to end.
// ---------------------------------------------------------------------------

service::ServiceConfig small_service(unsigned threads = 1) {
  service::ServiceConfig cfg;
  cfg.threads = threads;
  cfg.retry = runtime::RetryPolicy{3, 8, 0x5EEDULL};
  return cfg;
}

TEST(SolveService, EveryRequestIsAccountedFor) {
  service::SolveService svc(small_service());
  const auto trace = service::random_trace(4242, 48, 3);
  const auto resp = svc.run_trace(trace);
  ASSERT_EQ(resp.size(), trace.size());
  const auto& c = svc.counters();
  EXPECT_EQ(c.ok + c.cache_hits + c.coalesced + c.budget_exhausted + c.shed +
                c.rejected + c.failed,
            trace.size());
  EXPECT_EQ(c.admitted + c.shed + c.rejected, trace.size());
  for (std::size_t i = 0; i < resp.size(); ++i) {
    EXPECT_EQ(resp[i].request_id, trace[i].id);
    if (resp[i].status == service::ResponseStatus::kOk) {
      EXPECT_GT(resp[i].nodes_expanded, 0u) << i;
      EXPECT_GT(resp[i].attempts, 0u) << i;
    }
    if (resp[i].status == service::ResponseStatus::kShed ||
        resp[i].status == service::ResponseStatus::kRejected) {
      EXPECT_FALSE(resp[i].note.empty()) << i;
    }
  }
}

TEST(SolveService, ResponseLogIsByteIdenticalAcrossHostThreads) {
  const auto trace = service::random_trace(77, 40, 4);
  const fault::ServiceFaultPlan plan =
      fault::ServiceFaultPlan::random(5150, trace.size(), 4, 2, 2);
  std::string reference;
  service::ServiceCounters ref_counters;
  for (const unsigned threads : {1u, 2u, 8u}) {
    service::SolveService svc(small_service(threads));
    svc.arm_faults(plan);
    const std::string log = service::SolveService::response_log(
        svc.run_trace(trace));
    if (reference.empty()) {
      reference = log;
      ref_counters = svc.counters();
      EXPECT_FALSE(reference.empty());
    } else {
      EXPECT_EQ(log, reference) << "threads=" << threads;
      EXPECT_EQ(svc.counters(), ref_counters) << "threads=" << threads;
    }
  }
}

TEST(SolveService, ScriptedCrashesRetryWithChargedBackoff) {
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.push_back(make_req(i, i, service::Priority::kStandard));
    trace.back().instance_seed = 100 + i;  // distinct keys, no coalescing
  }
  // Request 2 crashes twice (recoverable), request 4 five times (fatal under
  // max_attempts=3).
  const fault::ServiceFaultPlan plan(
      {fault::ServiceFaultEvent{2, fault::ServiceFaultKind::kEngineCrash, 2},
       fault::ServiceFaultEvent{4, fault::ServiceFaultKind::kEngineCrash, 5}});
  service::SolveService svc(small_service());
  svc.arm_faults(plan);
  const auto resp = svc.run_trace(trace);

  EXPECT_EQ(resp[2].status, service::ResponseStatus::kOk);
  EXPECT_EQ(resp[2].attempts, 3u);
  // The virtual backoff charge is the pinned pure schedule, salted by the
  // execution slot (slot == trace position here: no dedup, all admitted).
  const auto& retry = svc.config().retry;
  EXPECT_EQ(resp[2].backoff_ms_total,
            runtime::backoff_delay_ms(retry, 1, 2) +
                runtime::backoff_delay_ms(retry, 2, 2));
  EXPECT_GT(resp[2].backoff_ms_total, 0u);
  EXPECT_GT(resp[2].nodes_expanded, 0u);

  EXPECT_EQ(resp[4].status, service::ResponseStatus::kFailed);
  EXPECT_EQ(resp[4].attempts, 3u);
  EXPECT_NE(resp[4].note.find("retries exhausted"), std::string::npos)
      << resp[4].note;
  EXPECT_NE(resp[4].note.find("scripted engine crash"), std::string::npos)
      << resp[4].note;

  EXPECT_EQ(svc.counters().retries, 4u);  // 2 recoverable + 2 fatal-path
  EXPECT_EQ(svc.counters().failed, 1u);
  EXPECT_EQ(svc.counters().ok, 4u);
}

TEST(SolveService, DeadlineBudgetYieldsTypedExhaustion) {
  std::vector<service::Request> trace = {
      make_req(0, 0, service::Priority::kStandard)};
  trace[0].instance_size = 12;
  trace[0].cycle_budget = 2;  // far too tight for a depth-12 tree on P=4
  service::SolveService svc(small_service());
  const auto resp = svc.run_trace(trace);
  EXPECT_EQ(resp[0].status, service::ResponseStatus::kBudgetExhausted);
  EXPECT_GT(resp[0].expand_cycles, 0u);
  EXPECT_LE(resp[0].expand_cycles, 2u);
  EXPECT_FALSE(resp[0].note.empty());
  EXPECT_EQ(svc.counters().budget_exhausted, 1u);
}

TEST(SolveService, DegradedRequestsRecordTheirDowngrades) {
  service::ServiceConfig cfg = small_service();
  cfg.admission.engines = 1;
  cfg.admission.queue_capacity = 8;
  cfg.admission.degrade_depth = 2;
  cfg.admission.cycles_per_tick = 1;  // long virtual service times
  service::SolveService svc(cfg);
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 5; ++i) {
    trace.push_back(make_req(i, 0, service::Priority::kStandard));
    trace.back().instance_seed = 300 + i;
    trace.back().p = 8;
  }
  const auto resp = svc.run_trace(trace);
  bool degraded_seen = false;
  for (const auto& r : resp) {
    if (r.downshifted_p) {
      degraded_seen = true;
      EXPECT_EQ(r.executed_p, 4u);
      EXPECT_TRUE(r.first_solution_forced);
    }
  }
  EXPECT_TRUE(degraded_seen);
  EXPECT_GT(svc.counters().degraded, 0u);
}

TEST(SolveService, IdenticalRequestsCoalesceOntoOneSolve) {
  std::vector<service::Request> trace = {
      make_req(10, 0, service::Priority::kStandard, /*tenant=*/0),
      make_req(11, 0, service::Priority::kStandard, /*tenant=*/1)};
  trace[1].instance_seed = trace[0].instance_seed;  // identical content
  service::SolveService svc(small_service());
  const auto resp = svc.run_trace(trace);
  EXPECT_EQ(resp[0].status, service::ResponseStatus::kOk);
  EXPECT_EQ(resp[1].status, service::ResponseStatus::kCoalesced);
  EXPECT_EQ(resp[1].nodes_expanded, resp[0].nodes_expanded);
  EXPECT_EQ(resp[1].attempts, 0u);
  EXPECT_NE(resp[1].note.find("coalesced with request 10"), std::string::npos)
      << resp[1].note;
  EXPECT_EQ(svc.counters().coalesced, 1u);
}

TEST(SolveService, WarmCacheTurnsSolvesIntoVerifiedHits) {
  const std::string path = temp_path("warm_cache");
  const auto trace = service::random_trace(31337, 24, 2);
  service::ServiceCounters first;
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    first = svc.counters();
    ASSERT_GT(first.ok, 0u);
  }
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    const auto& second = svc.counters();
    // Every completed solve (and every request that coalesced onto one)
    // replays as a verified cache hit; nothing is recomputed.
    EXPECT_EQ(second.cache_hits, first.ok + first.coalesced);
    EXPECT_EQ(second.cache_hits + second.ok + second.coalesced +
                  second.budget_exhausted + second.failed,
              first.ok + first.coalesced + first.budget_exhausted +
                  first.failed);
    for (std::size_t i = 0; i < resp.size(); ++i) {
      if (resp[i].status == service::ResponseStatus::kCacheHit) {
        EXPECT_GT(resp[i].nodes_expanded, 0u) << i;
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SolveService, SecondLiveServiceOnOneJournalHitsEveryOkResult) {
  const std::string path = temp_path("two_live");
  const auto trace = service::random_trace(4242, 24, 2);
  service::ServiceConfig cfg = small_service();
  cfg.cache_path = path;
  service::SolveService first(cfg);
  const auto cold = first.run_trace(trace);
  ASSERT_GT(first.counters().ok, 0u);
  // `first` is still alive, its journal still open.
  service::SolveService second(cfg);
  const auto warm = second.run_trace(trace);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    if (cold[i].status != service::ResponseStatus::kOk) continue;
    EXPECT_EQ(warm[i].status, service::ResponseStatus::kCacheHit) << i;
    EXPECT_EQ(warm[i].nodes_expanded, cold[i].nodes_expanded) << i;
    EXPECT_EQ(warm[i].expand_cycles, cold[i].expand_cycles) << i;
    EXPECT_EQ(warm[i].goals_found, cold[i].goals_found) << i;
  }
  // Followers that coalesced onto an ok leader hit its entry too.
  EXPECT_EQ(second.counters().cache_hits,
            first.counters().ok + first.counters().coalesced);
  std::remove(path.c_str());
}

TEST(SolveService, CorruptedCacheEntryIsNeverServed) {
  const std::string path = temp_path("corrupt_e2e");
  std::vector<service::Request> trace;
  for (std::uint64_t i = 0; i < 3; ++i) {
    trace.push_back(make_req(i, i, service::Priority::kStandard));
    trace.back().instance_seed = 500 + i;
  }
  service::Response clean_r1;
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    // Corrupt request 1's entry right after it is cached.
    svc.arm_faults(fault::ServiceFaultPlan({fault::ServiceFaultEvent{
        1, fault::ServiceFaultKind::kCacheCorrupt, 2}}));
    clean_r1 = svc.run_trace(trace)[1];
    ASSERT_EQ(clean_r1.status, service::ResponseStatus::kOk);
  }
  {
    service::ServiceConfig cfg = small_service();
    cfg.cache_path = path;
    service::SolveService svc(cfg);
    const auto resp = svc.run_trace(trace);
    // Requests 0 and 2 hit; request 1's damaged entry is detected, reported,
    // and re-solved — with the same answer as the clean run, never garbage.
    EXPECT_EQ(resp[0].status, service::ResponseStatus::kCacheHit);
    EXPECT_EQ(resp[2].status, service::ResponseStatus::kCacheHit);
    EXPECT_EQ(resp[1].status, service::ResponseStatus::kOk);
    EXPECT_NE(resp[1].note.find("checksum mismatch"), std::string::npos)
        << resp[1].note;
    EXPECT_EQ(resp[1].nodes_expanded, clean_r1.nodes_expanded);
    EXPECT_EQ(svc.counters().cache_corruptions, 1u);
  }
  std::remove(path.c_str());
}

TEST(SolveService, ReplayWithSamePlanIsByteIdentical) {
  const auto trace = service::random_trace(888, 32, 3);
  const auto plan = fault::ServiceFaultPlan::random(999, trace.size(), 3, 1, 1);
  std::string logs[2];
  for (int round = 0; round < 2; ++round) {
    service::SolveService svc(small_service(round == 0 ? 1 : 4));
    svc.arm_faults(plan);
    logs[round] =
        service::SolveService::response_log(svc.run_trace(trace));
  }
  EXPECT_EQ(logs[0], logs[1]);
  EXPECT_FALSE(logs[0].empty());
}

}  // namespace
}  // namespace simdts