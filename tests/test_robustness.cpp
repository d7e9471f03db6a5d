// Host-side robustness: typed errors, validated configuration, journaled
// checkpoint/resume, and the retrying sweep wrapper (docs/robustness.md).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/isoefficiency.hpp"
#include "common/error.hpp"
#include "common/parse.hpp"
#include "lb/config.hpp"
#include "lb/metrics.hpp"
#include "runtime/journal.hpp"
#include "runtime/sweep.hpp"
#include "simd/cost_model.hpp"
#include "synthetic/calibrate.hpp"

namespace simdts {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "simdts_" + name;
}

// ---------------------------------------------------------------------------
// Configuration validation (typed, actionable errors instead of asserts).
// ---------------------------------------------------------------------------

TEST(Validation, SchemeConfigRejectsBadThresholds) {
  EXPECT_THROW(lb::gp_static(0.0).validate(), ConfigError);
  EXPECT_THROW(lb::gp_static(-0.5).validate(), ConfigError);
  EXPECT_THROW(lb::gp_static(1.5).validate(), ConfigError);
  EXPECT_NO_THROW(lb::gp_static(0.9).validate());
  EXPECT_NO_THROW(lb::gp_static(1.0).validate());

  lb::SchemeConfig dk = lb::gp_dk();
  dk.init_threshold = 0.0;
  EXPECT_THROW(dk.validate(), ConfigError);
  dk.init_threshold = 0.85;
  EXPECT_NO_THROW(dk.validate());
}

TEST(Validation, CostModelRejectsNonsense) {
  simd::CostModel cm = simd::cm2_cost_model();
  EXPECT_NO_THROW(cm.validate());
  cm.t_expand = -1.0;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.t_lb = -0.1;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.lb_cost_multiplier = 0.0;
  EXPECT_THROW(cm.validate(), ConfigError);
  cm = simd::cm2_cost_model();
  cm.t_neighbor = -2.0;
  EXPECT_THROW(cm.validate(), ConfigError);
}

TEST(Validation, ErrorMessagesCarryContext) {
  try {
    lb::gp_static(1.5).validate();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("static_x"), std::string::npos) << what;
    EXPECT_NE(what.find("1.5"), std::string::npos) << what;
  }
}

// ---------------------------------------------------------------------------
// Journal codecs: exact (bit-pattern) round-trips.
// ---------------------------------------------------------------------------

TEST(JournalCodec, IterationStatsRoundTripsExactly) {
  lb::IterationStats s;
  s.bound = 42;
  s.nodes_expanded = 123456789;
  s.goals_found = 3;
  s.next_bound = 44;
  s.expand_cycles = 2099;
  s.lb_phases = 172;
  s.lb_rounds = 180;
  s.transfers = 5000;
  s.pes_killed = 2;
  s.nodes_recovered = 17;
  s.recovery_phases = 2;
  s.recovery_rounds = 5;
  s.messages_dropped = 9;
  s.clock.elapsed = 0.1 + 0.2;  // a value with no short decimal form
  s.clock.calc_time = 1.0 / 3.0;
  s.clock.idle_time = 2e-308;   // subnormal-adjacent, printf-hostile
  s.clock.lb_time = 13.0 * 172;
  s.clock.recovery_time = 65.0;
  s.clock.expand_cycles = 2099;
  s.clock.lb_rounds = 180;
  s.clock.recovery_rounds = 5;
  s.clock.nodes_expanded = 123456789;

  lb::IterationStats back;
  ASSERT_TRUE(lb::decode_journal(lb::encode_journal(s), back));
  EXPECT_EQ(back, s);  // bitwise for the clock via defaulted ==
}

TEST(JournalCodec, RejectsTornAndAlienPayloads) {
  lb::IterationStats s;
  const std::string good = lb::encode_journal(s);
  lb::IterationStats out;
  EXPECT_TRUE(lb::decode_journal(good, out));
  EXPECT_FALSE(lb::decode_journal(good.substr(0, good.size() / 2), out));
  EXPECT_FALSE(lb::decode_journal(good + " 7", out));
  EXPECT_FALSE(lb::decode_journal("v9 " + good, out));
  EXPECT_FALSE(lb::decode_journal("", out));
}

TEST(JournalCodec, GridPointRoundTripsExactly) {
  analysis::GridPoint pt;
  pt.p = 8192;
  pt.w = 16110463;
  pt.efficiency = 0.905437219;
  pt.expand_cycles = 2099;
  pt.lb_phases = 172;
  pt.lb_rounds = 180;
  pt.timed_out = true;
  pt.clock.elapsed = 1.0 / 7.0;
  pt.clock.calc_time = 3.3e7;
  pt.clock.nodes_expanded = 16110463;

  analysis::GridPoint back;
  ASSERT_TRUE(analysis::decode_grid_point(analysis::encode_grid_point(pt),
                                          back));
  EXPECT_EQ(back, pt);

  EXPECT_FALSE(analysis::decode_grid_point("v1 1 2 3", back));
  EXPECT_FALSE(analysis::decode_grid_point(
      analysis::encode_grid_point(pt) + " junk", back));
}

// A payload a strict reader must refuse although istream `>>` took it.
TEST(JournalCodec, RejectsWhatTheEncoderNeverWrites) {
  lb::IterationStats s;
  s.bound = -3;  // the bounds are signed fields
  s.next_bound = 7;
  s.nodes_expanded = 12;
  const std::string good = lb::encode_journal(s);
  lb::IterationStats out;
  ASSERT_TRUE(lb::decode_journal(good, out));
  EXPECT_EQ(out.bound, -3);
  EXPECT_EQ(out.next_bound, 7);
  const std::string after_bound = good.substr(std::string("v1 -3").size());
  const std::string refused[] = {
      "v1 +3" + after_bound,   // sign on a signed field
      "v1  -3" + after_bound,  // double separator
      " " + good,              // leading space
      good + " ",              // trailing space
      "v1\t-3" + after_bound,  // tab separator
  };
  for (const std::string& payload : refused) {
    EXPECT_FALSE(lb::decode_journal(payload, out)) << '"' << payload << '"';
  }
  analysis::GridPoint pt;
  pt.p = 16;
  const std::string grid = analysis::encode_grid_point(pt);
  analysis::GridPoint back;
  ASSERT_TRUE(analysis::decode_grid_point(grid, back));
  EXPECT_FALSE(analysis::decode_grid_point("v1 -16" + grid.substr(5), back));
  EXPECT_FALSE(analysis::decode_grid_point("v1 4294967296" + grid.substr(5),
                                           back));  // P overflows 32 bits
}

// ---------------------------------------------------------------------------
// Strict parsing of the numeric environment knobs ($SIMDTS_P,
// $SIMDTS_CYCLE_BUDGET, $SIMDTS_SWEEP_THREADS): the whole string is
// digits, greater than 0 and within the target type, or the fallback.
// ---------------------------------------------------------------------------

TEST(StrictParse, PositiveOrTakesOnlyWholePositiveDecimals) {
  struct Case {
    const char* text;
    std::uint64_t u64;  ///< 0 = the fallback (99)
    std::uint32_t u32;  ///< 0 = the fallback (99)
  };
  const Case cases[] = {
      {"12", 12, 12},
      {"007", 7, 7},
      {"4294967295", 4294967295u, 4294967295u},
      {"4294967296", 4294967296u, 0},  // past 32 bits
      {"18446744073709551615", 18446744073709551615u, 0},
      {"18446744073709551616", 0, 0},  // past 64 bits
      {nullptr, 0, 0},                 // unset
      {"", 0, 0},
      {"0", 0, 0},
      {"12abc", 0, 0},
      {"-5", 0, 0},
      {"+5", 0, 0},
      {" 5", 0, 0},
      {"5 ", 0, 0},
      {"0x10", 0, 0},
      {"abc", 0, 0},
  };
  for (const Case& c : cases) {
    const std::string shown = c.text == nullptr ? "<unset>" : c.text;
    EXPECT_EQ(positive_or<std::uint64_t>(c.text, 99),
              c.u64 == 0 ? 99 : c.u64)
        << shown;
    EXPECT_EQ(positive_or<std::uint32_t>(c.text, 99),
              c.u32 == 0 ? 99 : c.u32)
        << shown;
  }
}

// ---------------------------------------------------------------------------
// The on-disk journal (runtime::Journal) and the resume loop over it
// (runtime::run_resumable): append, replay, torn-line tolerance, strict
// slot indices.
// ---------------------------------------------------------------------------

std::vector<std::string> replay_all(const runtime::Journal& journal) {
  std::vector<std::string> records;
  journal.replay([&](std::string_view r) { records.emplace_back(r); });
  return records;
}

std::string read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_all(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

TEST(Journal, AppendsAndReplaysRecords) {
  const std::string path = temp_path("journal_basic");
  std::remove(path.c_str());
  runtime::Journal journal(path);
  EXPECT_TRUE(replay_all(journal).empty());
  EXPECT_FALSE(std::filesystem::exists(path));  // created by the 1st append
  journal.append("2 two words");
  journal.append("0 zero");
  journal.append("7 seven");
  EXPECT_EQ(replay_all(journal),
            (std::vector<std::string>{"2 two words", "0 zero", "7 seven"}));
  EXPECT_EQ(read_all(path), "2 two words ok\n0 zero ok\n7 seven ok\n");
  journal.remove();
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(replay_all(journal).empty());
}

TEST(Journal, SkipsTornAndUncommittedLines) {
  const std::string path = temp_path("journal_torn");
  write_all(path,
            "0 alpha ok\n"
            "1 beta o");  // torn mid-marker: the process died here
  runtime::Journal journal(path);
  EXPECT_EQ(replay_all(journal), (std::vector<std::string>{"0 alpha"}));

  write_all(path,
            "garbage line\n"
            "3 gamma ok\n"
            "4 delta\n"  // no marker
            "5 epsilon OK\n"
            "6 zeta ok \n"
            "\n"
            "7 eta ok");  // the last line needs no newline
  EXPECT_EQ(replay_all(journal),
            (std::vector<std::string>{"3 gamma", "7 eta"}));
  journal.remove();
}

// A torn tail must not swallow the next record: the first append after a
// crash starts a fresh line, leaving the torn one uncommitted.
TEST(Journal, AppendAfterATornTailStartsAFreshLine) {
  const std::string path = temp_path("journal_torn_tail");
  write_all(path, "0 alpha ok\n1 be");
  runtime::Journal journal(path);
  journal.append("1 beta");
  EXPECT_EQ(read_all(path), "0 alpha ok\n1 be\n1 beta ok\n");
  EXPECT_EQ(replay_all(journal),
            (std::vector<std::string>{"0 alpha", "1 beta"}));
  journal.remove();
}

TEST(Journal, RejectsMultilineRecords) {
  const std::string path = temp_path("journal_reject");
  std::remove(path.c_str());
  runtime::Journal journal(path);
  EXPECT_THROW(journal.append("0 two\nlines"), InvariantError);
  EXPECT_FALSE(std::filesystem::exists(path));
}

TEST(Journal, UnwritableThrowsOnEveryAppend) {
  const std::string path =
      ::testing::TempDir() + "simdts_journal_no_such_dir/sweep.journal";
  std::filesystem::remove_all(std::filesystem::path(path).parent_path());
  runtime::Journal journal(path);
  EXPECT_THROW(journal.append("0 zero"), InvariantError);
  EXPECT_THROW(journal.append("1 one"), InvariantError);
}

// Eight sweep workers append to one journal at once: every line lands
// whole, none interleaved or lost.
TEST(Journal, ConcurrentAppendsStayWhole) {
  const std::string path = temp_path("journal_concurrent");
  std::remove(path.c_str());
  runtime::Journal journal(path);
  const std::size_t n = 800;
  const auto record = [](std::size_t i) {
    return std::to_string(i) + ' ' +
           std::string(1 + i % 97, static_cast<char>('a' + i % 26));
  };
  runtime::SweepRunner runner(8);
  runner.run(n, [&](std::size_t i) { journal.append(record(i)); });
  std::vector<std::string> got = replay_all(journal);
  std::vector<std::string> want;
  for (std::size_t i = 0; i < n; ++i) want.push_back(record(i));
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);
  journal.remove();
}

std::string encode_text(const std::string& s) { return s; }

bool decode_text(std::string_view payload, std::string& out) {
  if (payload == "BAD") return false;
  out = payload;
  return true;
}

// The resume loop restores a slot only from a record whose slot index is
// strict decimal and in range and whose payload decodes; every other slot
// runs (once) and is appended.
TEST(Journal, ResumeTakesOnlyStrictDecimalSlots) {
  const std::string path = temp_path("journal_slots");
  write_all(path,
            "garbage line\n"
            "3 gamma ok\n"
            "4 delta\n"            // no marker
            "notanumber x ok\n"    // bad index
            "5 epsilon ok\n"
            "12 twelve ok\n"       // multi-digit slot
            "+3 plus ok\n"         // signed: istream took it as 3
            "-1 minus ok\n"        // istream wrapped it to SIZE_MAX
            " 6 lead ok\n"         // leading space
            "16 past ok\n"         // slot >= n
            "99999999999999999999999 big ok\n"  // overflow
            "8 BAD ok\n"           // payload the codec rejects
            "9  ok\n"              // empty payload: restores ""
            "1 beta o");           // torn mid-marker
  const std::size_t n = 16;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::vector<int> runs(n, 0);
  runtime::Journal journal(path);
  runtime::SweepRunner runner(1);
  const std::vector<std::string> out = runtime::run_resumable(
      runner, order, &journal, /*resume=*/true,
      [&](std::size_t slot) {
        ++runs[slot];
        return "ran" + std::to_string(slot);
      },
      encode_text, decode_text);
  const std::map<std::size_t, std::string> restored = {
      {3, "gamma"}, {5, "epsilon"}, {9, ""}, {12, "twelve"}};
  for (std::size_t slot = 0; slot < n; ++slot) {
    const auto it = restored.find(slot);
    EXPECT_EQ(out[slot],
              it != restored.end() ? it->second : "ran" + std::to_string(slot))
        << "slot " << slot;
    EXPECT_EQ(runs[slot], it != restored.end() ? 0 : 1) << "slot " << slot;
  }
  // Every slot that ran was appended; replaying again restores all n.
  std::vector<int> reruns(n, 0);
  const std::vector<std::string> again = runtime::run_resumable(
      runner, order, &journal, /*resume=*/true,
      [&](std::size_t slot) {
        ++reruns[slot];
        return std::string();
      },
      encode_text, decode_text);
  EXPECT_EQ(again, out);
  EXPECT_EQ(reruns, std::vector<int>(n, 0));
  journal.remove();
}

// ---------------------------------------------------------------------------
// Resumable grids: a journaled partial run completes to the identical
// result, and journaled slots are not re-executed.
// ---------------------------------------------------------------------------

TEST(ResumableGrid, ResumedRunIsBitIdentical) {
  const synthetic::Params shapes[] = {
      {9013, 4, 0.395, 14},
      {9011, 4, 0.400, 18},
  };
  std::vector<synthetic::SyntheticWorkload> ladder;
  for (const auto& p : shapes) {
    ladder.push_back(
        synthetic::SyntheticWorkload{"ladder", p, synthetic::measure(p)});
  }
  const std::uint32_t sizes[] = {16, 64};
  const lb::SchemeConfig cfg = lb::gp_static(0.90);
  const simd::CostModel cost = simd::cm2_cost_model();

  // Reference: uninterrupted, no journal.
  const analysis::GridResult reference =
      analysis::run_grid(cfg, ladder, sizes, cost, 1);

  // "Interrupted" run: journal only a strict subset of the slots, as if the
  // process died after two cells.
  const std::string path = temp_path("grid_resume.journal");
  std::remove(path.c_str());
  {
    runtime::Journal journal(path);
    journal.append("0 " + analysis::encode_grid_point(reference.points[0]));
    journal.append("3 " + analysis::encode_grid_point(reference.points[3]));
    // Simulate a torn final line from the crash.
    std::ofstream out(path, std::ios::app);
    out << "1 v1 16 941";
  }

  analysis::GridOptions options;
  options.threads = 1;
  options.journal_path = path;
  options.resume = true;
  const analysis::GridResult resumed =
      analysis::run_grid(cfg, ladder, sizes, cost, options);

  ASSERT_EQ(resumed.points.size(), reference.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(resumed.points[i], reference.points[i]) << "slot " << i;
  }
  // The journal now covers every slot (the re-run recorded the rest).
  runtime::Journal journal(path);
  EXPECT_EQ(replay_all(journal).size(), 4u);
  journal.remove();
}

TEST(ResumableGrid, WatchdogMarksPointTimedOutInsteadOfHanging) {
  const synthetic::Params shape{9013, 4, 0.395, 14};
  const std::vector<synthetic::SyntheticWorkload> ladder = {
      synthetic::SyntheticWorkload{"ladder", shape,
                                   synthetic::measure(shape)}};
  const std::uint32_t sizes[] = {16};
  analysis::GridOptions options;
  options.threads = 1;
  options.cycle_budget = 3;  // absurdly tight: every cell times out
  const analysis::GridResult grid = analysis::run_grid(
      lb::gp_static(0.90), ladder, sizes, simd::cm2_cost_model(), options);
  ASSERT_EQ(grid.points.size(), 1u);
  EXPECT_TRUE(grid.points[0].timed_out);
  EXPECT_EQ(grid.points[0].p, 16u);
  EXPECT_EQ(grid.points[0].w, 0u);
}

// ---------------------------------------------------------------------------
// run_tasks: typed per-task outcomes with retry/backoff.
// ---------------------------------------------------------------------------

TEST(RunTasks, ReportsOkTimeoutAndFailure) {
  runtime::SweepRunner runner(2);
  const auto reports = runtime::run_tasks(
      runner, 4,
      [](std::size_t i) {
        switch (i) {
          case 0: return;  // ok
          case 1: throw TimeoutError("gp", 16, 100, 10);
          case 2: throw Error("hard failure");
          default: return;
        }
      },
      runtime::RetryPolicy{3, 0});

  ASSERT_EQ(reports.size(), 4u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kOk);
  EXPECT_EQ(reports[0].attempts, 1u);
  EXPECT_EQ(reports[1].status, runtime::TaskStatus::kTimeout);
  EXPECT_EQ(reports[1].attempts, 1u);  // timeouts are never retried
  EXPECT_NE(reports[1].message.find("budget"), std::string::npos);
  EXPECT_EQ(reports[2].status, runtime::TaskStatus::kFailed);
  EXPECT_EQ(reports[2].attempts, 1u);
  EXPECT_EQ(reports[3].status, runtime::TaskStatus::kOk);
}

TEST(RunTasks, RetriesTransientFailuresWithBackoff) {
  runtime::SweepRunner runner(1);
  std::atomic<int> calls{0};
  const auto reports = runtime::run_tasks(
      runner, 1,
      [&](std::size_t) {
        // Fail twice, then succeed.
        if (calls.fetch_add(1) < 2) throw TransientError("blip");
      },
      runtime::RetryPolicy{5, 0});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kOk);
  EXPECT_EQ(reports[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
}

TEST(RunTasks, GivesUpAfterMaxAttempts) {
  runtime::SweepRunner runner(1);
  std::atomic<int> calls{0};
  const auto reports = runtime::run_tasks(
      runner, 1,
      [&](std::size_t) {
        calls.fetch_add(1);
        throw TransientError("always down");
      },
      runtime::RetryPolicy{3, 0});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].status, runtime::TaskStatus::kTransient);
  EXPECT_EQ(reports[0].attempts, 3u);
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(std::string(runtime::to_string(reports[0].status)), "transient");
}

// The backoff schedule is a documented contract (the service layer charges
// it on its virtual clock), so pin the exact sequence at the boundaries: the
// base doubles per retry starting at backoff_ms (retry 1 waits the *base*
// delay, not double it), retry 0 is meaningless and free, and the shift
// saturates instead of running past the integer width.
TEST(RunTasks, BackoffSchedulePinnedExactly) {
  const runtime::RetryPolicy policy{8, 10, 0};
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 0), 0u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 1), 10u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 2), 20u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 3), 40u);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 7), 640u);
  // Saturation: the shift clamps at 32 — no undefined behaviour, and the
  // delay plateaus instead of wrapping.
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 33),
            10ull << 32);
  EXPECT_EQ(runtime::backoff_delay_ms(policy, 200),
            runtime::backoff_delay_ms(policy, 33));
  // Zero base disables backoff entirely.
  EXPECT_EQ(runtime::backoff_delay_ms(runtime::RetryPolicy{8, 0, 0}, 3), 0u);
}

TEST(RunTasks, SeededJitterIsDeterministicAndBounded) {
  const runtime::RetryPolicy jittered{5, 10, 0xBADC0FFEULL};
  // Deterministic: the same (policy, retry, salt) always yields the same
  // delay; pin the first few values of this seed so an accidental reseed or
  // mixing change fails loudly.
  const std::uint64_t d1 = runtime::backoff_delay_ms(jittered, 1, 7);
  const std::uint64_t d2 = runtime::backoff_delay_ms(jittered, 2, 7);
  EXPECT_EQ(d1, runtime::backoff_delay_ms(jittered, 1, 7));
  EXPECT_EQ(d2, runtime::backoff_delay_ms(jittered, 2, 7));
  // Bounded: base <= delay < 2 * base.
  EXPECT_GE(d1, 10u);
  EXPECT_LT(d1, 20u);
  EXPECT_GE(d2, 20u);
  EXPECT_LT(d2, 40u);
  // Salted: two tasks retrying at the same attempt spread out.
  EXPECT_NE(runtime::backoff_delay_ms(jittered, 1, 0),
            runtime::backoff_delay_ms(jittered, 1, 1));
}

TEST(RunTasks, GiveUpCountMatchesScheduleLength) {
  // A task that always fails is executed exactly max_attempts times and
  // charged exactly max_attempts - 1 backoff delays; the final attempt is
  // not followed by a sleep.  (Guards the off-by-one between attempts and
  // retries that the schedule refactor fixed.)
  runtime::SweepRunner runner(1);
  std::atomic<int> calls{0};
  const runtime::RetryPolicy policy{4, 0};
  const auto reports = runtime::run_tasks(
      runner, 1,
      [&](std::size_t) {
        calls.fetch_add(1);
        throw TransientError("always down");
      },
      policy);
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].attempts, 4u);
  EXPECT_EQ(calls.load(), 4);
  // The virtual charge for those retries, with a nonzero base: retries 1..3.
  const runtime::RetryPolicy charged{4, 10, 0};
  std::uint64_t total = 0;
  for (std::uint32_t k = 1; k < reports[0].attempts; ++k) {
    total += runtime::backoff_delay_ms(charged, k, 0);
  }
  EXPECT_EQ(total, 10u + 20u + 40u);
}

}  // namespace
}  // namespace simdts
