// The one exploration engine through the session API: totals and the
// canonical (lexicographically least) failing schedule must be independent
// of the worker count, minimization must be identical at any job count, and
// jobs = 1 must keep what a plain depth-first scan guarantees — it runs on
// the calling thread, and its traversal-order-dependent telemetry is pinned
// (DESIGN.md §7/§9).
#include "explore/check.h"

#include <gtest/gtest.h>

#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "explore/litmus_driver.h"
#include "model/litmus_library.h"

namespace pmc::explore {
namespace {

CheckSession session_for(const ExploreConfig& cfg, int jobs) {
  SessionOptions opts;
  opts.explore = cfg;
  opts.jobs = jobs;
  return CheckSession(opts);
}

ExploreConfig seeded_cfg() {
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 16;
  return cfg;
}

TEST(LexLess, OrdersByStepThenChoiceThenLength) {
  const DecisionString empty;
  const DecisionString a{{2, 1}};
  const DecisionString b{{2, 2}};
  const DecisionString c{{3, 1}};
  const DecisionString ab{{2, 1}, {5, 1}};
  EXPECT_TRUE(lex_less(empty, a));
  EXPECT_TRUE(lex_less(a, b));
  EXPECT_TRUE(lex_less(b, c));
  EXPECT_TRUE(lex_less(a, ab));  // prefix sorts before its extension
  EXPECT_FALSE(lex_less(ab, a));
  EXPECT_FALSE(lex_less(a, a));
}

TEST(ParallelEngine, MatchesSequentialTotalsOnCleanSweep) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.prune_delay = false;
  const auto s = session_for(cfg, 1).explore(target);
  ASSERT_EQ(s.explored, 56u);  // Σ C(10, j), j ≤ 2 — the closed form
  for (int jobs : {2, 8}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_EQ(p.explored, s.explored) << "jobs=" << jobs;
    EXPECT_EQ(p.pruned, s.pruned) << "jobs=" << jobs;
    EXPECT_EQ(p.distinct_traces, s.distinct_traces) << "jobs=" << jobs;
    EXPECT_EQ(p.failing, 0u);
    EXPECT_FALSE(p.truncated);
    EXPECT_EQ(p.worker_steals.size(), static_cast<size_t>(jobs));
  }
}

TEST(ParallelEngine, PruningAccountingMatchesSequential) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 1;  // depth 1: explored + pruned is the closed form
  cfg.horizon = 10;
  cfg.prune_delay = true;
  const auto s = session_for(cfg, 1).explore(target);
  EXPECT_EQ(s.explored + s.pruned, 11u);
  for (int jobs : {2, 8}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_EQ(p.explored, s.explored) << "jobs=" << jobs;
    EXPECT_EQ(p.pruned, s.pruned) << "jobs=" << jobs;
  }
}

TEST(ParallelEngine, TruncationCapsTheExploredCount) {
  const LitmusTarget target(model::litmus::fig5_mp_annotated(),
                            rt::Target::kNoCC);
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.prune_delay = false;
  cfg.max_schedules = 7;
  for (int jobs : {1, 4}) {
    const auto p = session_for(cfg, jobs).explore(target);
    EXPECT_TRUE(p.truncated) << "jobs=" << jobs;
    EXPECT_EQ(p.explored, 7u) << "jobs=" << jobs;
  }
}

TEST(ParallelEngine, AThrowingRunnerFailsTheCallAtAnyJobCount) {
  // Runners report failures as outcomes, but a runner that throws anyway
  // must neither end the process from a worker thread nor leave the other
  // workers waiting for the subtree it dropped.
  const LitmusTarget inner(model::litmus::fig5_mp_annotated(),
                           rt::Target::kNoCC);
  const FnTarget target("throws", [&inner](ReplayPolicy& p) {
    if (p.overrides().size() == 2) throw std::runtime_error("runner broke");
    return inner.run(p);
  });
  ExploreConfig cfg;
  cfg.preemption_bound = 2;
  cfg.horizon = 10;
  cfg.prune_delay = false;
  for (int jobs : {1, 4}) {
    const CheckSession session = session_for(cfg, jobs);
    EXPECT_THROW(session.explore(target), std::runtime_error)
        << "jobs=" << jobs;
    const DecisionString failing = parse_decision_string("1:1,2:1,3:1");
    EXPECT_THROW(session.minimize(target, failing), std::runtime_error)
        << "jobs=" << jobs;
  }
}

// -- Whole-report determinism (the CheckSession contract) --------------------

TEST(CheckReport, SeededBugReportIsIdenticalAtAnyJobCount) {
  const LitmusTarget target = seeded_bug_check(rt::Target::kDSM);
  const CheckReport ref = session_for(seeded_cfg(), 1).check(target);
  ASSERT_GT(ref.failing, 0u);
  ASSERT_FALSE(ref.minimized_schedule.empty());
  ASSERT_FALSE(ref.minimized_message.empty());
  for (int jobs : {2, 8}) {
    const CheckReport rep = session_for(seeded_cfg(), jobs).check(target);
    EXPECT_EQ(rep.to_text(), ref.to_text()) << "jobs=" << jobs;
  }
}

TEST(CheckReport, SequentialAndParallelReportsAreByteIdentical) {
  // Every job count canonicalizes failures to the lexicographic minimum and
  // shares the minimization pipeline, so the whole rendered report —
  // counts, failing schedule, message, minimization — is byte-identical
  // between jobs = 1 and jobs ∈ {2, 8}.
  const LitmusTarget target = seeded_bug_check(rt::Target::kSWCC);
  const CheckSession seq = session_for(seeded_cfg(), 1);
  const CheckReport s = seq.check(target);
  ASSERT_GT(s.failing, 0u);
  for (int jobs : {2, 8}) {
    const CheckReport p = session_for(seeded_cfg(), jobs).check(target);
    EXPECT_EQ(p.to_text(), s.to_text()) << "jobs=" << jobs;
  }
  // And the canonical failure really fails.
  bool applied = false;
  EXPECT_FALSE(seq.replay(target, s.first_failing, &applied).ok);
  EXPECT_TRUE(applied);
}

TEST(ParallelEngine, MinimizeAgreesWithSequentialMinimize) {
  const LitmusTarget target = seeded_bug_check(rt::Target::kSPM);
  const CheckSession par = session_for(seeded_cfg(), 4);
  const auto rep = par.explore(target);
  ASSERT_GT(rep.failing, 0u);
  const CheckSession seq = session_for(seeded_cfg(), 1);
  const std::string ref = to_string(seq.minimize(target, rep.first_failing));
  EXPECT_EQ(to_string(par.minimize(target, rep.first_failing)), ref);
  // A reducible schedule takes several rounds: every job count must accept
  // the same (lowest) index in each of them.
  const DecisionString longer = parse_decision_string("2:1,3:1,4:1");
  const std::string reduced = to_string(seq.minimize(target, longer));
  for (int jobs : {2, 8}) {
    EXPECT_EQ(to_string(session_for(seeded_cfg(), jobs)
                            .minimize(target, longer)),
              reduced)
        << "jobs=" << jobs;
  }
}

// -- What jobs = 1 guarantees -------------------------------------------------

/// Wraps `inner` in a target that counts its runs and records the threads
/// they ran on. Not stateful_capable, so every run goes through run().
struct RunLog {
  std::mutex mu;
  std::set<std::thread::id> threads;
  uint64_t runs = 0;
};

FnTarget logged(const CheckTarget& inner, RunLog* log) {
  return FnTarget("logged:" + inner.name(), [&inner, log](ReplayPolicy& p) {
    {
      std::lock_guard<std::mutex> lk(log->mu);
      log->threads.insert(std::this_thread::get_id());
      ++log->runs;
    }
    return inner.run(p);
  });
}

TEST(SingleJob, RunsEveryScheduleOnTheCallingThread) {
  // The fuzzing farm runs thousands of single-job sessions of about a
  // millisecond each; a thread start and join per call would show up in
  // its throughput.
  const LitmusTarget bug = seeded_bug_check(rt::Target::kDSM);
  const std::set<std::thread::id> caller{std::this_thread::get_id()};
  const CheckSession session = session_for(seeded_cfg(), 1);
  {
    RunLog log;
    const CheckReport rep = session.check(logged(bug, &log));
    ASSERT_GT(rep.failing, 0u);
    EXPECT_EQ(log.threads, caller) << "check";
  }
  DecisionString failing;
  {
    RunLog log;
    const ExploreReport rep = session.explore(logged(bug, &log));
    ASSERT_GT(rep.failing, 0u);
    failing = rep.first_failing;
    EXPECT_EQ(log.threads, caller) << "explore";
    EXPECT_EQ(rep.worker_steals, std::vector<uint64_t>{0});
  }
  {
    RunLog log;
    session.minimize(logged(bug, &log), parse_decision_string("2:1,3:1,4:1"));
    EXPECT_EQ(log.threads, caller) << "minimize";
  }
}

// Goldens below were captured with the depth-first engine these tests pin;
// a change to the jobs = 1 traversal order moves them.

TEST(SingleJob, HbCurveIsPinned) {
  // fig4_exclusive@swcc with DPOR off: the configuration behind
  // bench_explore's hb_classes_curve_* keys (there at horizon 20).
  const LitmusTarget target(model::litmus::fig4_exclusive(),
                            rt::Target::kSWCC);
  const std::map<uint64_t, std::vector<uint64_t>> pins = {
      {16, {1, 1, 1, 1, 1, 1, 1, 2, 2}},
      {20, {1, 1, 1, 1, 1, 1, 1, 1, 2}},
  };
  for (const auto& [horizon, curve] : pins) {
    ExploreConfig cfg;
    cfg.preemption_bound = 2;
    cfg.horizon = horizon;
    cfg.dpor = DporMode::kOff;
    cfg.sample_hb_curve = true;
    EXPECT_EQ(session_for(cfg, 1).explore(target).hb_curve, curve)
        << "horizon=" << horizon;
  }
}

TEST(SingleJob, SchedulesToFirstFailureArePinned) {
  const std::map<std::string, uint64_t> off = {
      {"swcc", 93}, {"dsm", 93}, {"spm", 93}, {"regc", 93}, {"shl1", 2}};
  const std::map<std::string, uint64_t> sleepset = {
      {"swcc", 2}, {"dsm", 4}, {"spm", 2}, {"regc", 2}, {"shl1", 2}};
  for (const DporMode dpor : {DporMode::kOff, DporMode::kSleepSet}) {
    ExploreConfig cfg = seeded_cfg();
    cfg.dpor = dpor;
    const auto& pins = dpor == DporMode::kOff ? off : sleepset;
    size_t seen = 0;
    for (const rt::Target t : rt::sim_targets()) {
      if (!has_seeded_fault(t)) continue;
      ++seen;
      const auto pin = pins.find(rt::to_string(t));
      ASSERT_NE(pin, pins.end()) << "no pin for " << rt::to_string(t);
      EXPECT_EQ(
          session_for(cfg, 1).explore(seeded_bug_check(t))
              .schedules_to_first_failure,
          pin->second)
          << rt::to_string(t) << " dpor=" << to_string(dpor);
    }
    EXPECT_EQ(seen, pins.size());
  }
}

TEST(SingleJob, MinimizeRunCountIsPinned) {
  // jobs = 1 replays exactly the first-accept scan's candidates: per round,
  // every index up to and including the first one that still fails.
  const LitmusTarget bug = seeded_bug_check(rt::Target::kDSM);
  const CheckSession session = session_for(seeded_cfg(), 1);
  const struct {
    const char* failing;
    const char* minimized;
    uint64_t runs;
  } pins[] = {{"2:1,3:1,4:1", "2:1", 5},
              {"0:1,1:1,2:1", "2:1", 4},
              {"0:1,1:1", "0:1,1:1", 2}};
  for (const auto& pin : pins) {
    RunLog log;
    const DecisionString out = session.minimize(
        logged(bug, &log), parse_decision_string(pin.failing));
    EXPECT_EQ(to_string(out), pin.minimized) << pin.failing;
    EXPECT_EQ(log.runs, pin.runs) << pin.failing;
  }
  // The whole pipeline: 137 explored, the 2-run minimization of "0:1,1:1",
  // and one replay for the minimized schedule's message.
  RunLog log;
  EXPECT_EQ(session.check(logged(bug, &log)).explored, 137u);
  EXPECT_EQ(log.runs, 140u);
}

}  // namespace
}  // namespace pmc::explore
