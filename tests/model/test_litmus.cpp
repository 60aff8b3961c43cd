// Litmus-test outcome checks: the paper's figures as executable claims.
#include "model/litmus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "model/litmus_library.h"
#include "util/check.h"

namespace pmc::model {
namespace {

using litmus::fig1_mp_plain;
using litmus::fig4_exclusive;
using litmus::fig5_mp_annotated;
using litmus::fig5_mp_no_reader_fence;
using litmus::fig5_mp_no_writer_fence;

ExploreOptions program_order() { return {IssueMode::kProgramOrder, 3, 5'000'000}; }
// Window 4 so a hoisted critical section can also retire its release —
// otherwise the deadlocked path is pruned and the stale outcome hides.
ExploreOptions weak_issue() { return {IssueMode::kWeakIssue, 4, 5'000'000}; }

TEST(Litmus, Fig1PlainMessagePassingAllowsStaleRead) {
  const auto res = explore(fig1_mp_plain(), program_order());
  EXPECT_FALSE(res.truncated);
  // Both the fresh and the stale value are reachable — the motivating bug.
  EXPECT_TRUE(res.outcomes.count({42}));
  EXPECT_TRUE(res.outcomes.count({0}));
  EXPECT_EQ(res.outcomes.size(), 2u);
}

TEST(Litmus, Fig5AnnotatedMessagePassingIsExact) {
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(fig5_mp_annotated(), opts);
    EXPECT_FALSE(res.truncated);
    EXPECT_EQ(res.outcomes, std::set<Outcome>{{42}})
        << "mode=" << static_cast<int>(opts.mode);
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, Fig5ReaderFenceIsEssentialUnderWeakIssue) {
  // In program order the missing fence is invisible...
  const auto in_order = explore(fig5_mp_no_reader_fence(), program_order());
  EXPECT_EQ(in_order.outcomes, std::set<Outcome>{{42}});
  // ...but a weak issue engine may hoist the acquire above the poll loop
  // (Table I r→A is blank) and the stale read appears.
  const auto weak = explore(fig5_mp_no_reader_fence(), weak_issue());
  EXPECT_TRUE(weak.outcomes.count({42}));
  EXPECT_TRUE(weak.outcomes.count({0}))
      << "hoisted acquire should expose the stale value";
}

TEST(Litmus, Fig5WriterFenceIsModelRedundant) {
  // X=42 ≺P rel X already holds, so removing the line-3 fence changes
  // nothing — an analysis result the model makes checkable.
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto with_fence = explore(fig5_mp_annotated(), opts);
    const auto without = explore(fig5_mp_no_writer_fence(), opts);
    EXPECT_EQ(with_fence.outcomes, without.outcomes);
  }
}

TEST(Litmus, Fig4ExclusiveAccessHidesIntermediateValue) {
  const auto res = explore(fig4_exclusive(), program_order());
  EXPECT_TRUE(res.outcomes.count({0}));
  EXPECT_TRUE(res.outcomes.count({2}));
  EXPECT_FALSE(res.outcomes.count({1}))
      << "the intermediate value must never escape the critical section";
  EXPECT_EQ(res.outcomes.size(), 2u);
}

TEST(Litmus, StoreBufferingUnsynchronizedAllowsEverything) {
  const auto res = explore(litmus::sb_plain(), program_order());
  EXPECT_EQ(res.outcomes.size(), 4u);
  EXPECT_TRUE(res.outcomes.count({0, 0}));
  EXPECT_TRUE(res.outcomes.count({1, 1}));
}

TEST(Litmus, StoreBufferingWithEntryExitPairsIsSequentiallyConsistent) {
  // §IV-E: with per-object acquire/release pairs and fences, PMC behaves
  // like PC, which simulates SC for data-race-free programs: (0,0) vanishes.
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(litmus::sb_locked(), opts);
    EXPECT_FALSE(res.outcomes.count({0, 0}))
        << "mode=" << static_cast<int>(opts.mode);
    EXPECT_TRUE(res.outcomes.count({1, 0}));
    EXPECT_TRUE(res.outcomes.count({0, 1}));
    EXPECT_TRUE(res.outcomes.count({1, 1}));
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, ReadCoherenceForbidsGoingBackwards) {
  const auto res = explore(litmus::coherence_rr(), program_order());
  EXPECT_TRUE(res.outcomes.count({0, 0}));
  EXPECT_TRUE(res.outcomes.count({0, 1}));
  EXPECT_TRUE(res.outcomes.count({1, 1}));
  EXPECT_FALSE(res.outcomes.count({1, 0}))
      << "Definition 12 monotonicity: newer value cannot be followed by older";
}

TEST(Litmus, UnprotectedWriteRaceIsDetected) {
  const auto res = explore(litmus::racy_write_write(), program_order());
  EXPECT_TRUE(res.race_observed);
}

TEST(Litmus, LoadBufferingIsUnconstrainedWithoutSync) {
  // No cross-thread r→w edge exists in Table I, so even (1,1) — each load
  // observing the other thread's later store — has an interleaving-free
  // justification under slow reads... but with issue-order exploration the
  // loads can only see issued writes, so (1,1) needs weak issue.
  const auto in_order = explore(litmus::lb_plain(), program_order());
  EXPECT_TRUE(in_order.outcomes.count({0, 0}));
  EXPECT_TRUE(in_order.outcomes.count({0, 1}));
  EXPECT_TRUE(in_order.outcomes.count({1, 0}));
  EXPECT_FALSE(in_order.outcomes.count({1, 1}));
  const auto weak = explore(litmus::lb_plain(), weak_issue());
  EXPECT_TRUE(weak.outcomes.count({1, 1}))
      << "store may hoist above the unrelated load under weak issue";
}

TEST(Litmus, WriteToReadCausalityHoldsWithAnnotations) {
  // If P2 saw Y=1 (written by P1 after it read X), what P2 then reads from
  // X must be at least what P1 saw. Forbidden: r1=1 (P1 saw X=1), r2=1
  // (P2 saw Y=1), r3=0 (P2 missed X=1).
  for (const auto& opts : {program_order(), weak_issue()}) {
    const auto res = explore(litmus::wrc_locked(), opts);
    for (const auto& outcome : res.outcomes) {
      EXPECT_FALSE(outcome[0] == 1 && outcome[1] == 1 && outcome[2] == 0)
          << "causality violated";
    }
    EXPECT_TRUE(res.outcomes.count({1, 1, 1}));
    EXPECT_FALSE(res.race_observed);
  }
}

TEST(Litmus, OutcomeAllowedHelper) {
  EXPECT_TRUE(outcome_allowed(fig1_mp_plain(), {0}));
  EXPECT_FALSE(outcome_allowed(fig5_mp_annotated(), {0}));
}

TEST(Litmus, AllLibraryTestsExploreCleanly) {
  for (const auto& test : litmus::all_tests()) {
    const auto res = explore(test, program_order());
    EXPECT_FALSE(res.truncated) << test.name;
    EXPECT_FALSE(res.outcomes.empty()) << test.name;
  }
}

TEST(Litmus, MalformedReleaseIsRejected) {
  LitmusTest t;
  t.name = "bad_release";
  t.num_locs = 1;
  t.num_regs = 0;
  t.threads = {{{LitmusOp::release(0)}}};
  EXPECT_THROW(explore(t, program_order()), util::CheckFailure);
}

TEST(Litmus, LocationBoundsAreValidated) {
  LitmusTest t;
  t.name = "bad_loc";
  t.num_locs = 1;
  t.num_regs = 1;
  t.threads = {{{LitmusOp::load(3, 0)}}};
  EXPECT_THROW(explore(t, program_order()), util::CheckFailure);
}

// -- Pinned enumeration results ----------------------------------------------

/// Outcomes in set order, e.g. "(0,1) (1,0)".
std::string format(const std::set<Outcome>& outcomes) {
  std::string out;
  for (const Outcome& o : outcomes) {
    if (!out.empty()) out += ' ';
    out += '(';
    for (size_t i = 0; i < o.size(); ++i) {
      if (i) out += ',';
      out += std::to_string(o[i]);
    }
    out += ')';
  }
  return out;
}

struct Pinned {
  const char* test;
  int window;  // 0 = program order, else weak issue with this window
  size_t paths;
  size_t stuck_paths;
  bool truncated;
  bool race_observed;
  const char* outcomes;
};

// Exact results of the exhaustive enumeration, recorded from an enumerator
// that copied its whole state at every branch: backtracking in place must
// visit the same paths in the same order.
constexpr Pinned kPinned[] = {
      {"fig1_mp_plain", 0, 2, 0, false, false, "(0) (42)"},
      {"fig1_mp_plain", 2, 18, 0, false, false, "(0) (42)"},
      {"fig1_mp_plain", 3, 18, 0, false, false, "(0) (42)"},
      {"fig1_mp_plain", 4, 18, 0, false, false, "(0) (42)"},
      {"fig5_mp_annotated", 0, 6, 0, false, false, "(42)"},
      {"fig5_mp_annotated", 2, 12, 0, false, false, "(42)"},
      {"fig5_mp_annotated", 3, 27, 0, false, false, "(42)"},
      {"fig5_mp_annotated", 4, 33, 0, false, false, "(42)"},
      {"fig5_mp_no_reader_fence", 0, 5, 0, false, false, "(42)"},
      {"fig5_mp_no_reader_fence", 2, 32, 1, false, false, "(42)"},
      {"fig5_mp_no_reader_fence", 3, 85, 1, false, false, "(42)"},
      {"fig5_mp_no_reader_fence", 4, 150, 0, false, false, "(0) (42)"},
      {"fig5_mp_no_writer_fence", 0, 6, 0, false, false, "(42)"},
      {"fig5_mp_no_writer_fence", 2, 12, 0, false, false, "(42)"},
      {"fig5_mp_no_writer_fence", 3, 48, 0, false, false, "(42)"},
      {"fig5_mp_no_writer_fence", 4, 163, 0, false, false, "(42)"},
      {"fig4_exclusive", 0, 2, 0, false, false, "(0) (2)"},
      {"fig4_exclusive", 2, 2, 0, false, false, "(0) (2)"},
      {"fig4_exclusive", 3, 2, 0, false, false, "(0) (2)"},
      {"fig4_exclusive", 4, 2, 0, false, false, "(0) (2)"},
      {"sb_plain", 0, 20, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"sb_plain", 2, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"sb_plain", 3, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"sb_plain", 4, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"sb_locked", 0, 2452, 0, false, false, "(0,1) (1,0) (1,1)"},
      {"sb_locked", 2, 2452, 0, false, false, "(0,1) (1,0) (1,1)"},
      {"sb_locked", 3, 2452, 0, false, false, "(0,1) (1,0) (1,1)"},
      {"sb_locked", 4, 2452, 0, false, false, "(0,1) (1,0) (1,1)"},
      {"coherence_rr", 0, 6, 0, false, false, "(0,0) (0,1) (1,1)"},
      {"coherence_rr", 2, 6, 0, false, false, "(0,0) (0,1) (1,1)"},
      {"coherence_rr", 3, 6, 0, false, false, "(0,0) (0,1) (1,1)"},
      {"coherence_rr", 4, 6, 0, false, false, "(0,0) (0,1) (1,1)"},
      {"racy_write_write", 0, 9, 0, false, true, "(1) (2)"},
      {"racy_write_write", 2, 11, 0, false, true, "(1) (2)"},
      {"racy_write_write", 3, 11, 0, false, true, "(1) (2)"},
      {"racy_write_write", 4, 11, 0, false, true, "(1) (2)"},
      {"lb_plain", 0, 8, 0, false, false, "(0,0) (0,1) (1,0)"},
      {"lb_plain", 2, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"lb_plain", 3, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"lb_plain", 4, 54, 0, false, false, "(0,0) (0,1) (1,0) (1,1)"},
      {"wrc_locked", 0, 101822, 0, false, false, "(0,0,0) (0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,1)"},
      {"wrc_locked", 2, 101822, 0, false, false, "(0,0,0) (0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,1)"},
      {"wrc_locked", 3, 101822, 0, false, false, "(0,0,0) (0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,1)"},
      {"wrc_locked", 4, 101822, 0, false, false, "(0,0,0) (0,0,1) (0,1,0) (0,1,1) (1,0,0) (1,0,1) (1,1,1)"},
};

ExploreOptions mode_for(int window) {
  return window == 0 ? program_order()
                     : ExploreOptions{IssueMode::kWeakIssue, window, 5'000'000};
}

void expect_pinned(const LitmusTest& test, int window) {
  const auto* pin = std::find_if(
      std::begin(kPinned), std::end(kPinned), [&](const Pinned& p) {
        return p.test == test.name && p.window == window;
      });
  ASSERT_NE(pin, std::end(kPinned)) << test.name << " window " << window;
  const auto res = explore(test, mode_for(window));
  SCOPED_TRACE(test.name + " window " + std::to_string(window));
  EXPECT_EQ(res.paths, pin->paths);
  EXPECT_EQ(res.stuck_paths, pin->stuck_paths);
  EXPECT_EQ(res.truncated, pin->truncated);
  EXPECT_EQ(res.race_observed, pin->race_observed);
  EXPECT_EQ(format(res.outcomes), pin->outcomes);
}

TEST(LitmusPinned, EveryLibraryTestInEveryModeMatchesItsPin) {
  const auto tests = litmus::all_tests();
  ASSERT_EQ(tests.size() * 4, std::size(kPinned))
      << "a library test was added or removed; pin its results";
  for (const auto& test : tests) {
    for (const int window : {0, 2, 3, 4}) expect_pinned(test, window);
  }
}

TEST(LitmusPinned, TruncationStopsAtMaxPathsWithASubsetOfOutcomes) {
  const auto full = explore(litmus::wrc_locked(), program_order());
  ExploreOptions opts = program_order();
  opts.max_paths = 1000;
  const auto cut = explore(litmus::wrc_locked(), opts);
  EXPECT_EQ(cut.paths, 1000u);
  EXPECT_TRUE(cut.truncated);
  EXPECT_FALSE(cut.outcomes.empty());
  EXPECT_TRUE(std::includes(full.outcomes.begin(), full.outcomes.end(),
                            cut.outcomes.begin(), cut.outcomes.end()));
  EXPECT_LT(cut.outcomes.size(), full.outcomes.size());
}

TEST(LitmusPinned, ExploreAfterAThrowingExploreIsUnaffected) {
  // Thread 1 releases a lock it never took, several branches deep.
  LitmusTest bad;
  bad.name = "bad_release_mid_search";
  bad.num_locs = 1;
  bad.num_regs = 1;
  bad.threads = {{{LitmusOp::store(0, 1), LitmusOp::load(0, 0)}},
                 {{LitmusOp::store(0, 2), LitmusOp::release(0)}}};
  EXPECT_THROW(explore(bad, program_order()), util::CheckFailure);
  expect_pinned(litmus::wrc_locked(), 0);
  EXPECT_THROW(explore(bad, weak_issue()), util::CheckFailure);
  expect_pinned(litmus::wrc_locked(), 4);
}

}  // namespace
}  // namespace pmc::model
