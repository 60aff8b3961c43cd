// Unit tests for the Execution graph engine: Definitions 1–12.
#include "model/execution.h"

#include <gtest/gtest.h>

#include "util/check.h"
#include "util/rng.h"

namespace pmc::model {
namespace {

TEST(Execution, InitializationCreatesInitOps) {
  // Definition 3: every location has one initial op that is write + release.
  Execution e(2, 3);
  EXPECT_EQ(e.num_ops(), 3u);
  for (LocId v = 0; v < 3; ++v) {
    const Operation& init = e.op(e.init_op(v));
    EXPECT_TRUE(init.is(OpKind::kWrite));
    EXPECT_TRUE(init.is(OpKind::kRelease));
    EXPECT_FALSE(init.is(OpKind::kRead));
    EXPECT_EQ(init.proc, kInitProc);
    EXPECT_EQ(init.value, kBottom);
    EXPECT_EQ(e.writes_to(v).size(), 1u);
  }
}

TEST(Execution, InitialValuesCanBeProvided) {
  Execution e(1, 2, {5, 7});
  EXPECT_EQ(e.op(e.init_op(0)).value, 5u);
  EXPECT_EQ(e.op(e.init_op(1)).value, 7u);
}

TEST(Execution, ReadsAlwaysHaveAPredecessor) {
  Execution e(1, 1);
  const OpId r = e.read(0, 0, kBottom);
  EXPECT_FALSE(e.in_edges(r).empty());
  EXPECT_EQ(e.in_edges(r).front().from, e.init_op(0));
}

TEST(Execution, ProgramOrderBetweenWrites) {
  // Fig. 2: two writes by one process to one location are ≺P ordered.
  Execution e(1, 1);
  const OpId w1 = e.write(0, 0, 1);
  const OpId w2 = e.write(0, 0, 2);
  EXPECT_TRUE(e.hb_global(w1, w2));
  EXPECT_TRUE(e.hb_global(e.init_op(0), w1));
  EXPECT_FALSE(e.hb_global(w2, w1));
}

TEST(Execution, LocalOrderOfReadsIsInvisibleGlobally) {
  // Fig. 3: w ≺ℓ r ≺ℓ w' — the read is ordered only in the executing
  // process's view.
  Execution e(2, 1);
  const OpId w1 = e.write(0, 0, 1);
  const OpId r = e.read(0, 0, 1, w1);
  const OpId w2 = e.write(0, 0, 2);
  EXPECT_TRUE(e.hb_view(0, w1, r));
  EXPECT_TRUE(e.hb_view(0, r, w2));
  EXPECT_FALSE(e.hb_global(w1, r));  // reads are never globally ordered
  EXPECT_FALSE(e.hb_global(r, w2));
  EXPECT_FALSE(e.hb_view(1, w1, r));  // other processes may disagree
  EXPECT_TRUE(e.hb_global(w1, w2));   // but ≺P stands for everyone
}

TEST(Execution, WritesOfDifferentLocationsAreUnordered) {
  Execution e(1, 2);
  const OpId wx = e.write(0, 0, 1);
  const OpId wy = e.write(0, 1, 1);
  EXPECT_FALSE(e.hb_global(wx, wy));
  EXPECT_FALSE(e.hb_view(0, wx, wy));
}

TEST(Execution, FenceOrdersWritesAcrossLocations) {
  // w(x) ≺ℓ F ≺F w(y): the x-write is before the y-write in the local view,
  // and the fence-to-write edge is global.
  Execution e(1, 2);
  const OpId wx = e.write(0, 0, 1);
  const OpId f = e.fence(0);
  const OpId wy = e.write(0, 1, 1);
  EXPECT_TRUE(e.hb_view(0, wx, wy));
  EXPECT_TRUE(e.hb_global(f, wy));
  // w→F is only ≺ℓ (Table I), so the chain is not globally visible.
  EXPECT_FALSE(e.hb_global(wx, wy));
}

TEST(Execution, ReleaseAcquireSynchronizesAcrossProcesses) {
  Execution e(2, 1);
  const OpId a0 = e.acquire(0, 0);
  const OpId w = e.write(0, 0, 42);
  const OpId r0 = e.release(0, 0);
  const OpId a1 = e.acquire(1, 0);
  EXPECT_TRUE(e.hb_global(a0, w));
  EXPECT_TRUE(e.hb_global(w, r0));
  EXPECT_TRUE(e.hb_global(r0, a1));
  EXPECT_TRUE(e.hb_global(w, a1));  // transitively
}

TEST(Execution, AcquireSyncsWithReleasesOfAnyProcess) {
  // The † footnote of Table I: ≺S is on (R, ∗, v, ∗).
  Execution e(3, 1);
  e.acquire(1, 0);
  const OpId rel1 = e.release(1, 0);
  const OpId a2 = e.acquire(2, 0);
  EXPECT_TRUE(e.hb_global(rel1, a2));
}

TEST(Execution, InitialOpActsAsRelease) {
  // Fig. 4 shows init ≺S acq for the first acquire.
  Execution e(1, 1);
  const OpId a = e.acquire(0, 0);
  EXPECT_TRUE(e.hb_global(e.init_op(0), a));
  bool sync_edge = false;
  for (const Edge& edge : e.in_edges(a)) {
    sync_edge |= edge.kind == EdgeKind::kSync;
  }
  EXPECT_TRUE(sync_edge);
}

TEST(Execution, ReadDoesNotOrderBeforeAcquire) {
  // Table I r→A is blank: this is why Fig. 5 needs the fence at line 11.
  Execution e(1, 2);
  const OpId r = e.read(0, 1, kBottom);
  const OpId a = e.acquire(0, 0);
  EXPECT_FALSE(e.hb_view(0, r, a));
  EXPECT_FALSE(e.hb_global(r, a));
}

TEST(Execution, FencePinsAcquireBehindRead) {
  Execution e(1, 2);
  const OpId r = e.read(0, 1, kBottom);
  const OpId f = e.fence(0);
  const OpId a = e.acquire(0, 0);
  EXPECT_TRUE(e.hb_view(0, r, f));
  EXPECT_TRUE(e.hb_global(f, a));
  EXPECT_TRUE(e.hb_view(0, r, a));
}

TEST(Execution, SuccessiveReadsAreLocallyOrdered) {
  Execution e(1, 1);
  const OpId r1 = e.read(0, 0, kBottom);
  const OpId r2 = e.read(0, 0, kBottom);
  EXPECT_TRUE(e.hb_view(0, r1, r2));
  EXPECT_FALSE(e.hb_global(r1, r2));
}

TEST(Execution, LastWritesSingleWriterChain) {
  Execution e(1, 1);
  e.write(0, 0, 1);
  const OpId w2 = e.write(0, 0, 2);
  const auto w = e.last_writes_now(0, 0);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w[0], w2);
}

TEST(Execution, LastWritesSeesThroughSynchronization) {
  Execution e(2, 1);
  e.acquire(0, 0);
  const OpId w = e.write(0, 0, 42);
  e.release(0, 0);
  e.acquire(1, 0);
  const auto lw = e.last_writes_now(1, 0);
  ASSERT_EQ(lw.size(), 1u);
  EXPECT_EQ(lw[0], w);
}

TEST(Execution, UnsynchronizedWriteIsNotInFrontierButIsLegal) {
  // Definition 12: the frontier stays at init, but the newer value may be
  // returned ("or any value that is written afterwards").
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  const auto frontier = e.last_writes_now(1, 0);
  ASSERT_EQ(frontier.size(), 1u);
  EXPECT_EQ(frontier[0], e.init_op(0));
  const auto legal = e.legal_sources_now(1, 0);
  ASSERT_EQ(legal.size(), 2u);
  EXPECT_EQ(legal[0], e.init_op(0));
  EXPECT_EQ(legal[1], w);
}

TEST(Execution, ReadMonotonicityRestrictsSources) {
  // After reading the new value, the old one is no longer legal.
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  e.read(1, 0, 42, w);
  const auto legal = e.legal_sources_now(1, 0);
  ASSERT_EQ(legal.size(), 1u);
  EXPECT_EQ(legal[0], w);
}

TEST(Execution, ReadMonotonicityViolationThrows) {
  Execution e(2, 1);
  const OpId w = e.write(0, 0, 42);
  e.read(1, 0, 42, w);
  EXPECT_THROW(e.read(1, 0, kBottom, e.init_op(0)), util::CheckFailure);
}

TEST(Execution, RacyReadHasMultipleLastWrites) {
  // A plain write by p plus a locked write by q both reach p's read after it
  // acquires, but are mutually unordered: |W_o| = 2 (Definition 11).
  Execution e(2, 1);
  const OpId w_plain = e.write(0, 0, 1);
  e.acquire(1, 0);
  const OpId w_locked = e.write(1, 0, 2);
  e.release(1, 0);
  e.acquire(0, 0);
  const OpId r = e.read(0, 0, 2, w_locked);
  const auto w = e.last_writes(r);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(e.is_racy_read(r));
  const auto racy = e.unordered_write_pairs(0);
  ASSERT_EQ(racy.size(), 1u);
  EXPECT_EQ(racy[0].first, w_plain);
  EXPECT_EQ(racy[0].second, w_locked);
}

TEST(Execution, LockedWritersAreTotallyOrdered) {
  Execution e(2, 1);
  for (ProcId p : {0, 1, 0, 1}) {
    e.acquire(p, 0);
    e.write(p, 0, static_cast<uint64_t>(p));
    e.release(p, 0);
  }
  EXPECT_TRUE(e.unordered_write_pairs(0).empty());
}

TEST(Execution, DescribeAndDotRender) {
  Execution e(1, 1, {0});
  e.acquire(0, 0);
  e.write(0, 0, 9);
  e.release(0, 0);
  const std::string dot = e.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("W v0=9"), std::string::npos);
  EXPECT_NE(dot.find("sync"), std::string::npos);
  EXPECT_EQ(e.op(1).describe(), "#1 p0 acq v0");
}

TEST(Execution, BoundsAreChecked) {
  Execution e(1, 1);
  EXPECT_THROW(e.op(99), util::CheckFailure);
  EXPECT_THROW(e.read(0, 5, 0), util::CheckFailure);
  EXPECT_THROW(e.write(2, 0, 0), util::CheckFailure);
}

// -- Checkpoints --------------------------------------------------------------

/// One issued operation, recorded so a fresh execution can replay it.
struct Step {
  OpKind kind = OpKind::kFence;
  ProcId p = 0;
  LocId v = 0;
  uint64_t value = 0;
  OpId source = kNoOp;
};

void apply(Execution& e, const Step& s) {
  switch (s.kind) {
    case OpKind::kRead: e.read(s.p, s.v, s.value, s.source); break;
    case OpKind::kWrite: e.write(s.p, s.v, s.value); break;
    case OpKind::kAcquire: e.acquire(s.p, s.v); break;
    case OpKind::kRelease: e.release(s.p, s.v); break;
    case OpKind::kFence: e.fence(s.p); break;
  }
}

/// A random well-formed program (the shape of test_naive_equivalence) that
/// keeps its lock holders and issued steps alongside the execution. Reads
/// return a random legal source, so read monotonicity is exercised too.
struct RandomProgram {
  Execution exec;
  std::vector<int> holder;  // lock holder per location, -1 = free
  std::vector<Step> steps;
  util::Rng rng;

  RandomProgram(int procs, int locs, uint64_t seed)
      : exec(procs, locs, std::vector<uint64_t>(locs, 0)),
        holder(locs, -1),
        rng(seed) {}

  void issue(int n) {
    for (int i = 0; i < n; ++i) {
      Step s;
      s.p = static_cast<ProcId>(rng.next_below(exec.num_procs()));
      s.v = static_cast<LocId>(rng.next_below(exec.num_locs()));
      switch (rng.next_below(6)) {
        case 0: {
          const auto legal = exec.legal_sources_now(s.p, s.v);
          s.kind = OpKind::kRead;
          if (!legal.empty()) {
            s.source = legal[rng.next_below(legal.size())];
            s.value = exec.op(s.source).value;
          }
          break;
        }
        case 1:
        case 2:
          s.kind = OpKind::kWrite;
          s.value = steps.size() + 1;
          break;
        case 3:
          if (holder[s.v] != -1) continue;
          s.kind = OpKind::kAcquire;
          holder[s.v] = s.p;
          break;
        case 4:
          if (holder[s.v] != s.p) continue;
          s.kind = OpKind::kRelease;
          holder[s.v] = -1;
          break;
        case 5:
          s.kind = OpKind::kFence;
          s.v = -1;
          break;
      }
      apply(exec, s);
      steps.push_back(s);
    }
  }
};

/// A fresh execution that issued only `steps`.
Execution replay(int procs, int locs, const std::vector<Step>& steps) {
  Execution e(procs, locs, std::vector<uint64_t>(locs, 0));
  for (const Step& s : steps) apply(e, s);
  return e;
}

/// Everything observable about an execution must agree.
void expect_same(const Execution& a, const Execution& b) {
  ASSERT_EQ(a.num_ops(), b.num_ops());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.to_dot(), b.to_dot());
  for (OpId id = 0; id < a.num_ops(); ++id) {
    EXPECT_EQ(a.op(id).source, b.op(id).source) << id;
    EXPECT_EQ(a.in_edges(id), b.in_edges(id)) << id;
    EXPECT_EQ(a.out_edges(id), b.out_edges(id)) << id;
  }
  for (LocId v = 0; v < a.num_locs(); ++v) {
    EXPECT_EQ(a.writes_to(v), b.writes_to(v)) << "v" << v;
    for (ProcId p = 0; p < a.num_procs(); ++p) {
      EXPECT_EQ(a.last_read_source(p, v), b.last_read_source(p, v));
      EXPECT_EQ(a.legal_sources_now(p, v), b.legal_sources_now(p, v))
          << "p" << p << " v" << v;
      EXPECT_EQ(a.last_writes_now(p, v), b.last_writes_now(p, v))
          << "p" << p << " v" << v;
    }
  }
}

class CheckpointProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CheckpointProperty, RestoreEqualsReplayOfThePrefix) {
  const uint64_t seed = GetParam();
  const int procs = 2 + static_cast<int>(seed % 2);
  const int locs = 2 + static_cast<int>(seed % 3);
  RandomProgram prog(procs, locs, seed * 7919 + 1);
  prog.issue(static_cast<int>(prog.rng.next_below(24)));

  Execution::Checkpoint cp;
  prog.exec.save(cp);
  const std::vector<Step> prefix = prog.steps;
  const std::vector<int> holder = prog.holder;
  prog.issue(1 + static_cast<int>(prog.rng.next_below(24)));
  prog.exec.restore(cp);
  prog.steps = prefix;
  prog.holder = holder;

  Execution fresh = replay(procs, locs, prefix);
  SCOPED_TRACE("seed=" + std::to_string(seed));
  expect_same(prog.exec, fresh);

  // Continuing both with one suffix keeps them equal.
  prog.issue(24);
  for (size_t i = prefix.size(); i < prog.steps.size(); ++i) {
    apply(fresh, prog.steps[i]);
  }
  expect_same(prog.exec, fresh);
}

TEST_P(CheckpointProperty, NestedRestoresAreLifo) {
  const uint64_t seed = GetParam();
  const int procs = 2 + static_cast<int>(seed % 2);
  const int locs = 2 + static_cast<int>(seed % 3);
  RandomProgram prog(procs, locs, seed * 104729 + 3);
  SCOPED_TRACE("seed=" + std::to_string(seed));

  // Checkpoints at three depths; unwinding them innermost first must pass
  // through each saved state in turn.
  std::vector<Execution::Checkpoint> cps(3);
  std::vector<std::vector<Step>> prefixes;
  std::vector<std::vector<int>> holders;
  for (auto& cp : cps) {
    prog.issue(static_cast<int>(prog.rng.next_below(12)));
    prog.exec.save(cp);
    prefixes.push_back(prog.steps);
    holders.push_back(prog.holder);
  }
  prog.issue(12);
  for (size_t i = cps.size(); i-- > 0;) {
    prog.exec.restore(cps[i]);
    expect_same(prog.exec, replay(procs, locs, prefixes[i]));
  }
  // The same checkpoint restores again after further issues.
  prog.steps = prefixes[0];
  prog.holder = holders[0];
  prog.issue(12);
  prog.exec.restore(cps[0]);
  expect_same(prog.exec, replay(procs, locs, prefixes[0]));
}

INSTANTIATE_TEST_SUITE_P(Seeds, CheckpointProperty,
                         ::testing::Range<uint64_t>(0, 40));

TEST(Checkpoint, RestoringANewerCheckpointThrows) {
  Execution e(2, 1);
  Execution::Checkpoint older;
  Execution::Checkpoint newer;
  e.save(older);
  e.write(0, 0, 1);
  e.save(newer);
  e.write(1, 0, 2);
  e.restore(older);
  EXPECT_THROW(e.restore(newer), util::CheckFailure);
  EXPECT_EQ(e.num_ops(), 1u);
}

TEST(Checkpoint, UndoneOpsAreOutOfBounds) {
  Execution e(1, 1);
  Execution::Checkpoint cp;
  e.save(cp);
  const OpId w = e.write(0, 0, 1);
  e.restore(cp);
  EXPECT_THROW(e.op(w), util::CheckFailure);
  EXPECT_THROW(e.out_edges(w), util::CheckFailure);
  EXPECT_THROW(e.in_edges(w), util::CheckFailure);
  EXPECT_TRUE(e.out_edges(e.init_op(0)).empty());
}

}  // namespace
}  // namespace pmc::model
