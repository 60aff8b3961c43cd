#include "model/litmus.h"

#include <algorithm>

#include "model/execution.h"
#include "model/table1.h"
#include "util/check.h"

namespace pmc::model {

OpKind LitmusOp::op_kind() const {
  switch (kind) {
    case Kind::kLoad:
    case Kind::kLoadUntil:
      return OpKind::kRead;
    case Kind::kStore:
      return OpKind::kWrite;
    case Kind::kAcquire:
      return OpKind::kAcquire;
    case Kind::kRelease:
      return OpKind::kRelease;
    case Kind::kFence:
      return OpKind::kFence;
  }
  return OpKind::kFence;
}

namespace {

struct ThreadState {
  std::vector<char> issued;  // per instruction index
  size_t frontier = 0;       // first non-issued index
};

struct State {
  Execution exec;
  std::vector<ThreadState> threads;
  std::vector<int> holder;  // per location: thread holding the lock, or -1
  Outcome regs;

  State(const LitmusTest& t)
      : exec(static_cast<int>(t.threads.size()), t.num_locs,
             t.initial.empty() ? std::vector<uint64_t>(t.num_locs, 0)
                               : t.initial),
        holder(t.num_locs, -1),
        regs(t.num_regs, 0) {
    threads.resize(t.threads.size());
    for (size_t i = 0; i < t.threads.size(); ++i) {
      threads[i].issued.assign(t.threads[i].ops.size(), 0);
    }
  }
};

/// Depth-first enumeration over one State that backtracks in place: each
/// branch saves a checkpoint, issues its op, recurses and restores
/// (DESIGN.md §4), so every subtree starts from exactly the state its
/// branch produced and no State is ever copied.
class Explorer {
 public:
  Explorer(const LitmusTest& test, const ExploreOptions& opts)
      : test_(test), opts_(opts), st_(test) {
    size_t total_ops = 0;
    for (const auto& th : test.threads) total_ops += th.ops.size();
    frames_.resize(total_ops + 1);  // one per depth; never reallocates
  }

  ExploreResult run() {
    dfs();
    return std::move(result_);
  }

 private:
  /// What a branch must put back besides the Execution.
  struct Frame {
    Execution::Checkpoint exec;
    std::vector<int> holder;
    Outcome regs;
  };

  /// Instruction indices of thread t that may issue next. In program-order
  /// mode this is just the frontier; in weak-issue mode any instruction in
  /// the window may hoist unless Table I orders it behind a pending earlier
  /// instruction.
  std::vector<size_t> issuable(size_t t) const {
    const auto& ts = st_.threads[t];
    const auto& ops = test_.threads[t].ops;
    std::vector<size_t> out;
    if (ts.frontier >= ops.size()) return out;
    if (opts_.mode == IssueMode::kProgramOrder) {
      out.push_back(ts.frontier);
      return out;
    }
    const size_t end =
        std::min(ops.size(), ts.frontier + static_cast<size_t>(opts_.weak_window));
    for (size_t j = ts.frontier; j < end; ++j) {
      if (ts.issued[j]) continue;
      bool blocked = false;
      for (size_t i = ts.frontier; i < j && !blocked; ++i) {
        if (ts.issued[i]) continue;
        blocked = table1_edge(ops[i].op_kind(), ops[i].loc, ops[j].op_kind(),
                              ops[j].loc)
                      .has_value();
      }
      if (!blocked) out.push_back(j);
    }
    return out;
  }

  void record_read_race(OpId read_op) {
    if (!result_.race_observed && st_.exec.last_writes(read_op).size() > 1) {
      result_.race_observed = true;
    }
  }

  /// Issues instruction j of thread t through `issue` (which applies the op
  /// to st_), explores the subtree, then restores st_ exactly.
  template <typename Issue>
  void branch(size_t t, size_t j, Issue&& issue) {
    Frame& f = frames_[depth_];
    st_.exec.save(f.exec);
    f.holder = st_.holder;
    f.regs = st_.regs;
    ThreadState& ts = st_.threads[t];
    const size_t frontier = ts.frontier;

    issue();
    ts.issued[j] = 1;
    while (ts.frontier < ts.issued.size() && ts.issued[ts.frontier]) {
      ++ts.frontier;
    }
    ++depth_;
    dfs();
    --depth_;

    ts.issued[j] = 0;
    ts.frontier = frontier;
    st_.holder = f.holder;
    st_.regs = f.regs;
    st_.exec.restore(f.exec);
  }

  void dfs() {
    if (result_.truncated) return;
    Execution& exec = st_.exec;
    bool all_done = true;
    bool advanced = false;
    for (size_t t = 0; t < st_.threads.size(); ++t) {
      if (st_.threads[t].frontier < st_.threads[t].issued.size()) {
        all_done = false;
      }
      for (size_t j : issuable(t)) {
        const LitmusOp& op = test_.threads[t].ops[j];
        const ProcId p = static_cast<ProcId>(t);
        switch (op.kind) {
          case LitmusOp::Kind::kStore:
            advanced = true;
            branch(t, j, [&] { exec.write(p, op.loc, op.value); });
            break;
          case LitmusOp::Kind::kFence:
            advanced = true;
            branch(t, j, [&] { exec.fence(p); });
            break;
          case LitmusOp::Kind::kAcquire:
            if (st_.holder[op.loc] != -1) break;  // mutual exclusion
            advanced = true;
            branch(t, j, [&] {
              exec.acquire(p, op.loc);
              st_.holder[op.loc] = static_cast<int>(t);
            });
            break;
          case LitmusOp::Kind::kRelease:
            PMC_CHECK_MSG(st_.holder[op.loc] == static_cast<int>(t),
                          "litmus program releases a lock it does not hold");
            advanced = true;
            branch(t, j, [&] {
              exec.release(p, op.loc);
              st_.holder[op.loc] = -1;
            });
            break;
          case LitmusOp::Kind::kLoad:
            for (OpId src : exec.legal_sources_now(p, op.loc)) {
              advanced = true;
              branch(t, j, [&] {
                const uint64_t v = exec.op(src).value;
                record_read_race(exec.read(p, op.loc, v, src));
                if (op.reg >= 0) st_.regs[op.reg] = v;
              });
            }
            break;
          case LitmusOp::Kind::kLoadUntil:
            // Only the terminating poll iteration is modeled; failing polls
            // read older values, which cannot restrict the outcomes we only
            // continue from (monotonicity points forward).
            for (OpId src : exec.legal_sources_now(p, op.loc)) {
              if (exec.op(src).value != op.value) continue;
              advanced = true;
              branch(t, j, [&] {
                record_read_race(exec.read(p, op.loc, op.value, src));
              });
            }
            break;
        }
        if (result_.truncated) return;
      }
    }
    if (all_done) {
      result_.outcomes.insert(st_.regs);
      if (++result_.paths >= opts_.max_paths) result_.truncated = true;
    } else if (!advanced) {
      ++result_.stuck_paths;
    }
  }

  const LitmusTest& test_;
  const ExploreOptions& opts_;
  State st_;
  std::vector<Frame> frames_;
  size_t depth_ = 0;
  ExploreResult result_;
};

}  // namespace

ExploreResult explore(const LitmusTest& test, const ExploreOptions& opts) {
  for (const auto& th : test.threads) {
    for (const auto& op : th.ops) {
      PMC_CHECK_MSG(op.kind == LitmusOp::Kind::kFence ||
                        (op.loc >= 0 && op.loc < test.num_locs),
                    "litmus op location out of range in " << test.name);
      PMC_CHECK(op.reg < test.num_regs);
    }
  }
  Explorer e(test, opts);
  return e.run();
}

bool outcome_allowed(const LitmusTest& test, const Outcome& outcome,
                     const ExploreOptions& opts) {
  return explore(test, opts).outcomes.count(outcome) > 0;
}

}  // namespace pmc::model
