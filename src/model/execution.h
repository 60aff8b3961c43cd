// Execution graphs of the PMC memory model (paper Definitions 1–12).
//
// An Execution is the state E = (P, V, O, ≺) of a program at one moment in
// time. Operations are issued one at a time; each issue applies the ordering
// rules of Table I against the already-issued operations and extends the
// partial order. Edges always point from older to newer operations, so the
// graph is a DAG topologically sorted by OpId.
//
// Edge insertion uses a closure-preserving reduction (only non-dominated
// predecessors receive explicit edges); `tests/model/test_naive_equivalence`
// property-checks it against the unreduced NaiveExecution on random programs.
//
// Checkpoints let a search backtrack in place instead of copying the graph:
// `save` records the current state, `restore` undoes every operation issued
// since (DESIGN.md §4).
#pragma once

#include <cstdint>
#include <vector>

#include "model/op.h"

namespace pmc::model {

/// The execution graph E = (P, V, O, ≺).
class Execution {
 public:
  /// Creates an initialized execution (Definition 3): every location gets an
  /// initial operation that is both a write and a release, by the ⋆ process,
  /// with value ⊥ (or `initial[v]` when provided).
  Execution(int num_procs, int num_locs,
            const std::vector<uint64_t>& initial = {});

  int num_procs() const { return num_procs_; }
  int num_locs() const { return num_locs_; }
  size_t num_ops() const { return ops_.size(); }
  size_t num_edges() const { return num_edges_; }

  const Operation& op(OpId id) const;
  OpId init_op(LocId v) const;
  const std::vector<Edge>& out_edges(OpId id) const;
  const std::vector<Edge>& in_edges(OpId id) const;

  // -- Issuing operations (Definition 4 state transitions) ------------------

  /// Issues a read returning the value of write `source` (kNoOp to record an
  /// unvalidated value). Checks read monotonicity (Def. 12, second clause)
  /// when the source is known; returns the new op id.
  OpId read(ProcId p, LocId v, uint64_t value, OpId source = kNoOp);
  OpId write(ProcId p, LocId v, uint64_t value);
  OpId acquire(ProcId p, LocId v);
  OpId release(ProcId p, LocId v);
  OpId fence(ProcId p);

  // -- Ordering queries ------------------------------------------------------

  /// a ≺G b: path of globally visible edges only (Definition 9).
  bool hb_global(OpId a, OpId b) const;
  /// a p≺ b: path of global plus p-local edges (Definition 10).
  bool hb_view(ProcId p, OpId a, OpId b) const;
  /// Reflexive version, a p⪯ b.
  bool hb_view_eq(ProcId p, OpId a, OpId b) const {
    return a == b || hb_view(p, a, b);
  }

  // -- Definition 11/12 machinery --------------------------------------------

  /// The last-write set W_o of an issued operation `o` (Definition 11),
  /// evaluated in the view of o's process.
  std::vector<OpId> last_writes(OpId o) const;

  /// The last-write set of a *hypothetical* read that process p would issue
  /// on location v now.
  std::vector<OpId> last_writes_now(ProcId p, LocId v) const;

  /// Legal source writes for a read that p would issue on v now
  /// (Definition 12): writes b with a p⪯ b for some a ∈ W, filtered by read
  /// monotonicity against p's previous read of v.
  std::vector<OpId> legal_sources_now(ProcId p, LocId v) const;

  /// True iff the issued read `o` was a data race (|W_o| > 1, Definition 11).
  bool is_racy_read(OpId o) const { return last_writes(o).size() > 1; }

  /// All pairs of globally unordered writes to v (write/write races).
  std::vector<std::pair<OpId, OpId>> unordered_write_pairs(LocId v) const;

  /// All writes to location v, in issue order (the initial op is first).
  const std::vector<OpId>& writes_to(LocId v) const;

  /// The source of the last read p issued on v (kNoOp if none/untracked).
  OpId last_read_source(ProcId p, LocId v) const;

  /// Graphviz rendering, for documentation and the litmus explorer.
  std::string to_dot() const;

  // -- Backtracking (DESIGN.md §4) --------------------------------------------

  /// A saved state. Reusable: saving into one again reuses its storage, so a
  /// search that keeps one per depth stops allocating once warm.
  class Checkpoint;

  /// Records the current state into `cp`.
  void save(Checkpoint& cp) const;
  /// Undoes every operation issued since `cp` was saved; afterwards the
  /// execution equals one that issued only the operations before `cp`.
  /// Restores are LIFO: `cp` must have been saved from this execution at
  /// the current state or an ancestor of it. Restoring a checkpoint newer
  /// than the current state fails a PMC_CHECK.
  void restore(const Checkpoint& cp);

 private:
  struct ProcLocState {
    OpId last_write = kNoOp;    // latest (w, p, v, ·) — starts at the init op
    OpId last_acquire = kNoOp;  // latest (A, p, v, ·)
    OpId last_read = kNoOp;     // latest (r, p, v, ·) — reads chain via ≺ℓ
    OpId last_sync = kNoOp;     // latest acquire-or-release, for fence edges
    OpId last_read_source = kNoOp;
  };
  struct ProcState {
    OpId last_fence = kNoOp;
    std::vector<LocId> dirty_since_fence;  // locations touched since last fence
  };

  ProcLocState& pls(ProcId p, LocId v);
  const ProcLocState& pls(ProcId p, LocId v) const;
  void touch(ProcId p, LocId v);
  OpId new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value);
  void add_edge(OpId from, OpId to, EdgeKind kind);
  /// DFS from a towards b over edges visible in `view` (kAnyProc = global).
  bool reachable(OpId a, OpId b, ProcId view) const;
  std::vector<OpId> last_writes_impl(ProcId p, const std::vector<OpId>& preds,
                                     LocId v, OpId upper) const;

  int num_procs_;
  int num_locs_;
  std::vector<Operation> ops_;
  // Edge lists per op. After a restore these may hold empty slots past
  // ops_.size() that keep their capacity for the ops issued next.
  std::vector<std::vector<Edge>> out_;
  std::vector<std::vector<Edge>> in_;
  size_t num_edges_ = 0;
  std::vector<OpId> init_;                       // per location
  std::vector<std::vector<OpId>> writes_;        // per location, issue order
  std::vector<std::vector<OpId>> release_frontier_;  // per location
  std::vector<ProcLocState> pls_;                // [p * num_locs + v]
  std::vector<ProcState> ps_;

  // Scratch of reachable(), reused across queries instead of allocated per
  // query: an op is visited iff its mark equals the query's epoch (bumped
  // per query, so nothing is cleared), plus the DFS stack. Nothing in here
  // outlives a query, so save()/restore() ignore it; it also makes const
  // queries mutate, so one Execution must not be queried from two threads
  // at once (each search and each TraceValidator owns its own).
  mutable std::vector<uint32_t> visit_mark_;
  mutable uint32_t visit_epoch_ = 0;
  mutable std::vector<OpId> visit_stack_;
};

class Execution::Checkpoint {
 private:
  friend class Execution;
  size_t num_ops_ = 0;
  size_t num_edges_ = 0;
  std::vector<std::vector<OpId>> release_frontier_;
  std::vector<ProcLocState> pls_;
  std::vector<ProcState> ps_;
};

}  // namespace pmc::model
