#include "model/execution.h"

#include <algorithm>
#include <deque>
#include <sstream>

#include "util/check.h"

namespace pmc::model {

const char* to_string(OpKind k) {
  switch (k) {
    case OpKind::kRead: return "R";
    case OpKind::kWrite: return "W";
    case OpKind::kAcquire: return "acq";
    case OpKind::kRelease: return "rel";
    case OpKind::kFence: return "fence";
  }
  return "?";
}

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::kLocal: return "local";
    case EdgeKind::kProgram: return "program";
    case EdgeKind::kSync: return "sync";
    case EdgeKind::kFence: return "fence";
  }
  return "?";
}

std::string Operation::describe() const {
  std::ostringstream os;
  os << "#" << id << " p";
  if (proc == kInitProc) {
    os << "*";
  } else {
    os << proc;
  }
  os << " ";
  bool first = true;
  for (OpKind k : {OpKind::kRead, OpKind::kWrite, OpKind::kAcquire,
                   OpKind::kRelease, OpKind::kFence}) {
    if (is(k)) {
      if (!first) os << "+";
      os << to_string(k);
      first = false;
    }
  }
  if (loc >= 0) os << " v" << loc;
  if (is(OpKind::kWrite) || is(OpKind::kRead)) {
    if (value == kBottom) {
      os << "=⊥";
    } else {
      os << "=" << value;
    }
  }
  return os.str();
}

Execution::Execution(int num_procs, int num_locs,
                     const std::vector<uint64_t>& initial)
    : num_procs_(num_procs), num_locs_(num_locs) {
  PMC_CHECK(num_procs >= 1);
  PMC_CHECK(num_locs >= 0);
  PMC_CHECK(initial.empty() || initial.size() == static_cast<size_t>(num_locs));
  writes_.resize(num_locs_);
  release_frontier_.resize(num_locs_);
  pls_.resize(static_cast<size_t>(num_procs_) * num_locs_);
  ps_.resize(num_procs_);
  init_.reserve(num_locs_);
  for (LocId v = 0; v < num_locs_; ++v) {
    // Definition 3: one initial op per location that is both write and release.
    const uint64_t val = initial.empty() ? kBottom : initial[v];
    const OpId id = new_op(kind_bit(OpKind::kWrite) | kind_bit(OpKind::kRelease),
                           kInitProc, v, val);
    init_.push_back(id);
    writes_[v].push_back(id);
    release_frontier_[v].push_back(id);
    for (ProcId p = 0; p < num_procs_; ++p) pls(p, v).last_write = id;
  }
}

const Operation& Execution::op(OpId id) const {
  PMC_CHECK(id < ops_.size());
  return ops_[id];
}

OpId Execution::init_op(LocId v) const {
  PMC_CHECK(v >= 0 && v < num_locs_);
  return init_[v];
}

const std::vector<Edge>& Execution::out_edges(OpId id) const {
  PMC_CHECK(id < ops_.size());
  return out_[id];
}

const std::vector<Edge>& Execution::in_edges(OpId id) const {
  PMC_CHECK(id < ops_.size());
  return in_[id];
}

const std::vector<OpId>& Execution::writes_to(LocId v) const {
  PMC_CHECK(v >= 0 && v < num_locs_);
  return writes_[v];
}

OpId Execution::last_read_source(ProcId p, LocId v) const {
  return pls(p, v).last_read_source;
}

Execution::ProcLocState& Execution::pls(ProcId p, LocId v) {
  PMC_CHECK(p >= 0 && p < num_procs_ && v >= 0 && v < num_locs_);
  return pls_[static_cast<size_t>(p) * num_locs_ + v];
}

const Execution::ProcLocState& Execution::pls(ProcId p, LocId v) const {
  PMC_CHECK(p >= 0 && p < num_procs_ && v >= 0 && v < num_locs_);
  return pls_[static_cast<size_t>(p) * num_locs_ + v];
}

void Execution::touch(ProcId p, LocId v) {
  auto& dirty = ps_[p].dirty_since_fence;
  if (std::find(dirty.begin(), dirty.end(), v) == dirty.end()) {
    dirty.push_back(v);
  }
}

OpId Execution::new_op(uint8_t kinds, ProcId p, LocId v, uint64_t value) {
  Operation o;
  o.id = static_cast<OpId>(ops_.size());
  o.kinds = kinds;
  o.proc = p;
  o.loc = v;
  o.value = value;
  ops_.push_back(o);
  if (out_.size() == o.id) {  // else reuse a slot a restore emptied
    out_.emplace_back();
    in_.emplace_back();
  }
  return o.id;
}

void Execution::add_edge(OpId from, OpId to, EdgeKind kind) {
  if (from == kNoOp) return;
  PMC_CHECK(from < to);  // the graph is topologically ordered by id
  Edge e;
  e.from = from;
  e.to = to;
  e.kind = kind;
  if (kind == EdgeKind::kLocal) {
    // Local edges always connect operations of one process; the ⋆ initial
    // process takes the view of the newer endpoint.
    e.owner = ops_[from].proc == kInitProc ? ops_[to].proc : ops_[from].proc;
  }
  out_[from].push_back(e);
  in_[to].push_back(e);
  ++num_edges_;
}

namespace {
/// id comparison where kNoOp counts as "older than everything".
bool newer(OpId a, OpId b) { return a != kNoOp && (b == kNoOp || a > b); }
}  // namespace

OpId Execution::read(ProcId p, LocId v, uint64_t value, OpId source) {
  auto& s = pls(p, v);
  if (source != kNoOp) {
    PMC_CHECK_MSG(op(source).is(OpKind::kWrite) && op(source).loc == v,
                  "read source must be a write to the same location");
    // Definition 12, second clause: successive reads of one process on one
    // location must observe non-decreasing writes.
    if (s.last_read_source != kNoOp) {
      PMC_CHECK_MSG(hb_view_eq(p, s.last_read_source, source),
                    "read monotonicity violated: " << op(source).describe()
                        << " is not ⪰ previous source "
                        << op(s.last_read_source).describe());
    }
  }
  const OpId id = new_op(kind_bit(OpKind::kRead), p, v, value);
  ops_[id].source = source;
  // Table I column r: r→r ≺ℓ, w→r ≺ℓ, A→r ≺ℓ. Older reads/writes/acquires
  // reach the newest one of their kind transitively (r chains via ≺ℓ, w via
  // ≺P, A via A≺P R≺S A), so edges from the newest of each suffice.
  add_edge(s.last_read, id, EdgeKind::kLocal);
  if (newer(s.last_write, s.last_read)) {
    add_edge(s.last_write, id, EdgeKind::kLocal);
  }
  if (newer(s.last_acquire, s.last_read)) {
    add_edge(s.last_acquire, id, EdgeKind::kLocal);
  }
  s.last_read = id;
  if (source != kNoOp) s.last_read_source = source;
  touch(p, v);
  return id;
}

OpId Execution::write(ProcId p, LocId v, uint64_t value) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kWrite), p, v, value);
  // Table I column w: r→w ≺ℓ, w→w ≺P, A→w ≺P, F→w ≺F.
  // The ≺P edge from the last write is always added: a newer local path (via
  // reads) would not preserve the *globally* visible program order.
  add_edge(s.last_write, id, EdgeKind::kProgram);
  if (newer(s.last_acquire, s.last_write)) {
    add_edge(s.last_acquire, id, EdgeKind::kProgram);
  }
  if (newer(s.last_read, s.last_write)) {
    add_edge(s.last_read, id, EdgeKind::kLocal);
  }
  const OpId f = ps_[p].last_fence;
  if (newer(f, s.last_write) && newer(f, s.last_acquire)) {
    add_edge(f, id, EdgeKind::kFence);
  }
  s.last_write = id;
  writes_[v].push_back(id);
  touch(p, v);
  return id;
}

OpId Execution::release(ProcId p, LocId v) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kRelease), p, v, 0);
  // Table I column R: r→R ≺ℓ, w→R ≺P, A→R ≺P, F→R ≺F.
  add_edge(s.last_write, id, EdgeKind::kProgram);
  if (newer(s.last_acquire, s.last_write)) {
    add_edge(s.last_acquire, id, EdgeKind::kProgram);
  }
  if (newer(s.last_read, s.last_write)) {
    add_edge(s.last_read, id, EdgeKind::kLocal);
  }
  const OpId f = ps_[p].last_fence;
  if (newer(f, s.last_write) && newer(f, s.last_acquire)) {
    add_edge(f, id, EdgeKind::kFence);
  }
  s.last_sync = id;
  release_frontier_[v].push_back(id);
  touch(p, v);
  return id;
}

OpId Execution::acquire(ProcId p, LocId v) {
  auto& s = pls(p, v);
  const OpId id = new_op(kind_bit(OpKind::kAcquire), p, v, 0);
  // Table I column A: R→A ≺S (releases of *any* process, the † footnote),
  // F→A ≺F. Notably *not* r→A: the paper's Fig. 5 discussion relies on a
  // fence being required to keep an acquire behind a poll loop.
  for (OpId rel : release_frontier_[v]) add_edge(rel, id, EdgeKind::kSync);
  release_frontier_[v].clear();
  const OpId f = ps_[p].last_fence;
  if (f != kNoOp) add_edge(f, id, EdgeKind::kFence);
  s.last_acquire = id;
  s.last_sync = id;
  touch(p, v);
  return id;
}

OpId Execution::fence(ProcId p) {
  const OpId id = new_op(kind_bit(OpKind::kFence), p, /*loc=*/-1, 0);
  // Table I column F: r→F ≺ℓ, w→F ≺ℓ, A→F ≺F, R→F ≺F, across *all*
  // locations the process touched. Edges older than the previous fence are
  // covered by chaining the previous fence (≺F) — a closure-preserving
  // reduction, property-checked against NaiveExecution.
  auto& proc = ps_[p];
  for (LocId v : proc.dirty_since_fence) {
    auto& s = pls(p, v);
    if (s.last_sync != kNoOp && newer(s.last_sync, proc.last_fence)) {
      add_edge(s.last_sync, id, EdgeKind::kFence);
    }
    if (s.last_write != init_[v] && newer(s.last_write, proc.last_fence)) {
      add_edge(s.last_write, id, EdgeKind::kLocal);
    }
    if (newer(s.last_read, s.last_write) &&
        newer(s.last_read, proc.last_fence)) {
      add_edge(s.last_read, id, EdgeKind::kLocal);
    }
  }
  add_edge(proc.last_fence, id, EdgeKind::kFence);
  proc.dirty_since_fence.clear();
  proc.last_fence = id;
  return id;
}

bool Execution::reachable(OpId a, OpId b, ProcId view) const {
  if (a == b) return false;
  if (a > b) return false;  // edges only point up in id order
  // Iterative DFS over ids < b.
  if (visit_mark_.size() < ops_.size()) visit_mark_.resize(ops_.size(), 0);
  if (++visit_epoch_ == 0) {  // wrapped: forget every mark once
    std::fill(visit_mark_.begin(), visit_mark_.end(), 0);
    visit_epoch_ = 1;
  }
  visit_stack_.assign(1, a);
  visit_mark_[a] = visit_epoch_;
  while (!visit_stack_.empty()) {
    const OpId cur = visit_stack_.back();
    visit_stack_.pop_back();
    for (const Edge& e : out_[cur]) {
      if (e.kind == EdgeKind::kLocal && view != e.owner) continue;
      if (e.to == b) return true;
      if (e.to > b || visit_mark_[e.to] == visit_epoch_) continue;
      visit_mark_[e.to] = visit_epoch_;
      visit_stack_.push_back(e.to);
    }
  }
  return false;
}

bool Execution::hb_global(OpId a, OpId b) const {
  PMC_CHECK(a < ops_.size() && b < ops_.size());
  return reachable(a, b, kAnyProc);
}

bool Execution::hb_view(ProcId p, OpId a, OpId b) const {
  PMC_CHECK(a < ops_.size() && b < ops_.size());
  PMC_CHECK(p >= 0 && p < num_procs_);
  return reachable(a, b, p);
}

std::vector<OpId> Execution::last_writes_impl(ProcId p,
                                              const std::vector<OpId>& preds,
                                              LocId v, OpId upper) const {
  // R = { a ∈ (w,·,v,·) | a p⪯ some pred }, i.e. all writes ordered before
  // the (possibly hypothetical) operation whose predecessors are `preds`.
  std::vector<OpId> r_set;
  for (OpId w : writes_[v]) {
    if (w >= upper) break;
    bool before = false;
    for (OpId pr : preds) {
      if (w == pr || reachable(w, pr, p)) {
        before = true;
        break;
      }
    }
    if (before) r_set.push_back(w);
  }
  if (r_set.empty()) return r_set;
  // W = maximal elements of R under the p-view order (Definition 11). Fast
  // path: the newest write usually dominates all others.
  const OpId cand = r_set.back();
  bool cand_dominates = true;
  for (OpId w : r_set) {
    if (w != cand && !reachable(w, cand, p)) {
      cand_dominates = false;
      break;
    }
  }
  if (cand_dominates) return {cand};
  std::vector<OpId> maximal;
  for (OpId w : r_set) {
    bool dominated = false;
    for (OpId w2 : r_set) {
      if (w2 != w && reachable(w, w2, p)) {
        dominated = true;
        break;
      }
    }
    if (!dominated) maximal.push_back(w);
  }
  return maximal;
}

std::vector<OpId> Execution::last_writes(OpId o) const {
  const Operation& read_op = op(o);
  PMC_CHECK(read_op.loc >= 0);
  const ProcId p = read_op.proc;
  std::vector<OpId> preds;
  for (const Edge& e : in_[o]) {
    if (e.kind == EdgeKind::kLocal && e.owner != p) continue;
    preds.push_back(e.from);
  }
  return last_writes_impl(p, preds, read_op.loc, o);
}

std::vector<OpId> Execution::last_writes_now(ProcId p, LocId v) const {
  // Predecessors a read issued now would receive per Table I column r.
  const auto& s = pls(p, v);
  std::vector<OpId> preds;
  if (s.last_read != kNoOp) preds.push_back(s.last_read);
  if (s.last_write != kNoOp) preds.push_back(s.last_write);
  if (s.last_acquire != kNoOp) preds.push_back(s.last_acquire);
  return last_writes_impl(p, preds, v, static_cast<OpId>(ops_.size()));
}

std::vector<OpId> Execution::legal_sources_now(ProcId p, LocId v) const {
  const std::vector<OpId> frontier = last_writes_now(p, v);
  const OpId last_src = pls(p, v).last_read_source;
  std::vector<OpId> legal;
  for (OpId b : writes_[v]) {
    // Definition 12: b is readable iff some a ∈ W with a p⪯ b.
    bool after_frontier = false;
    for (OpId a : frontier) {
      if (a == b || reachable(a, b, p)) {
        after_frontier = true;
        break;
      }
    }
    if (!after_frontier) continue;
    // Second clause (read monotonicity): previous source must be p⪯ b.
    if (last_src != kNoOp && b != last_src && !reachable(last_src, b, p)) {
      continue;
    }
    legal.push_back(b);
  }
  return legal;
}

std::vector<std::pair<OpId, OpId>> Execution::unordered_write_pairs(
    LocId v) const {
  std::vector<std::pair<OpId, OpId>> pairs;
  const auto& ws = writes_[v];
  for (size_t i = 0; i < ws.size(); ++i) {
    for (size_t j = i + 1; j < ws.size(); ++j) {
      if (!reachable(ws[i], ws[j], kAnyProc) &&
          !reachable(ws[j], ws[i], kAnyProc)) {
        pairs.emplace_back(ws[i], ws[j]);
      }
    }
  }
  return pairs;
}

std::string Execution::to_dot() const {
  std::ostringstream os;
  os << "digraph pmc {\n  rankdir=TB;\n  node [shape=box,fontname=\"mono\"];\n";
  for (const Operation& o : ops_) {
    os << "  n" << o.id << " [label=\"" << o.describe() << "\"];\n";
  }
  for (OpId id = 0; id < ops_.size(); ++id) {
    for (const Edge& e : out_[id]) {
      const char* style = "solid";
      const char* color = "black";
      switch (e.kind) {
        case EdgeKind::kLocal: style = "dashed"; color = "gray40"; break;
        case EdgeKind::kProgram: color = "black"; break;
        case EdgeKind::kSync: color = "blue"; break;
        case EdgeKind::kFence: color = "red"; break;
      }
      os << "  n" << e.from << " -> n" << e.to << " [style=" << style
         << ",color=" << color << ",label=\"" << to_string(e.kind) << "\"];\n";
    }
  }
  os << "}\n";
  return os.str();
}

void Execution::save(Checkpoint& cp) const {
  cp.num_ops_ = ops_.size();
  cp.num_edges_ = num_edges_;
  cp.release_frontier_ = release_frontier_;
  cp.pls_ = pls_;
  cp.ps_ = ps_;
}

void Execution::restore(const Checkpoint& cp) {
  const size_t n = cp.num_ops_;
  PMC_CHECK_MSG(n <= ops_.size(),
                "restore of a checkpoint newer than the current state "
                "(checkpoints restore LIFO)");
  PMC_CHECK(cp.pls_.size() == pls_.size() && cp.ps_.size() == ps_.size());
  // Every edge into a newer op was appended after the checkpoint, so the
  // ones from older ops sit at the tails of those ops' out-lists.
  for (size_t id = n; id < ops_.size(); ++id) {
    for (const Edge& e : in_[id]) {
      if (e.from < n) out_[e.from].pop_back();
    }
    out_[id].clear();
    in_[id].clear();
  }
  ops_.resize(n);
  for (auto& ws : writes_) {
    while (!ws.empty() && ws.back() >= n) ws.pop_back();
  }
  num_edges_ = cp.num_edges_;
  release_frontier_ = cp.release_frontier_;
  pls_ = cp.pls_;
  ps_ = cp.ps_;
}

}  // namespace pmc::model
