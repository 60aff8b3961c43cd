// check_grid: what a protocol developer runs before trusting a back-end
// column — every annotatable litmus test on all six back-ends at
// preemptions <= 3, horizon 24, plus the MFifo and TaskCounter app targets
// at preemptions <= 2, horizon 24. DPOR off (the CLI default), default
// engine, jobs = 2. Every target must come back ok and not truncated.
//
// LitmusTarget construction (the model-level allowed-outcome DFS, span
// model.oracle.<test>) sits inside the timed unit because every check pays
// for it; schedules_per_s counts only the time inside CheckSession::check.
// The inputs are fixed; --seed only permutes the order of the targets.
#include <algorithm>

#include "driver/workload.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "model/litmus.h"

namespace perfbench {
namespace {

using namespace pmc;

struct GridEntry {
  int test = -1;  // index into tests_, or -1 for an app target
  explore::AppKind app = explore::AppKind::kMFifo;
  rt::Target target = rt::Target::kNoCC;
};

class CheckGrid final : public Workload {
 public:
  void setup(const Options& opts) override {
    opts_ = opts;
    tests_ = explore::annotatable_tests();
    if (opts.small) tests_.resize(std::min<size_t>(tests_.size(), 4));
    faults_ = opts.faults ? explore::all_seeded_faults() : rt::FaultInjection{};
    grid_.clear();
    for (const rt::Target t : rt::sim_targets()) {
      for (size_t i = 0; i < tests_.size(); ++i) {
        grid_.push_back({static_cast<int>(i), {}, t});
      }
      for (const explore::AppKind k : explore::all_app_kinds()) {
        grid_.push_back({-1, k, t});
      }
    }
    permute(grid_, opts.seed);
    litmus_ = session(opts.small ? 1 : 3, opts.small ? 12 : 24);
    apps_ = session(opts.small ? 1 : 2, opts.small ? 12 : 24);
  }

  UnitResult run_unit() override {
    UnitResult r;
    targets_.clear();
    uint64_t snapshot_hits = 0;
    uint64_t snapshot_misses = 0;
    for (const GridEntry& e : grid_) {
      std::unique_ptr<explore::CheckTarget> target;
      const explore::SessionOptions* so = &apps_;
      if (e.test >= 0) {
        const model::LitmusTest& test = tests_[static_cast<size_t>(e.test)];
        Scope s("model.oracle." + test.name);
        target = std::make_unique<explore::LitmusTarget>(test, e.target,
                                                         faults_);
        so = &litmus_;
      } else {
        target = explore::make_app_target(e.app, e.target, faults_);
      }
      const explore::CheckSession session(*so);
      explore::CheckReport rep;
      {
        Scope s(std::string("explore.check.") + rt::to_string(e.target));
        r.engine_s += timed([&] { rep = session.check(*target); });
      }
      ++r.attempted;
      r.schedules += rep.explored;
      if (!rep.ok || rep.truncated) {
        r.fail(rep.target + (rep.truncated ? ": truncated" : ": not ok") +
               (rep.failing != 0
                    ? " (" + std::to_string(rep.failing) + " failing)"
                    : ""));
      }
      r.det["explore.explored"] += static_cast<double>(rep.explored);
      r.det["explore.pruned"] += static_cast<double>(rep.pruned);
      r.det["explore.distinct_traces"] +=
          static_cast<double>(rep.distinct_traces);
      const explore::SessionTelemetry& tel = rep.telemetry;
      r.layer["explore.snapshots_taken"] +=
          static_cast<double>(tel.snapshots_taken);
      snapshot_hits += tel.snapshot_hits;
      snapshot_misses += tel.snapshot_misses;
      for (const uint64_t s : tel.worker_steals) {
        r.layer["explore.steals_total"] += static_cast<double>(s);
      }
      targets_.push_back(std::move(target));
    }
    r.layer["explore.snapshot_hit_ratio"] =
        snapshot_hits + snapshot_misses == 0
            ? 0
            : static_cast<double>(snapshot_hits) /
                  static_cast<double>(snapshot_hits + snapshot_misses);
    return r;
  }

  /// One stateless replay of the empty schedule per target (a fresh
  /// Program build, run and validate), and the model DFS path count per
  /// test (once per test — every back-end's target repeats the same DFS).
  void probe(UnitResult& r) override {
    explore::SessionOptions stateless = litmus_;
    stateless.engine_state = explore::EngineState::kReplay;
    stateless.jobs = 1;
    const explore::CheckSession session(stateless);
    for (const auto& target : targets_) {
      Scope s("explore.replay");
      session.replay(*target, {});
    }
    double paths = 0;
    for (const model::LitmusTest& test : tests_) {
      Scope s("model.paths");
      paths += static_cast<double>(model::explore(test).paths);
    }
    r.det["model.oracle_paths"] =
        paths * static_cast<double>(rt::sim_targets().size());
    targets_.clear();
  }

 private:
  explore::SessionOptions session(int preemptions, uint64_t horizon) const {
    explore::SessionOptions s;
    s.explore.preemption_bound = preemptions;
    s.explore.horizon = horizon;
    s.explore.dpor = explore::DporMode::kOff;
    s.jobs = opts_.jobs;
    return s;
  }

  Options opts_;
  std::vector<model::LitmusTest> tests_;
  rt::FaultInjection faults_;
  std::vector<GridEntry> grid_;
  explore::SessionOptions litmus_;
  explore::SessionOptions apps_;
  std::vector<std::unique_ptr<explore::CheckTarget>> targets_;
};

}  // namespace

std::unique_ptr<Workload> make_check_grid() {
  return std::make_unique<CheckGrid>();
}

}  // namespace perfbench
