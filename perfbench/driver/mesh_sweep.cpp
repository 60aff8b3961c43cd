// mesh_sweep: the SoC scaled to 64, 128 and 256 cores on the contention-
// accurate mesh NoC (bench/configs/mesh{64,128,256}.cfg).
//
// Per machine: the RADIOSITY-like kernel on no-CC and SWCC (checksums must
// agree), and the heavy-contention lock scenario — every core acquiring one
// lock `rounds` times with a 200-instruction critical section and a
// 20-instruction gap — with the remote test-and-set spin lock and the
// distributed lock. Each critical section's simulated [enter, exit)
// interval is recorded; any two that overlap break mutual exclusion and
// fail the run.
//
// The inputs are the committed configurations; --seed only permutes the
// order in which the runs execute.
#include <algorithm>

#include "apps/radiosity_like.h"
#include "driver/workload.h"
#include "sync/locks.h"

namespace perfbench {
namespace {

using namespace pmc;

struct LockRun {
  SimRun run;
  uint64_t sections = 0;
  uint64_t overlaps = 0;
};

LockRun run_locks(bool distributed, const sim::MachineConfig& mc, int rounds,
                  const std::string& tag) {
  constexpr uint32_t kCritical = 200;
  constexpr uint32_t kGap = 20;
  std::unique_ptr<sim::Machine> m;
  std::unique_ptr<sync::LockManager> locks;
  int lock = -1;
  {
    Scope s("sim.build");
    m = std::make_unique<sim::Machine>(mc);
    use_fibers(*m);
    if (distributed) {
      locks = std::make_unique<sync::DistLockManager>(*m, sim::kSdramBase,
                                                      64 * 1024, 0, 8 * 1024);
    } else {
      locks = std::make_unique<sync::SpinLockManager>(*m, sim::kSdramBase,
                                                      64 * 1024);
    }
    lock = locks->create();
  }
  // Per-core [enter, exit) intervals in simulated cycles.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> held(
      static_cast<size_t>(mc.num_cores));
  LockRun out;
  {
    Scope s("sim.run." + tag + (distributed ? "/dist_lock" : "/spin_lock"));
    out.run.run_s = timed([&] {
      m->run([&](sim::Core& c) {
        auto& mine = held[static_cast<size_t>(c.id())];
        for (int i = 0; i < rounds; ++i) {
          locks->acquire(c, lock);
          const uint64_t enter = c.now();
          c.compute(kCritical);
          mine.emplace_back(enter, c.now());
          locks->release(c, lock);
          c.compute(kGap);
        }
      });
    });
  }
  out.run.stats = m->stats_sum();
  for (int c = 0; c < mc.num_cores; ++c) {
    out.run.makespan = std::max(out.run.makespan, m->stats(c).cycles_total);
  }
  m->export_metrics(out.run.metrics);
  {
    Scope s("sim.teardown");
    locks.reset();
    m.reset();
  }
  std::vector<std::pair<uint64_t, uint64_t>> all;
  for (const auto& v : held) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  out.sections = all.size();
  uint64_t busy_until = 0;
  for (const auto& [enter, exit] : all) {
    if (enter < busy_until) ++out.overlaps;
    busy_until = std::max(busy_until, exit);
  }
  return out;
}

class MeshSweep final : public Workload {
 public:
  void setup(const Options& opts) override {
    rounds_ = opts.small ? 1 : 2;
    patches_ = opts.small ? 96 : 256;
    machines_.clear();
    for (const char* name : {"mesh64", "mesh128", "mesh256"}) {
      machines_.emplace_back(name, sim::MachineConfig::from_file(
                                       opts.root + "/bench/configs/" +
                                       name + ".cfg"));
    }
    order_.clear();
    for (int i = 0; i < 3 * 4; ++i) order_.push_back(i);
    permute(order_, opts.seed);
  }

  UnitResult run_unit() override {
    UnitResult r;
    obs::MetricsRegistry merged;
    SimRun radiosity[3][2];
    for (const int job : order_) {
      const int mi = job / 4;
      const auto& [tag, mc] = machines_[static_cast<size_t>(mi)];
      const int kind = job % 4;
      if (kind < 2) {
        const rt::Target t = kind == 0 ? rt::Target::kNoCC : rt::Target::kSWCC;
        apps::RadiosityConfig c;
        c.patches = patches_;
        c.neighbors = 8;
        c.iterations = 3;
        apps::RadiosityLike app(c);
        rt::ProgramOptions o;
        o.target = t;
        o.cores = mc.num_cores;
        o.machine = mc;
        o.validate = false;
        o.lock_capacity = 4096;
        SimRun& run = radiosity[mi][kind];
        run = run_app(app, o, tag);
        add_run_counts(r, run, rt::to_string(t));
        add_decomposition(r, run.stats, rt::to_string(t));
        merged.merge(run.metrics);
      } else {
        const bool dist = kind == 3;
        const LockRun lr = run_locks(dist, mc, rounds_, tag);
        add_run_counts(r, lr.run, "");
        merged.merge(lr.run.metrics);
        const char* lock = dist ? "dist" : "spin";
        r.det[std::string("sync.atomics.") + lock] +=
            static_cast<double>(lr.run.stats.atomics);
        r.det[std::string("sync.round_cycles.") + lock] +=
            static_cast<double>(lr.run.makespan / static_cast<uint64_t>(rounds_));
        const uint64_t want =
            static_cast<uint64_t>(mc.num_cores) * static_cast<uint64_t>(rounds_);
        if (lr.overlaps != 0) {
          r.fail(tag + " " + lock + ": " + std::to_string(lr.overlaps) +
                 " overlapping critical section(s)");
        } else if (lr.sections != want) {
          r.fail(tag + " " + lock + ": " + std::to_string(lr.sections) +
                 " critical sections, expected " + std::to_string(want));
        }
      }
    }
    for (int mi = 0; mi < 3; ++mi) {
      if (radiosity[mi][0].checksum != radiosity[mi][1].checksum) {
        r.fail(machines_[static_cast<size_t>(mi)].first +
               ": no-CC and SWCC checksums differ");
      }
    }
    add_contention(r, merged);
    return r;
  }

 private:
  int rounds_ = 2;
  int patches_ = 256;
  std::vector<std::pair<std::string, sim::MachineConfig>> machines_;
  std::vector<int> order_;
};

}  // namespace

std::unique_ptr<Workload> make_mesh_sweep() {
  return std::make_unique<MeshSweep>();
}

}  // namespace perfbench
