// fuzz_farm: the coverage-guided farm (fuzz::Farm), in memory, on all six
// back-ends, jobs = 1, a fixed exec budget: four farms (farm seed and seed
// base 1..4) of 1000 execs each. Thousands of shallow sessions, each with
// sleep-set DPOR and a fresh Program, and a closed-form oracle
// (GenProgramTarget), so the fuzz and DPOR layers work while the model DFS
// does none. No farm may report a failure.
//
// The farm seeds are fixed and --seed only permutes the order the farms
// run in: the amount of work a farm does depends strongly on its seed
// (4000 execs took 3.0 to 13.3 s over farm seeds 1-6), so deriving farm
// seeds from --seed would make every timing measure the seed instead of
// the code.
//
// jobs = 1 because the farm's batch-synchronous rounds at jobs = 2 were both
// slower and far less steady on a shared 4-vCPU host: over eight
// interleaved runs the unit took 4.4-5.5 s at jobs = 1 and 5.3-8.1 s at
// jobs = 2 (quartile spread 0.13 against 0.29).
#include <algorithm>

#include "driver/workload.h"
#include "explore/check.h"
#include "explore/litmus_driver.h"
#include "fuzz/farm.h"
#include "fuzz/mutate.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace pmc;

class FuzzFarm final : public Workload {
 public:
  void setup(const Options& opts) override {
    farm_opts_.clear();
    for (uint64_t k = 1; k <= kFarms; ++k) {
      fuzz::FarmOptions f;
      f.max_execs = opts.small ? 100 : kExecsPerFarm;
      f.jobs = 1;
      f.seed = k;
      f.seed_base = k;
      if (opts.faults) f.faults = explore::all_seeded_faults();
      farm_opts_.push_back(f);
    }
    permute(farm_opts_, opts.seed);
    // The mutate probe's chain starts from farm 1's first seed program.
    chain_root_ = explore::generate_program(explore::shape_for_seed(1));
  }

  UnitResult run_unit() override {
    UnitResult r;
    for (const fuzz::FarmOptions& opts : farm_opts_) {
      farm_ = std::make_unique<fuzz::Farm>(opts);
      fuzz::FarmResult res;
      {
        Scope s("fuzz.run");
        r.engine_s += timed([&] { res = farm_->run(); });
      }
      r.attempted += res.execs;
      for (const fuzz::FarmFailure& f : res.failures) {
        r.fail(std::string(rt::to_string(f.target)) + ": " + f.message);
      }
      r.schedules += res.schedules;
      r.classes += res.total_classes;
      r.det["fuzz.execs"] += static_cast<double>(res.execs);
      r.det["fuzz.total_classes"] += static_cast<double>(res.total_classes);
      r.det["fuzz.corpus_size"] += static_cast<double>(res.corpus_size);
      r.det["fuzz.schedules"] += static_cast<double>(res.schedules);
      r.det["fuzz.dpor_pruned"] += static_cast<double>(res.dpor_pruned);
    }
    r.failed = std::min(r.failed, r.attempted);
    const double execs = r.det["fuzz.execs"];
    const double scheds = r.det["fuzz.schedules"];
    r.det["fuzz.classes_per_exec"] =
        execs == 0 ? 0 : r.det["fuzz.total_classes"] / execs;
    r.det["fuzz.dpor_ratio"] =
        scheds == 0 ? 0 : (scheds + r.det["fuzz.dpor_pruned"]) / scheds;
    return r;
  }

  /// Per-call latencies: fuzz::mutate over a fixed-seed chain, then a
  /// CheckSession::check (farm session) and a stateless empty-schedule
  /// replay of the first corpus entries on every back-end.
  void probe(UnitResult& r) override {
    (void)r;
    util::Rng rng(1);
    explore::GenProgram p = chain_root_;
    for (int i = 0; i < kMutateChain; ++i) {
      Scope s("fuzz.mutate");
      p = fuzz::mutate(p, rng);
    }
    const explore::CheckSession farm_session(fuzz::default_farm_session());
    explore::SessionOptions stateless = fuzz::default_farm_session();
    stateless.engine_state = explore::EngineState::kReplay;
    const explore::CheckSession replay_session(stateless);
    const auto& entries = farm_->corpus().entries();
    const size_t n = std::min<size_t>(entries.size(), kProbeEntries);
    for (size_t i = 0; i < n; ++i) {
      for (const rt::Target t : rt::sim_targets()) {
        const explore::GenProgramTarget target(entries[i].program, t);
        {
          Scope s("fuzz.exec");
          farm_session.check(target);
        }
        Scope s("explore.replay");
        replay_session.replay(target, {});
      }
    }
    farm_.reset();
  }

 private:
  static constexpr uint64_t kFarms = 4;
  static constexpr uint64_t kExecsPerFarm = 1000;
  static constexpr int kMutateChain = 2000;
  static constexpr size_t kProbeEntries = 16;

  std::vector<fuzz::FarmOptions> farm_opts_;
  explore::GenProgram chain_root_;
  std::unique_ptr<fuzz::Farm> farm_;
};

}  // namespace

std::unique_ptr<Workload> make_fuzz_farm() {
  return std::make_unique<FuzzFarm>();
}

}  // namespace perfbench
