// The benchmark's workload interface and the helpers the simulated
// workloads share.
//
// A workload is set up (config parsing, target lists, seed programs — timed
// as setup_s, over many fresh instances), then one instance runs its fixed
// unit of work as often as the run's time allows (each unit timed as
// wall_s). Every unit builds the system it measures afresh, so units are
// independent repetitions of one input.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "apps/app.h"
#include "driver/spans.h"
#include "obs/metrics.h"
#include "runtime/program.h"
#include "sim/machine.h"
#include "util/rng.h"

namespace perfbench {

struct Options {
  uint64_t seed = 1;
  /// Checkout root; machine descriptions are read from bench/configs/.
  std::string root = ".";
  /// Reduced sizes for the determinism self-test (not the benchmark).
  bool small = false;
  /// check_grid's CheckSession worker threads (two in the benchmark).
  int jobs = 2;
  /// Enables seeded protocol faults (rt::FaultInjection): every registered
  /// one in check_grid and fuzz_farm, the SWCC and DSM ones in paper_sim.
  /// The self-test's proof that the output checks are live.
  bool faults = false;
};

/// What one unit of work produced.
struct UnitResult {
  uint64_t attempted = 0;  // simulation runs, check targets, or farm execs
  uint64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed check
  /// Executed schedules and the host seconds of the engine calls that ran
  /// them (a simulation run is exactly one schedule).
  uint64_t schedules = 0;
  double engine_s = 0;
  /// hb-classes reached (fuzz_farm only).
  uint64_t classes = 0;
  /// Per-layer values. `det` holds the deterministic counts, which must be
  /// identical on every repetition of the same input; `layer` everything
  /// else a workload measures itself (span timings are added by the driver).
  std::map<std::string, double> det;
  std::map<std::string, double> layer;

  void fail(std::string why) {
    ++failed;
    failures.push_back(std::move(why));
  }
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Everything before the first timed call.
  virtual void setup(const Options& opts) = 0;
  /// The timed unit; spans inside it attribute its time to the layers.
  virtual UnitResult run_unit() = 0;
  /// Traced runs only, after the timed unit: per-call latency probes
  /// (replay, mutate, exec) that need the unit's results.
  virtual void probe(UnitResult& r) { (void)r; }
};

std::unique_ptr<Workload> make_paper_sim();
std::unique_ptr<Workload> make_mesh_sweep();
std::unique_ptr<Workload> make_check_grid();
std::unique_ptr<Workload> make_fuzz_farm();

// -- Simulated-run helpers (paper_sim, mesh_sweep) ---------------------------

/// The one place the benchmark picks how simulated cores execute: as fibers
/// on the calling thread. The default thread mode starts one OS thread per
/// simulated core and would measure the kernel scheduler, not the simulator.
void use_fibers(pmc::rt::ProgramOptions& opts);
void use_fibers(pmc::sim::Machine& m);

struct SimRun {
  uint64_t checksum = 0;
  uint64_t makespan = 0;
  double run_s = 0;  // host seconds inside Program::run
  pmc::sim::CoreStats stats;
  pmc::obs::MetricsRegistry metrics;
};

/// Runs `app` under spans sim.build (Program + App::build),
/// sim.run.<tag>/<app name> and sim.teardown, with fibers on. `inspect`, when set, sees the finished
/// Program before it is torn down.
SimRun run_app(pmc::apps::App& app, pmc::rt::ProgramOptions opts,
               const std::string& tag,
               const std::function<void(pmc::rt::Program&)>& inspect = {});

/// Counts one run as an attempted unit and one schedule, and folds its
/// machine counters into the sim/runtime per-layer counts
/// (sim.core_cycles, sim.makespan_cycles, and runtime.*.<backend> unless
/// `backend` is empty).
void add_run_counts(UnitResult& r, const SimRun& run,
                    const std::string& backend);
/// Adds the Fig. 8 time decomposition and D-cache figures of `s` under
/// sim.<bucket>_cycles.<backend>.
void add_decomposition(UnitResult& r, const pmc::sim::CoreStats& s,
                       const std::string& backend);
/// The NoC/port contention counts (sim.noc.*, sim.port.*) of `reg`, the
/// merged machine metrics of every run in the unit.
void add_contention(UnitResult& r, const pmc::obs::MetricsRegistry& reg);

/// Shuffles `v` by `seed` (Fisher-Yates): how workloads whose inputs are
/// fixed turn --seed into a run order.
template <typename T>
void permute(std::vector<T>& v, uint64_t seed) {
  pmc::util::Rng rng(seed);
  for (size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.next_below(i)]);
  }
}

/// Seconds of a closure, on the steady clock.
template <typename F>
double timed(F&& f) {
  const double t0 = now_s();
  f();
  return now_s() - t0;
}

}  // namespace perfbench
