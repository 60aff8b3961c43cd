#include "explore/diff_check.h"

#include "util/check.h"

namespace pmc::explore {

DiffCheck::DiffCheck(GenProgram prog, rt::FaultInjection faults)
    : prog_(std::move(prog)), faults_(faults) {
  PMC_CHECK_MSG(!prog_.threads.empty() &&
                    static_cast<int>(prog_.threads.size()) == prog_.shape.cores,
                "program thread count must match its shape");
}

std::unique_ptr<CheckTarget> DiffCheck::target(rt::Target t) const {
  return std::make_unique<GenProgramTarget>(prog_, t, faults_);
}

DiffReport DiffCheck::check(const ExploreConfig& cfg, int jobs,
                            const std::vector<rt::Target>& targets) const {
  return check(SessionOptions{cfg, jobs}, targets);
}

DiffReport DiffCheck::check(const SessionOptions& opts,
                            const std::vector<rt::Target>& targets) const {
  const CheckSession session(opts);
  DiffReport rep;
  for (rt::Target t : targets) {
    const GenProgramTarget gt(prog_, t, faults_);
    if (rep.failure.has_value()) {
      // The report carries one failure (the first back-end's); later
      // back-ends still contribute their totals, but their failures are
      // not minimized.
      const ExploreReport r = session.explore(gt);
      rep.explored += r.explored;
      rep.pruned += r.pruned;
      rep.distinct_traces += r.distinct_traces;
      rep.truncated = rep.truncated || r.truncated;
      continue;
    }
    const CheckReport cr = session.check(gt);
    rep.explored += cr.explored;
    rep.pruned += cr.pruned;
    rep.distinct_traces += cr.distinct_traces;
    rep.truncated = rep.truncated || cr.truncated;
    if (cr.ok) continue;

    rep.ok = false;
    DiffFailure f;
    f.target = t;
    f.schedule = cr.minimized_schedule;
    f.message = cr.minimized_message;
    // The repro line's replay string must hold on the *original* program —
    // the only one the CLI can regenerate from the seed — which is exactly
    // the session's repro_schedule.
    f.repro = repro_line(prog_.shape, t, cr.repro_schedule, faults_);
    const auto* shrunk =
        dynamic_cast<const GenProgramTarget*>(cr.minimized_target.get());
    f.program = shrunk != nullptr ? shrunk->program() : prog_;
    rep.failure = std::move(f);
  }
  return rep;
}

std::string repro_line(const ProgramShape& shape, rt::Target target,
                       const DecisionString& schedule,
                       const rt::FaultInjection& faults) {
  // `-R DiffFuzz` matches both the parameterized seed sweep
  // (explore/Seeds/DiffFuzzSeeds.*/N) and the fixed DiffFuzz self-tests.
  // The widened PMC_FUZZ_SEEDS takes effect at ctest's PRE_TEST discovery
  // (tests/CMakeLists.txt), i.e. on the first ctest run after a (re)build —
  // `touch` the test binary to force re-enumeration in an already-run tree.
  // The `replay:` half reproduces the exact schedule either way. The ctest
  // half only holds for the canonical per-seed shape the suites generate;
  // for overridden shapes only the replay command reproduces the program.
  std::string s = "repro: ";
  if (shape == shape_for_seed(shape.seed)) {
    s += "PMC_FUZZ_SEEDS=" + std::to_string(shape.seed + 1) +
         " ctest -R DiffFuzz --output-on-failure ; replay: ";
  } else {
    s += "(non-canonical shape, not in the ctest sweep) ";
  }
  s += "explore_litmus --fuzz-seed=" + std::to_string(shape.seed);
  s += " --fuzz-cores=" + std::to_string(shape.cores);
  s += " --fuzz-objects=" + std::to_string(shape.objects);
  s += " --fuzz-steps=" + std::to_string(shape.steps);
  s += " --backend=" + std::string(rt::to_string(target));
  if (faults.any()) {
    s += " --seed-bug";
  }
  s += " --replay=" + to_string(schedule);
  return s;
}

}  // namespace pmc::explore
