#include <algorithm>

#include "driver/workload.h"
#include "sim/scheduler.h"

namespace perfbench {

using namespace pmc;

void use_fibers(rt::ProgramOptions& opts) { opts.fiber_execution = true; }

void use_fibers(sim::Machine& m) {
  if (sim::Scheduler::fibers_supported()) m.enable_snapshots();
}

SimRun run_app(apps::App& app, rt::ProgramOptions opts,
               const std::string& tag,
               const std::function<void(rt::Program&)>& inspect) {
  app.tune(opts);
  use_fibers(opts);
  std::unique_ptr<rt::Program> prog;
  {
    Scope s("sim.build");
    prog = std::make_unique<rt::Program>(opts);
    app.build(*prog);
  }
  SimRun r;
  {
    Scope s("sim.run." + tag + "/" + app.name());
    r.run_s = timed([&] { prog->run([&](rt::Env& env) { app.body(env); }); });
  }
  r.checksum = app.checksum(*prog);
  r.stats = prog->stats_sum();
  for (int c = 0; c < prog->cores(); ++c) {
    r.makespan = std::max(r.makespan, prog->machine()->stats(c).cycles_total);
  }
  prog->machine()->export_metrics(r.metrics);
  if (inspect) inspect(*prog);
  {
    Scope s("sim.teardown");
    prog.reset();
  }
  return r;
}

void add_run_counts(UnitResult& r, const SimRun& run,
                    const std::string& backend) {
  r.det["sim.core_cycles"] += static_cast<double>(run.stats.cycles_total);
  r.det["sim.makespan_cycles"] += static_cast<double>(run.makespan);
  ++r.attempted;
  ++r.schedules;
  r.engine_s += run.run_s;
  if (backend.empty()) return;
  r.det["runtime.lines_flushed." + backend] +=
      static_cast<double>(run.stats.lines_flushed);
  r.det["runtime.writebacks." + backend] +=
      static_cast<double>(run.stats.writebacks);
  r.det["runtime.remote_writes." + backend] +=
      static_cast<double>(run.stats.remote_writes);
}

void add_decomposition(UnitResult& r, const sim::CoreStats& s,
                       const std::string& backend) {
  const std::pair<const char*, uint64_t> buckets[] = {
      {"busy", s.busy},
      {"stall_ifetch", s.stall_ifetch},
      {"stall_private_read", s.stall_private_read},
      {"stall_shared_read", s.stall_shared_read},
      {"stall_sync", s.stall_sync_read},
      {"stall_write", s.stall_write},
      {"stall_flush", s.stall_flush},
      {"idle", s.idle},
  };
  for (const auto& [name, cycles] : buckets) {
    r.det[std::string("sim.") + name + "_cycles." + backend] +=
        static_cast<double>(cycles);
  }
  const double hits = r.det["sim.dcache_hits." + backend] +=
      static_cast<double>(s.dcache_hits);
  const double misses = r.det["sim.dcache_misses." + backend] +=
      static_cast<double>(s.dcache_misses);
  r.det["sim.dcache_hit_ratio." + backend] =
      hits + misses == 0 ? 0 : hits / (hits + misses);
}

void add_contention(UnitResult& r, const obs::MetricsRegistry& reg) {
  r.det["sim.noc.packets"] = static_cast<double>(reg.counter("noc.packets"));
  r.det["sim.noc.link_stall_cycles"] =
      static_cast<double>(reg.counter("noc.link_stall_cycles"));
  r.det["sim.noc.stalled_packets"] =
      static_cast<double>(reg.counter("noc.stalled_packets"));
  r.det["sim.port.wait_cycles"] =
      static_cast<double>(reg.counter("port.wait_cycles"));
  const obs::Histogram* h = reg.histogram("port.sdram.wait");
  r.det["sim.port.sdram_wait_p99"] = h == nullptr ? 0 : h->quantile(0.99);
}

}  // namespace perfbench
