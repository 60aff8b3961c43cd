// perfbench_driver: one run of one benchmark workload.
//
//   perfbench_driver --workload paper_sim|mesh_sweep|check_grid|fuzz_farm
//                    --seed N --seconds S --trace 0|1 [--root DIR]
//                    [--spans-out PATH] [--det-out PATH]
//                    [--small] [--jobs N] [--faults]
//   perfbench_driver --list-metrics
//
// The workload's set-up is timed in batches (setup_s is the median batch's
// time per set-up), then its fixed unit of work repeats while the next
// repetition still fits in --seconds (at least once; the median unit is
// wall_s). With --trace 1 every repetition records spans and the per-layer
// metrics are the medians over repetitions; trace_overhead_pct is the
// unit's span count times the calibrated cost of one span, as a share of
// the unit's wall time. The last line of stdout is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "driver/spans.h"
#include "driver/workload.h"
#include "explore/litmus_driver.h"
#include "runtime/program.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  std::string unit;
  bool det = false;  // deterministic count: identical on every repetition
};

const std::vector<std::string> kSimTags = {"nocc",   "swcc",    "dsm",
                                           "spm",    "mesh64",  "mesh128",
                                           "mesh256"};

std::vector<MetricDef> end_to_end_catalogue() {
  return {{"setup_s", "s"},
          {"wall_s", "s"},
          {"peak_rss_mb", "MB"},
          {"schedules_per_s", "1/s"}};
}

std::vector<MetricDef> per_layer_catalogue() {
  std::vector<MetricDef> m;
  const auto add = [&](std::string name, const char* unit, bool det) {
    m.push_back({std::move(name), unit, det});
  };
  // sim
  add("sim.build_s", "s", false);
  add("sim.run_s", "s", false);
  for (const auto& tag : kSimTags) add("sim.run_s." + tag, "s", false);
  add("sim.core_cycles", "cycles", true);
  add("sim.makespan_cycles", "cycles", true);
  add("sim.host_ns_per_core_cycle", "ns", false);
  for (const char* b : {"nocc", "swcc"}) {
    for (const char* bucket :
         {"busy", "stall_ifetch", "stall_private_read", "stall_shared_read",
          "stall_sync", "stall_write", "stall_flush", "idle"}) {
      add(std::string("sim.") + bucket + "_cycles." + b, "cycles", true);
    }
    add(std::string("sim.dcache_hits.") + b, "count", true);
    add(std::string("sim.dcache_misses.") + b, "count", true);
    add(std::string("sim.dcache_hit_ratio.") + b, "ratio", true);
  }
  add("sim.noc.packets", "count", true);
  add("sim.noc.link_stall_cycles", "cycles", true);
  add("sim.noc.stalled_packets", "count", true);
  add("sim.port.wait_cycles", "cycles", true);
  add("sim.port.sdram_wait_p99", "cycles", true);
  // sync
  for (const char* lock : {"spin", "dist"}) {
    add(std::string("sync.atomics.") + lock, "count", true);
    add(std::string("sync.round_cycles.") + lock, "cycles", true);
  }
  // runtime
  for (const char* what : {"lines_flushed", "writebacks", "remote_writes"}) {
    for (const char* b : {"nocc", "swcc", "dsm", "spm"}) {
      add(std::string("runtime.") + what + "." + b, "count", true);
    }
  }
  // apps
  for (const char* k : {"radiosity", "raytrace", "volrend"}) {
    add(std::string("apps.swcc_gain_pct.") + k, "%", true);
    add(std::string("apps.flush_pct.") + k, "%", true);
  }
  add("apps.util_pct.radiosity.nocc", "%", true);
  add("apps.util_pct.radiosity.swcc", "%", true);
  add("fig8_error_pp", "pp", true);
  add("fig8_flush_error_pp", "pp", true);
  for (const char* b : {"dsm", "swcc", "nocc"}) {
    add(std::string("apps.fifo_cycles_per_item.") + b, "cycles", true);
  }
  for (const char* b : {"spm", "swcc", "nocc"}) {
    for (const char* cfg : {"b8s4", "b8s8", "b12s8"}) {
      add(std::string("apps.motion_makespan.") + b + "." + cfg, "cycles",
          true);
    }
  }
  // model
  add("model.oracle_s", "s", false);
  for (const auto& test : pmc::explore::annotatable_tests()) {
    add("model.oracle_s." + test.name, "s", false);
  }
  add("model.oracle_paths", "count", true);
  add("model.oracle_paths_per_s", "1/s", false);
  // explore
  add("explore.check_s", "s", false);
  for (const pmc::rt::Target t : pmc::rt::sim_targets()) {
    add(std::string("explore.check_s.") + pmc::rt::to_string(t), "s", false);
  }
  add("explore.explored", "count", true);
  add("explore.pruned", "count", true);
  add("explore.distinct_traces", "count", true);
  add("explore.snapshots_taken", "count", false);
  add("explore.snapshot_hit_ratio", "ratio", false);
  add("explore.steals_total", "count", false);
  add("explore.replay_ms_p50", "ms", false);
  add("explore.replay_ms_p75", "ms", false);
  // fuzz
  add("fuzz.run_s", "s", false);
  for (const char* c :
       {"execs", "total_classes", "corpus_size", "schedules", "dpor_pruned"}) {
    add(std::string("fuzz.") + c, "count", true);
  }
  add("fuzz.classes_per_exec", "ratio", true);
  add("fuzz.classes_per_s", "1/s", false);
  add("fuzz.dpor_ratio", "ratio", true);
  add("fuzz.mutate_us_p50", "us", false);
  add("fuzz.mutate_us_p99", "us", false);
  add("fuzz.exec_ms_p50", "ms", false);
  add("fuzz.exec_ms_p99", "ms", false);
  // the benchmark itself
  add("trace_overhead_pct", "%", false);
  add("bench.glue_pct", "%", false);
  add("bench.fail_frac", "ratio", false);
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated quantile (q in [0, 1]).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Host seconds one recorded span costs (two clock reads, a name copy and a
/// vector push), timed over a tight loop on a private tracer: the median of
/// kCalibrations batches of kCalibrationSpans spans.
double span_cost_s() {
  constexpr int kCalibrations = 5;
  constexpr int kCalibrationSpans = 20000;
  const std::string name = "explore.check.swcc";  // a typical span name
  std::vector<double> costs;
  for (int c = 0; c < kCalibrations; ++c) {
    Tracer t;
    t.set_enabled(true);
    const double t0 = now_s();
    for (int i = 0; i < kCalibrationSpans; ++i) t.end(t.begin(name));
    costs.push_back((now_s() - t0) / kCalibrationSpans);
  }
  return median(costs);
}

/// The per-layer values of traced repetition `run`: span timings, derived
/// rates, the unit's own counts, and the tracing overhead of `unit_spans`
/// spans in a unit of `wall` seconds.
std::map<std::string, double> layer_values(const UnitResult& u, int run,
                                           size_t unit_spans, double wall,
                                           double span_cost) {
  const Tracer& tr = tracer();
  const auto total = tr.total_by_name(run);
  const auto self = tr.self_by_name(run);
  const auto get = [](const std::map<std::string, double>& m,
                      const std::string& k) {
    const auto it = m.find(k);
    return it == m.end() ? 0.0 : it->second;
  };
  std::map<std::string, double> v = u.det;
  for (const auto& [k, x] : u.layer) v[k] = x;
  v["sim.build_s"] = get(total, "sim.build");
  for (const auto& [name, secs] : total) {
    if (name.rfind("sim.run.", 0) == 0) {  // sim.run.<tag>/<what>
      v["sim.run_s." + name.substr(8, name.find('/') - 8)] += secs;
      v["sim.run_s"] += secs;
    } else if (name.rfind("model.oracle.", 0) == 0) {
      v["model.oracle_s." + name.substr(13)] = secs;
      v["model.oracle_s"] += secs;
    } else if (name.rfind("explore.check.", 0) == 0) {
      v["explore.check_s." + name.substr(14)] = secs;
      v["explore.check_s"] += secs;
    }
  }
  const double core_cycles = get(u.det, "sim.core_cycles");
  v["sim.host_ns_per_core_cycle"] =
      core_cycles == 0 ? 0 : v["sim.run_s"] * 1e9 / core_cycles;
  if (v["model.oracle_s"] > 0) {
    v["model.oracle_paths_per_s"] =
        get(u.det, "model.oracle_paths") / v["model.oracle_s"];
  }
  v["fuzz.run_s"] = get(total, "fuzz.run");
  if (v["fuzz.run_s"] > 0) {
    v["fuzz.classes_per_s"] = static_cast<double>(u.classes) / v["fuzz.run_s"];
  }
  const double unit_s = get(total, "unit");
  v["bench.glue_pct"] = unit_s == 0 ? 0 : 100.0 * get(self, "unit") / unit_s;
  v["trace_overhead_pct"] =
      wall == 0 ? 0
                : 100.0 * static_cast<double>(unit_spans) * span_cost / wall;
  v["bench.fail_frac"] =
      u.attempted == 0 ? 0
                       : static_cast<double>(u.failed) /
                             static_cast<double>(u.attempted);
  // Probe latencies (outside the timed unit).
  const auto scaled = [&](const char* span, double scale) {
    std::vector<double> d = tr.durations(span, run);
    for (double& x : d) x *= scale;
    return d;
  };
  const auto replay = scaled("explore.replay", 1e3);
  v["explore.replay_ms_p50"] = quantile(replay, 0.50);
  v["explore.replay_ms_p75"] = quantile(replay, 0.75);
  const auto mutate = scaled("fuzz.mutate", 1e6);
  v["fuzz.mutate_us_p50"] = quantile(mutate, 0.50);
  v["fuzz.mutate_us_p99"] = quantile(mutate, 0.99);
  const auto exec = scaled("fuzz.exec", 1e3);
  v["fuzz.exec_ms_p50"] = quantile(exec, 0.50);
  v["fuzz.exec_ms_p99"] = quantile(exec, 0.99);
  return v;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "paper_sim") return make_paper_sim();
  if (name == "mesh_sweep") return make_mesh_sweep();
  if (name == "check_grid") return make_check_grid();
  if (name == "fuzz_farm") return make_fuzz_farm();
  return nullptr;
}

const char* arg_value(int argc, char** argv, const char* name,
                      const char* def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return def;
}

bool arg_flag(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

void print_catalogue() {
  const auto dump = [](const std::vector<MetricDef>& defs) {
    for (size_t i = 0; i < defs.size(); ++i) {
      std::printf("%s\n    {\"name\": \"%s\", \"unit\": \"%s\"%s}",
                  i == 0 ? "" : ",", defs[i].name.c_str(),
                  defs[i].unit.c_str(), defs[i].det ? ", \"det\": true" : "");
    }
  };
  std::printf("{\"end_to_end\": [");
  dump(end_to_end_catalogue());
  std::printf("],\n\"per_layer\": [");
  dump(per_layer_catalogue());
  std::printf("]}\n");
}

/// setup_s samples, each kSetupSampleSpan seconds of back-to-back set-ups.
constexpr int kSetupSamples = 21;
constexpr double kSetupSampleSpan = 0.005;

int run(int argc, char** argv) {
  if (arg_flag(argc, argv, "--list-metrics")) {
    print_catalogue();
    return 0;
  }
  const std::string workload = arg_value(argc, argv, "--workload", "");
  Options opts;
  opts.seed = std::strtoull(arg_value(argc, argv, "--seed", "1"), nullptr, 10);
  opts.root = arg_value(argc, argv, "--root", ".");
  opts.small = arg_flag(argc, argv, "--small");
  opts.jobs = std::atoi(arg_value(argc, argv, "--jobs", "2"));
  opts.faults = arg_flag(argc, argv, "--faults");
  const double seconds = std::atof(arg_value(argc, argv, "--seconds", "10"));
  const bool trace = std::atoi(arg_value(argc, argv, "--trace", "0")) != 0;
  const char* spans_out = arg_value(argc, argv, "--spans-out", nullptr);
  const char* det_out = arg_value(argc, argv, "--det-out", nullptr);
  if (!make_workload(workload) || opts.jobs < 1 || seconds <= 0) {
    std::fprintf(stderr, "usage: perfbench_driver --workload "
                 "paper_sim|mesh_sweep|check_grid|fuzz_farm --seed N "
                 "--seconds S --trace 0|1\n");
    return 2;
  }

  // Set-up, timed in batches: a sample sets up fresh instances back to back
  // for kSetupSampleSpan seconds and divides by their count, so a sample
  // spans milliseconds even where one set-up takes a microsecond.
  std::vector<double> setups;
  for (int k = 0; k < kSetupSamples; ++k) {
    size_t n = 0;
    double elapsed = 0;
    const double t0 = now_s();
    do {
      make_workload(workload)->setup(opts);
      ++n;
      elapsed = now_s() - t0;
    } while (elapsed < kSetupSampleSpan);
    setups.push_back(elapsed / static_cast<double>(n));
  }
  const std::unique_ptr<Workload> w = make_workload(workload);
  w->setup(opts);

  const double span_cost = trace ? span_cost_s() : 0;
  tracer().set_enabled(trace);
  const double start = now_s();
  std::vector<double> walls;
  std::vector<double> rates;
  std::vector<std::map<std::string, double>> traced_values;
  std::map<std::string, double> first_det;  // before the first probe
  UnitResult first;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool deterministic = true;
  for (int rep = 0;; ++rep) {
    tracer().set_run(rep);
    const size_t spans_before = tracer().spans().size();
    UnitResult u;
    const double t0 = now_s();
    {
      Scope s("unit");
      u = w->run_unit();
    }
    const double wall = now_s() - t0;
    const size_t unit_spans = tracer().spans().size() - spans_before;
    // Deterministic counts of the unit itself (the probe adds its own).
    if (rep == 0) {
      first_det = u.det;
    } else if (u.det != first_det) {
      deterministic = false;
      std::fprintf(stderr, "FAIL %s: deterministic counts changed between "
                   "repetitions of one input\n", workload.c_str());
    }
    walls.push_back(wall);
    if (trace) {
      {
        Scope s("probe");
        w->probe(u);
      }
      traced_values.push_back(
          layer_values(u, rep, unit_spans, wall, span_cost));
    } else {
      rates.push_back(u.engine_s > 0 ? static_cast<double>(u.schedules) /
                                           u.engine_s
                                     : 0.0);
    }
    attempted += u.attempted;
    failed += u.failed;
    for (const std::string& f : u.failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", workload.c_str(), f.c_str());
    }
    if (rep == 0) first = std::move(u);
    if (now_s() - start + median(walls) > seconds) break;
  }
  tracer().set_enabled(false);

  if (trace && spans_out != nullptr &&
      !tracer().write_json(spans_out, workload, opts.seed)) {
    std::fprintf(stderr, "cannot write %s\n", spans_out);
    return 1;
  }

  std::map<std::string, std::pair<double, std::string>> out;
  if (!trace) {
    out["setup_s"] = {median(setups), "s"};
    out["wall_s"] = {median(walls), "s"};
    out["peak_rss_mb"] = {peak_rss_mb(), "MB"};
    out["schedules_per_s"] = {median(rates), "1/s"};
  } else {
    for (const MetricDef& d : per_layer_catalogue()) {
      std::vector<double> xs;
      for (const auto& v : traced_values) {
        const auto it = v.find(d.name);
        xs.push_back(it == v.end() ? 0.0 : it->second);
      }
      out[d.name] = {median(xs), d.unit};
    }
  }
  if (det_out != nullptr) {
    // With --trace 1 the first unit also carries the probe's counts.
    const UnitResult& u = first;
    std::FILE* f = std::fopen(det_out, "w");
    if (f == nullptr) return 1;
    for (const auto& [k, x] : u.det) std::fprintf(f, "%s %.17g\n", k.c_str(), x);
    std::fprintf(f, "attempted %llu\nfailed %llu\n",
                 static_cast<unsigned long long>(u.attempted),
                 static_cast<unsigned long long>(u.failed));
    std::fclose(f);
  }

  std::printf("%s seed=%llu reps=%zu%s\n", workload.c_str(),
              static_cast<unsigned long long>(opts.seed), walls.size(),
              trace ? " (traced)" : "");
  std::printf("  unit walls (s):");
  for (const double x : walls) std::printf(" %.3f", x);
  std::printf("\n");
  for (const auto& [name, vu] : out) {
    std::printf("  %-40s %16.6g %s\n", name.c_str(), vu.first,
                vu.second.c_str());
  }
  std::printf("  attempted %llu, failed %llu (fail_frac %.6g)\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              attempted == 0 ? 0.0
                             : static_cast<double>(failed) /
                                   static_cast<double>(attempted));
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              failed == 0 && deterministic ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  bool comma = false;
  for (const auto& [name, vu] : out) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                comma ? ", " : "", name.c_str(), vu.first, vu.second.c_str());
    comma = true;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
