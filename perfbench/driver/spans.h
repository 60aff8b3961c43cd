// In-memory span recorder for the benchmark's traced runs.
//
// A span is one timed call into a layer of the system (name, start, end,
// parent span, workload-run id). Spans are kept in memory while the run
// measures and written out only when it ends, so recording costs a clock
// read and a vector push. Self time is span time minus the time of its
// direct children; the root span of each timed unit is the benchmark's own
// glue, so its self time is exactly the share no layer span covers.
//
// Spans are opened and closed on the calling thread only; the layers' own
// worker threads (CheckSession jobs, farm jobs) run inside one span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now_s();

struct Span {
  std::string name;
  double start = 0;
  double end = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int run = 0;      // workload-run (unit repetition) id
};

class Tracer {
 public:
  /// Off: begin()/end() record nothing (the untraced runs).
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }
  void set_run(int run) { run_ = run; }

  int begin(const std::string& name);
  void end(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per-name totals over the spans of run `run` (-1: every run).
  std::map<std::string, double> total_by_name(int run = -1) const;
  std::map<std::string, double> self_by_name(int run = -1) const;
  /// Every span duration of `name` in run `run` (-1: every run), in order.
  std::vector<double> durations(const std::string& name, int run = -1) const;

  /// Writes every span as one JSON document; false on an I/O error.
  bool write_json(const std::string& path, const std::string& workload,
                  uint64_t seed) const;

 private:
  bool enabled_ = false;
  int run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// The process-wide recorder the workloads report into.
Tracer& tracer();

/// RAII span on tracer(); a no-op while tracing is off.
class Scope {
 public:
  explicit Scope(const std::string& name)
      : id_(tracer().enabled() ? tracer().begin(name) : -1) {}
  ~Scope() {
    if (id_ >= 0) tracer().end(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  int id_;
};

}  // namespace perfbench
