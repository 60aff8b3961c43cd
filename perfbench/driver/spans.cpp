#include "driver/spans.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

double now_s() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

int Tracer::begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start = now_s();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::end(int id) {
  spans_[static_cast<size_t>(id)].end = now_s();
  // Spans nest strictly (RAII scopes); pop through `id` so an exception
  // unwinding several scopes leaves the stack consistent.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

std::map<std::string, double> Tracer::total_by_name(int run) const {
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    if (run < 0 || s.run == run) out[s.name] += s.end - s.start;
  }
  return out;
}

std::map<std::string, double> Tracer::self_by_name(int run) const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end - spans_[i].start;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.end - s.start;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (run < 0 || spans_[i].run == run) out[spans_[i].name] += self[i];
  }
  return out;
}

std::vector<double> Tracer::durations(const std::string& name, int run) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name && (run < 0 || s.run == run)) {
      out.push_back(s.end - s.start);
    }
  }
  return out;
}

bool Tracer::write_json(const std::string& path, const std::string& workload,
                        uint64_t seed) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"workload\":\"%s\",\"seed\":%llu,\"spans\":[",
               workload.c_str(), static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"start\":%.9f,"
                 "\"end\":%.9f,\"parent\":%d,\"run\":%d}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                 s.parent, s.run);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tracer& tracer() {
  static Tracer t;
  return t;
}

}  // namespace perfbench
