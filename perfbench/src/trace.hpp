// In-memory span recorder for the traced run.
//
// The benchmark opens a Span around each call it makes into a layer's
// public API. Spans nest per thread: a span's parent is the innermost
// span open on the same thread when it started, and its self time is
// its duration minus the time its children cover. Per-name aggregates
// (count, total, self, p99) are kept for every span; the raw spans
// (id, parent, run id, thread, name, start, end) are kept in memory up
// to a cap and written out once, at exit.
//
// When tracing is disabled a Span costs one relaxed atomic load, so the
// untraced passes of a traced run and the untraced runs pay nothing
// measurable.
#pragma once

#include <cstdint>
#include <map>
#include <string>

namespace perfbench::trace {

void SetEnabled(bool on);
bool Enabled();
// Run id stamped on the raw spans recorded from now on (one per pass).
void SetRun(uint32_t run);

class Span {
 public:
  // `name` must outlive the recorder (a string literal).
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool open_ = false;
};

struct Stat {
  uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
  double p99_s = 0.0;  // from a log histogram, ~5% resolution
};

// Aggregates per span name over every thread since the process began.
std::map<std::string, Stat> Collect();
// Total duration of every span named `name` (0 if there was none).
double Total(const std::string& name);

// Writes the retained raw spans as tab-separated lines
// "id parent run thread name start_ns end_ns"; returns how many spans
// were recorded in total (retained or not).
uint64_t WriteSpans(const std::string& path);

}  // namespace perfbench::trace
