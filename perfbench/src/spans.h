// In-memory span recorder for the traced run.
//
// A span is one timed call into a layer: its name ("<layer>.<call>", e.g.
// "core.partitioner.partition"), start and end on the steady clock, and
// the span that was open when it began. Spans are kept in memory while the
// benchmark runs and written once at the end, so recording costs two clock
// reads and a vector append. A span's self time is its duration minus the
// part of its interval covered by its children; the root span's self time
// is the run's unattributed time.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  int parent = -1;  // index into the recorder's spans; -1 for a root
  double start = 0; // seconds since the recorder was created
  double end = 0;
};

class SpanRecorder {
 public:
  SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

  // Opens a span under the innermost open span and returns its index.
  int open(std::string name);
  // Closes span `id`, which must be the innermost open span.
  void close(int id);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::chrono::steady_clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// RAII span; a null recorder makes it a no-op (the untraced runs).
class SpanScope {
 public:
  SpanScope(SpanRecorder* rec, std::string name)
      : rec_(rec), id_(rec ? rec->open(std::move(name)) : -1) {}
  ~SpanScope() {
    if (rec_) rec_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  int id_;
};

// Per-span self time: duration minus the union of its children's intervals
// clipped to its own.
std::vector<double> selfTimes(const std::vector<Span>& spans);

// The layer a span belongs to: its name without the last dotted component
// ("core.partitioner.partition" -> "core.partitioner"); a name without a dot
// is its own layer.
std::string layerOf(const std::string& spanName);

// Self time summed per layer over every span except `root`, plus the root's
// own self time under the key "unattributed".
std::map<std::string, double> layerSelfTimes(const std::vector<Span>& spans, int root);

// Sum of durations of the spans named `name`.
double totalDuration(const std::vector<Span>& spans, const std::string& name);

}  // namespace perfbench
