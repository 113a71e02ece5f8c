// Shared plumbing of the serving benchmark: the steady clock, percentiles,
// the ordered metric list printed as the result line, and the in-memory
// span recorder of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perf {

// Nanoseconds on the steady clock. Every rate and duration the benchmark
// reports comes from this clock (never CPU time).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nearest-rank percentile of `values` (q in [0, 1]); 0 for an empty input.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

// Peak resident set size of this process, in MiB (getrusage).
double PeakRssMb();

// The metrics of one run, in the order they were added. Units are part of
// the name contract (BENCHMARK.json) and are printed next to each value.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
  entries() const {
    return entries_;
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      entries_;
};

// Minimal JSON string escaping for names and messages.
std::string JsonEscape(const std::string& text);
// A double with full precision (17 significant digits), or null for a
// non-finite value.
std::string JsonNumber(double value);

// Spans around the benchmark's calls into the library, kept in memory and
// written out when the run ends. A span has a name, start and end on the
// steady clock, the id of the span that caused it (-1 for none), and the
// id of the batch it belongs to (-1 for none). Disabled recorders cost one
// branch per call.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  // Records a finished span and returns its id (-1 when disabled).
  int64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
              int64_t parent, int64_t batch);

  int64_t size() const;

  // Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;
    int64_t batch;
  };

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perf
