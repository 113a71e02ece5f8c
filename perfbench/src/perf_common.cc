#include "perf_common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perf {

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(
      std::min<double>(std::max<double>(rank, 1.0), values.size()) - 1);
  return values[index];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void MetricList::Add(const std::string& name, double value,
                     const std::string& unit) {
  entries_.push_back({name, {value, unit}});
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int64_t SpanRecorder::Add(const char* name, int64_t start_ns, int64_t end_ns,
                          int64_t parent, int64_t batch) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({name, start_ns, end_ns, parent, batch});
  return static_cast<int64_t>(spans_.size()) - 1;
}

int64_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return static_cast<int64_t>(spans_.size());
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"spans\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << JsonEscape(span.name)
        << "\", \"start_ns\": " << span.start_ns
        << ", \"end_ns\": " << span.end_ns << ", \"parent\": " << span.parent
        << ", \"batch\": " << span.batch << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perf
