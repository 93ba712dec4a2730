#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_
/// \file metrics.h
/// \brief Quantiles and the result line shared by both client modes.

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace pb {

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
inline double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

/// \p s as a JSON string literal (control characters dropped).
inline std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Named metrics in insertion order, rendered as the benchmark's JSON.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    items_.push_back({name, value, unit});
  }
  std::string Json() const {
    std::string out = "{";
    for (size_t i = 0; i < items_.size(); ++i) {
      char cell[256];
      std::snprintf(cell, sizeof(cell),
                    "%s\"%s\":{\"value\":%.9g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", items_[i].name.c_str(), items_[i].value,
                    items_[i].unit.c_str());
      out += cell;
    }
    return out + "}";
  }

 private:
  struct Item {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Item> items_;
};

/// Prints the client's result line: the benchmark's four keys, the first
/// failed checks, and \p info_json (a JSON object of diagnostics).
inline void PrintResult(bool correct, size_t attempted, size_t failed,
                        const MetricSet& metrics,
                        const std::vector<std::string>& errors,
                        const std::string& info_json) {
  std::string error_json = "[";
  for (size_t i = 0; i < errors.size() && i < 20; ++i) {
    error_json += (i ? "," : "") + JsonString(errors[i]);
  }
  error_json += "]";
  std::printf(
      "{\"correct\":%s,\"attempted\":%zu,\"failed\":%zu,\"metrics\":%s,"
      "\"errors\":%s,\"info\":%s}\n",
      correct ? "true" : "false", attempted, failed, metrics.Json().c_str(),
      error_json.c_str(), info_json.c_str());
  std::fflush(stdout);
}

}  // namespace pb

#endif  // PERFBENCH_METRICS_H_
