// What one run reports: the correctness verdict, operations attempted and
// failed, end-to-end and per-layer metrics, and run metadata.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  /// Free-form numbers printed with the metadata (generator lateness per
  /// phase, sample counts, layouts picked).
  std::map<std::string, double> notes;
  std::vector<std::string> problems;  ///< why `correct` is false

  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  void e2e(const std::string& name, double v, const std::string& unit) {
    end_to_end[name] = {v, unit};
  }
  void layer(const std::string& name, double v, const std::string& unit) {
    per_layer[name] = {v, unit};
  }
  void count(std::int64_t attempted_ops, std::int64_t failed_ops) {
    attempted += attempted_ops;
    failed += failed_ops;
  }
};

}  // namespace perfbench
