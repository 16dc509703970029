// Pure helpers of the benchmark: order statistics, per-epoch busy /
// idle accounting from the engine's trace, and the one-line JSON result.
// Header-only and free of workload code so tests/test_metrics.cpp can pin
// them down on hand-built task graphs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "runtime/types.hpp"

namespace perfbench {

/// Quantile q in [0, 1] of `v`, linearly interpolated between order
/// statistics (q = 0.5 is the median). Requires a non-empty sample.
inline double percentile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) {
  return percentile(v, 0.5);
}

/// Where the workers' time went during one epoch of `window_s` wall
/// seconds. Busy time is the union of each worker's top-level task
/// intervals, so a worker is never counted twice for one instant. Nested
/// sub-epoch work is inside its owner task's interval; helpers that steal
/// nested tasks are idle at top level and add nothing, so their time is
/// not counted on top of the owner's.
struct EpochAccounting {
  double busy_s = 0.0;  ///< sum over workers of merged busy intervals
  double idle_s = 0.0;  ///< workers * window_s - busy_s
  double busy_frac = 0.0;
};

/// Accounting over the trace events whose task id is >= first_task.
inline EpochAccounting account_epoch(
    const std::vector<hcham::rt::TraceEvent>& trace,
    hcham::rt::TaskId first_task, int workers, double window_s) {
  std::map<int, std::vector<std::pair<double, double>>> per_worker;
  for (const hcham::rt::TraceEvent& e : trace)
    if (e.task >= first_task)
      per_worker[e.worker].emplace_back(e.start_s, e.end_s);
  EpochAccounting acc;
  for (auto& [worker, spans] : per_worker) {
    std::sort(spans.begin(), spans.end());
    double open = spans.front().first;
    double close = spans.front().second;
    for (const auto& [s, e] : spans) {
      if (s > close) {
        acc.busy_s += close - open;
        open = s;
      }
      close = std::max(close, e);
    }
    acc.busy_s += close - open;
  }
  const double capacity = static_cast<double>(workers) * window_s;
  acc.idle_s = capacity - acc.busy_s;
  acc.busy_frac = capacity > 0.0 ? acc.busy_s / capacity : 0.0;
  return acc;
}

/// Measured task time summed per task label.
inline std::map<std::string, double> busy_by_label(
    const hcham::rt::TaskGraph& g) {
  std::map<std::string, double> out;
  for (const auto& n : g.nodes) out[n.label] += n.duration_s;
  return out;
}

/// Share of the wall time the measured critical path accounts for (1 means
/// the epoch ran exactly as long as its longest dependency chain).
inline double critical_path_fraction(const hcham::rt::TaskGraph& g,
                                     double wall_s) {
  return wall_s > 0.0 ? g.critical_path_s() / wall_s : 0.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The result line: {"correct", "attempted", "failed", "metrics"}. Values
/// are printed with all 17 significant digits.
inline std::string result_json(bool correct, long attempted, long failed,
                               const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return out + "}}";
}

}  // namespace perfbench
