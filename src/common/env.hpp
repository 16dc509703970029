// Environment-variable helpers: the library's runtime switches (the
// HCHAM_* tables in README.md) and the bench harness's workload scaling
// (e.g. HCHAM_BENCH_SCALE) read through these.
#pragma once

#include <cstdlib>
#include <string>

namespace hcham {

inline long env_long(const char* name, long fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  long parsed = std::strtol(v, &end, 10);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  double parsed = std::strtod(v, &end);
  return (end != nullptr && *end == '\0') ? parsed : fallback;
}

inline std::string env_string(const char* name, const std::string& fallback) {
  const char* v = std::getenv(name);
  return (v == nullptr || *v == '\0') ? fallback : std::string(v);
}

// Bounded variants for knobs with a meaningful domain (rank budgets, cache
// capacities, tolerances). A value outside [lo, hi] degrades to the
// fallback -- NOT a clamp: a hostile environment ("HCHAM_ACC_MAX_RANK=-4")
// should behave exactly like an unset one instead of pinning the knob to
// an extreme the defaults were never tuned for.

inline long env_long_bounded(const char* name, long fallback, long lo,
                             long hi) {
  const long v = env_long(name, fallback);
  return (v < lo || v > hi) ? fallback : v;
}

inline double env_double_bounded(const char* name, double fallback, double lo,
                                 double hi) {
  const double v = env_double(name, fallback);
  // NaN fails both comparisons and falls through to the fallback.
  return (v >= lo && v <= hi) ? v : fallback;
}

}  // namespace hcham
