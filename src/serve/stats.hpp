// Service observability: latency histogram, queue-depth gauge, and
// throughput/batch counters for the solver service, exported as JSON via
// the shared escaping helper. All mutators are internally synchronized so
// client threads and the batching thread can record concurrently.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/json.hpp"

namespace hcham::serve {

/// Fixed log2-bucketed latency histogram. Bucket i covers
/// [2^i, 2^(i+1)) microseconds; bucket 0 also absorbs sub-microsecond
/// samples. 28 buckets reach ~2^28 us (~4.5 min), far beyond any solve.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 28;

  void record(double seconds) {
    const double us = std::max(seconds * 1e6, 0.0);
    int b = us < 1.0 ? 0 : static_cast<int>(std::log2(us));
    b = std::clamp(b, 0, kBuckets - 1);
    counts_[static_cast<std::size_t>(b)] += 1;
    total_ += 1;
  }

  std::uint64_t total() const { return total_; }

  /// Latency (seconds) at quantile q in [0, 1], linearly interpolated
  /// inside the winning bucket. Returns 0 with no samples.
  double quantile(double q) const {
    if (total_ == 0) return 0.0;
    const double rank = q * static_cast<double>(total_);
    double seen = 0.0;
    for (int b = 0; b < kBuckets; ++b) {
      const double c = static_cast<double>(counts_[static_cast<std::size_t>(b)]);
      if (seen + c >= rank && c > 0.0) {
        const double lo = b == 0 ? 0.0 : std::ldexp(1.0, b);
        const double hi = std::ldexp(1.0, b + 1);
        const double frac = std::clamp((rank - seen) / c, 0.0, 1.0);
        return (lo + frac * (hi - lo)) * 1e-6;
      }
      seen += c;
    }
    return std::ldexp(1.0, kBuckets) * 1e-6;
  }

 private:
  std::uint64_t counts_[kBuckets] = {};
  std::uint64_t total_ = 0;
};

/// Point-in-time copy of every service counter, safe to read while the
/// service keeps running.
struct StatsSnapshot {
  std::uint64_t submitted = 0;      ///< requests accepted into the queue
  std::uint64_t rejected = 0;       ///< backpressure: queue-full rejections
  std::uint64_t timed_out = 0;      ///< expired before a batch picked them up
  std::uint64_t failed = 0;         ///< solver error propagated to the client
  std::uint64_t completed = 0;      ///< successful replies
  std::uint64_t batches = 0;        ///< multi-RHS solves executed
  std::uint64_t solved_columns = 0; ///< total RHS columns across batches
  index_t queue_depth = 0;          ///< gauge: depth at the last sample point
  index_t queue_peak = 0;           ///< max depth over ALL sample points
  /// Graph-cache activity on the session engine (epochs captured into /
  /// replayed from the structure-keyed cache; see DESIGN.md section 10).
  std::uint64_t graph_captured = 0;
  std::uint64_t graph_replayed = 0;
  /// Session-cache activity when the service fronts a lifecycle
  /// SessionCache (DESIGN.md section 12); all zero otherwise.
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_spills = 0;
  double p50_s = 0.0;
  double p95_s = 0.0;
  double p99_s = 0.0;

  double mean_batch_cols() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(solved_columns) /
                              static_cast<double>(batches);
  }
};

/// Mutex-guarded counter hub; one per SolverService.
class ServiceStats {
 public:
  void on_submit() {
    std::lock_guard<std::mutex> lk(mu_);
    ++submitted_;
  }
  void on_reject() {
    std::lock_guard<std::mutex> lk(mu_);
    ++rejected_;
  }
  void on_timeout() {
    std::lock_guard<std::mutex> lk(mu_);
    ++timed_out_;
  }
  void on_failed() {
    std::lock_guard<std::mutex> lk(mu_);
    ++failed_;
  }
  void on_completed(double latency_s) {
    std::lock_guard<std::mutex> lk(mu_);
    ++completed_;
    hist_.record(latency_s);
  }
  void on_batch(index_t cols) {
    std::lock_guard<std::mutex> lk(mu_);
    ++batches_;
    solved_columns_ += static_cast<std::uint64_t>(cols);
  }
  /// Queue-depth gauge. Sampled by the service on every push, every
  /// rejection, and every batch pop — the peak therefore sees the queue at
  /// its fullest (right after a push / at the full-queue rejection), not
  /// only at the post-pop trough as in earlier revisions.
  void queue_depth(index_t depth) {
    std::lock_guard<std::mutex> lk(mu_);
    depth_ = depth;
    peak_ = std::max(peak_, depth);
  }
  /// Fold the session engine's graph-cache tallies into this hub so plain
  /// snapshot() carries them (they used to be patched onto the snapshot by
  /// SolverService::stats() only, leaving snapshot() asymmetric).
  void record_graph(std::uint64_t captured, std::uint64_t replayed) {
    std::lock_guard<std::mutex> lk(mu_);
    graph_captured_ = captured;
    graph_replayed_ = replayed;
  }
  /// Fold session-cache tallies in (same pattern as record_graph: the
  /// owner re-records the current totals before snapshotting).
  void record_cache(std::uint64_t hits, std::uint64_t misses,
                    std::uint64_t evictions, std::uint64_t spills) {
    std::lock_guard<std::mutex> lk(mu_);
    cache_hits_ = hits;
    cache_misses_ = misses;
    cache_evictions_ = evictions;
    cache_spills_ = spills;
  }

  StatsSnapshot snapshot() const {
    std::lock_guard<std::mutex> lk(mu_);
    StatsSnapshot s;
    s.submitted = submitted_;
    s.rejected = rejected_;
    s.timed_out = timed_out_;
    s.failed = failed_;
    s.completed = completed_;
    s.batches = batches_;
    s.solved_columns = solved_columns_;
    s.queue_depth = depth_;
    s.queue_peak = peak_;
    s.graph_captured = graph_captured_;
    s.graph_replayed = graph_replayed_;
    s.cache_hits = cache_hits_;
    s.cache_misses = cache_misses_;
    s.cache_evictions = cache_evictions_;
    s.cache_spills = cache_spills_;
    s.p50_s = hist_.quantile(0.50);
    s.p95_s = hist_.quantile(0.95);
    s.p99_s = hist_.quantile(0.99);
    return s;
  }

 private:
  mutable std::mutex mu_;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t batches_ = 0;
  std::uint64_t solved_columns_ = 0;
  index_t depth_ = 0;
  index_t peak_ = 0;
  std::uint64_t graph_captured_ = 0;
  std::uint64_t graph_replayed_ = 0;
  std::uint64_t cache_hits_ = 0;
  std::uint64_t cache_misses_ = 0;
  std::uint64_t cache_evictions_ = 0;
  std::uint64_t cache_spills_ = 0;
  LatencyHistogram hist_;
};

/// JSON export (one object; keys are stable for EXPERIMENTS.md tooling).
inline std::string to_json(const StatsSnapshot& s) {
  std::ostringstream os;
  os << "{\"submitted\":" << s.submitted << ",\"rejected\":" << s.rejected
     << ",\"timed_out\":" << s.timed_out << ",\"failed\":" << s.failed
     << ",\"completed\":" << s.completed << ",\"batches\":" << s.batches
     << ",\"solved_columns\":" << s.solved_columns
     << ",\"mean_batch_cols\":" << s.mean_batch_cols()
     << ",\"queue\":{\"depth\":" << s.queue_depth
     << ",\"peak\":" << s.queue_peak << "}"
     << ",\"graph\":{\"captured\":" << s.graph_captured
     << ",\"replayed\":" << s.graph_replayed << "}"
     << ",\"cache\":{\"hits\":" << s.cache_hits
     << ",\"misses\":" << s.cache_misses
     << ",\"evictions\":" << s.cache_evictions
     << ",\"spills\":" << s.cache_spills << "}"
     << ",\"latency_s\":{\"p50\":" << s.p50_s << ",\"p95\":" << s.p95_s
     << ",\"p99\":" << s.p99_s << "}}";
  return os.str();
}

}  // namespace hcham::serve
