// Symbolic task-graph capture & replay: the DAG-compilation layer of the
// engine (DESIGN.md section 10).
//
// The STF engine infers the identical dependency graph every time a solve
// or factorization epoch runs, even though the graph is a function of the
// block structure alone (Börm/Christophersen/Kriemann, PAPERS.md). Every
// epoch is dispatched from a CapturedGraph: a live epoch is frozen into one
// at wait_all() entry, and capturing means keeping it — closure slots,
// collapsed access lists, inferred edges in CSR form, and measured
// durations — so later epochs with the same structure re-bind closures
// into it and dispatch directly, skipping handle-state inference entirely.
//
// Two offline passes run once at capture time, amortized over every replay:
//   1. critical-path priorities from the measured durations (the captured
//      epoch doubles as a profile run), so replays schedule the longest
//      downstream chains first under the prio/lws policies;
//   2. linear-chain fusion: a successor whose ONLY predecessor is this task
//      (the TRSM -> lone GEMM chains of the tiled solvers) is run inline by
//      the same worker, skipping one queue round-trip per fused pair.
//
// GraphCache memoizes captured graphs keyed on a 64-bit structure
// signature (see TileHMatrix::structure_signature); it is a bounded LRU so
// a service rotating over many problem structures cannot hold every graph
// alive forever.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/hash.hpp"
#include "runtime/types.hpp"

namespace hcham::rt {

/// True when HCHAM_REPLAY_DISABLE=1: every cache-aware path falls back to
/// live STF inference (an escape hatch for debugging replay itself).
inline bool replay_disabled() {
  return env_long("HCHAM_REPLAY_DISABLE", 0) != 0;
}

// --- the captured DAG ------------------------------------------------------

/// CSR form of one engine epoch, the only form the dispatcher executes;
/// immutable once captured. Slot ids are epoch-local (0..count), assigned
/// in submission order, so a replay binds the i-th submitted closure to
/// slot i. A live epoch's CSR carries labels and access lists only when
/// something reads them (capture, the conflict checker), and no durations
/// or fusion until a capture keeps it. Owns copies of everything replay
/// needs — labels, edges, access lists — so it survives the engine
/// retiring the epoch (which frees the live tasks' accesses) and even the
/// engine's destruction.
struct CapturedGraph {
  index_t count = 0;

  // CSR successor lists over epoch-local slots. Edges are kept for fused
  // successors too (the graph stays a faithful record); the replay release
  // loop skips the fused edge instead.
  std::vector<index_t> succ_off;  ///< size count + 1
  std::vector<TaskId> succ;

  std::vector<index_t> pending0;  ///< static in-degree per slot
  std::vector<int> priority;      ///< after the critical-path pass
  std::vector<double> duration_s; ///< measured in the capture epoch
  std::vector<std::string> label;

  /// Chain fusion: slot run inline by the same worker right after this one
  /// (-1 = none). A fused tail always has in-degree 1, so it is never
  /// seeded and its pending counter is simply never decremented.
  std::vector<TaskId> fused_next;
  std::vector<std::uint8_t> is_fused_tail;
  index_t fused_pairs = 0;

  // Collapsed access lists (strongest mode per handle), CSR over slots;
  // retained so the access-conflict checker can audit replayed schedules.
  // A ReadWrite access counts as a write: exclusive for the checker.
  std::vector<index_t> acc_off;   ///< size count + 1
  std::vector<index_t> acc_handle;
  std::vector<std::uint8_t> acc_write;  ///< 1 = write or readwrite
  index_t max_handle = -1;

  index_t num_edges() const { return static_cast<index_t>(succ.size()); }

  double total_work_s() const {
    double t = 0.0;
    for (const double d : duration_s) t += d;
    return t;
  }
};

// --- offline passes --------------------------------------------------------

/// Assign priorities by downstream critical path over the measured
/// durations: priority(i) = dense rank of cp(i), so the slot heading the
/// longest remaining chain always wins the prio/lws heap comparisons.
/// Replaces the submit-time priorities, which were static heuristics
/// (getrf > trsm > gemm) without knowledge of actual kernel costs.
inline void assign_critical_path_priorities(CapturedGraph& g) {
  const auto n = static_cast<std::size_t>(g.count);
  std::vector<double> cp(n, 0.0);
  for (std::size_t i = n; i-- > 0;) {
    double best = 0.0;
    for (index_t e = g.succ_off[i]; e < g.succ_off[i + 1]; ++e)
      best = std::max(best, cp[static_cast<std::size_t>(g.succ[e])]);
    cp[i] = g.duration_s[i] + best;
  }
  std::vector<index_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<index_t>(i);
  std::sort(order.begin(), order.end(), [&cp](index_t a, index_t b) {
    const double ca = cp[static_cast<std::size_t>(a)];
    const double cb = cp[static_cast<std::size_t>(b)];
    if (ca != cb) return ca < cb;
    return a > b;  // tie-break: earlier submission ranks higher
  });
  g.priority.assign(n, 0);
  for (std::size_t r = 0; r < n; ++r)
    g.priority[static_cast<std::size_t>(order[r])] = static_cast<int>(r);
}

/// Fuse a successor with in-degree 1 into its unique predecessor: the
/// worker finishing the predecessor runs the tail inline instead of
/// round-tripping it through a ready queue. Chains fuse transitively
/// (TRSM -> GEMM -> GEMM ...). Each slot fuses at most one tail and each
/// tail has exactly one predecessor, so the fused links form disjoint
/// paths — no slot can be run twice.
inline void fuse_linear_chains(CapturedGraph& g) {
  const auto n = static_cast<std::size_t>(g.count);
  g.fused_next.assign(n, -1);
  g.is_fused_tail.assign(n, 0);
  g.fused_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (index_t e = g.succ_off[i]; e < g.succ_off[i + 1]; ++e) {
      const auto s = static_cast<std::size_t>(g.succ[e]);
      if (g.pending0[s] != 1 || g.is_fused_tail[s]) continue;
      g.fused_next[i] = static_cast<TaskId>(s);
      g.is_fused_tail[s] = 1;
      ++g.fused_pairs;
      break;
    }
  }
}

// --- the bounded graph cache -----------------------------------------------

/// Thread-safe LRU cache of captured graphs keyed on a structure
/// signature. Capacity comes from HCHAM_GRAPH_CACHE_MAX (default 32) when
/// constructed with a negative capacity; capacity 0 disables storage (every
/// lookup misses), which degrades to pure live inference.
class GraphCache {
 public:
  explicit GraphCache(index_t capacity = -1)
      : capacity_(capacity >= 0
                      ? capacity
                      : static_cast<index_t>(env_long_bounded(
                            "HCHAM_GRAPH_CACHE_MAX", 32, 0, 1L << 20))) {}

  GraphCache(const GraphCache&) = delete;
  GraphCache& operator=(const GraphCache&) = delete;

  std::shared_ptr<const CapturedGraph> lookup(std::uint64_t key) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++misses_;
      runtime_counters().graph_cache_misses.fetch_add(
          1, std::memory_order_relaxed);
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
    ++hits_;
    runtime_counters().graph_cache_hits.fetch_add(1,
                                                  std::memory_order_relaxed);
    return it->second->second;
  }

  void insert(std::uint64_t key, std::shared_ptr<const CapturedGraph> g) {
    if (g == nullptr || capacity_ == 0) return;
    std::lock_guard<std::mutex> lk(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) {  // refresh an existing entry in place
      it->second->second = std::move(g);
      lru_.splice(lru_.begin(), lru_, it->second);
      return;
    }
    lru_.emplace_front(key, std::move(g));
    map_[key] = lru_.begin();
    while (static_cast<index_t>(lru_.size()) > capacity_) {
      map_.erase(lru_.back().first);
      lru_.pop_back();
      ++evictions_;
      runtime_counters().graph_cache_evictions.fetch_add(
          1, std::memory_order_relaxed);
    }
  }

  index_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<index_t>(lru_.size());
  }
  index_t capacity() const { return capacity_; }
  std::uint64_t hits() const {
    std::lock_guard<std::mutex> lk(mu_);
    return hits_;
  }
  std::uint64_t misses() const {
    std::lock_guard<std::mutex> lk(mu_);
    return misses_;
  }
  std::uint64_t evictions() const {
    std::lock_guard<std::mutex> lk(mu_);
    return evictions_;
  }

  /// The process-wide cache used by serve sessions; capacity is read from
  /// HCHAM_GRAPH_CACHE_MAX at first use.
  static GraphCache& global() {
    static GraphCache cache(-1);
    return cache;
  }

 private:
  mutable std::mutex mu_;
  index_t capacity_;
  // front = most recently used; the map holds iterators into the list.
  std::list<std::pair<std::uint64_t, std::shared_ptr<const CapturedGraph>>>
      lru_;
  std::unordered_map<std::uint64_t, decltype(lru_)::iterator> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hcham::rt
