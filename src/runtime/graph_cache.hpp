// Symbolic task-graph capture & replay: the DAG-compilation layer of the
// engine (DESIGN.md section 10).
//
// The STF engine infers the identical dependency graph every time a solve
// or factorization epoch runs, even though the graph is a function of the
// block structure alone (Börm/Christophersen/Kriemann, PAPERS.md). Every
// epoch is dispatched from a CapturedGraph: a live epoch is frozen into one
// at wait_all() entry, and capturing means keeping it — closure slots,
// submit-time priorities, collapsed access lists and inferred edges in CSR
// form — so later epochs with the same structure re-bind closures into it
// and dispatch directly, skipping handle-state inference entirely. No pass
// rewrites the graph after capture.
//
// GraphCache memoizes captured graphs keyed on a 64-bit structure
// signature (see TileHMatrix::structure_signature); it is a bounded LRU so
// a service rotating over many problem structures cannot hold every graph
// alive forever. Each owner (a serve Session, an UpdatableOperator, a
// bench) holds its own cache; there is no process-wide one.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "runtime/types.hpp"

namespace hcham::rt {

/// True when HCHAM_REPLAY_DISABLE=1: every cache-aware path falls back to
/// live STF inference. The only switch that forces live execution, and the
/// referee for replay-against-live comparisons.
inline bool replay_disabled() {
  return env_long("HCHAM_REPLAY_DISABLE", 0) != 0;
}

// --- the captured DAG ------------------------------------------------------

/// CSR form of one engine epoch, the only form the dispatcher executes;
/// immutable once captured. Slot ids are epoch-local (0..count), assigned
/// in submission order, so a replay binds the i-th submitted closure to
/// slot i. A live epoch's CSR carries labels and access lists only when
/// something reads them (capture, the conflict checker). Owns copies of
/// everything replay needs — priorities, labels, edges, access lists — so
/// it survives the engine dropping the epoch's task records and even the
/// engine's destruction.
struct CapturedGraph {
  index_t count = 0;

  std::vector<index_t> succ_off;  ///< CSR successor lists, size count + 1
  std::vector<TaskId> succ;

  std::vector<index_t> pending0;  ///< static in-degree per slot
  std::vector<int> priority;      ///< submit-time priorities
  std::vector<std::string> label;

  // Collapsed access lists (strongest mode per handle), CSR over slots;
  // retained so the access-conflict checker can audit replayed schedules.
  // A ReadWrite access counts as a write: exclusive for the checker.
  std::vector<index_t> acc_off;   ///< size count + 1
  std::vector<index_t> acc_handle;
  std::vector<std::uint8_t> acc_write;  ///< 1 = write or readwrite
  index_t max_handle = -1;

  index_t num_edges() const { return static_cast<index_t>(succ.size()); }
};

// --- the bounded graph cache -----------------------------------------------

/// Thread-safe LRU cache of captured graphs keyed on a structure
/// signature, holding up to `capacity` graphs (default kDefaultCapacity);
/// capacity 0 disables storage (every lookup misses), which degrades to
/// pure live inference.
class GraphCache {
 public:
  static constexpr index_t kDefaultCapacity = 32;

  explicit GraphCache(index_t capacity = kDefaultCapacity)
      : capacity_(capacity) {
    HCHAM_CHECK(capacity >= 0);
  }

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
