// Bounded multi-tenant session cache (DESIGN.md section 12): an LRU map
// from operator id to a live serve::Session, under one global memory
// budget with per-session byte accounting (Session::memory_bytes). Misses
// run the caller's builder; sessions evicted under pressure can spill
// their factors to disk through the factor store and come back later via
// Session::restore (a cold-start, not a refactorization).
//
// Concurrency model: the cache map is internally synchronized; sessions
// handed out are wrapped in a Pin that (a) blocks eviction of that entry
// while alive and (b) serializes solve_now per session (Session::solve_now
// is not thread-safe). Builders and ALL spill/restore IO run OUTSIDE the
// map lock (victims are detached under the lock, written after it drops),
// so tenants building different operators proceed in parallel; two
// threads asking for the SAME id wait on one build. A spill that fails
// (missing dir, disk full) degrades to a plain discard and is counted in
// failed_spills; a spill file that fails to restore is dropped and the
// caller's builder runs instead.
#pragma once

#include <condition_variable>
#include <cstdio>
#include <list>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/counters.hpp"
#include "lifecycle/config.hpp"
#include "serve/solver_service.hpp"

namespace hcham::lifecycle {

template <typename T>
class SessionCache {
 public:
  struct Options {
    std::uint64_t max_bytes = 0;  ///< 0 = HCHAM_SESSION_CACHE_BYTES
    std::string spill_dir;        ///< "" = HCHAM_FACTOR_STORE_DIR; still
                                  ///< "" = discard on eviction
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t spills = 0;
    std::uint64_t failed_spills = 0;  ///< spill IO errors (entry discarded)
    std::uint64_t spill_reloads = 0;
    std::uint64_t entries = 0;
    std::uint64_t pinned = 0;
    std::uint64_t bytes = 0;
    std::uint64_t max_bytes = 0;
  };

  explicit SessionCache(Options opts = {}) : opts_(opts) {
    const LifecycleConfig env = LifecycleConfig::from_env();
    if (opts_.max_bytes == 0) opts_.max_bytes = env.session_cache_bytes;
    if (opts_.spill_dir.empty()) opts_.spill_dir = env.factor_store_dir;
  }
  SessionCache(const SessionCache&) = delete;
  SessionCache& operator=(const SessionCache&) = delete;

  class Pin;

  /// Return a pinned session for `id`: LRU hit, spill reload, or a fresh
  /// `builder()` run (in that order). The returned Pin keeps the entry
  /// resident until destroyed; solves go through Pin::solve_now.
  template <typename Builder>
  Pin get_or_build(const std::string& id, Builder&& builder) {
    std::unique_lock<std::mutex> lk(mu_);
    for (;;) {
      auto it = map_.find(id);
      if (it != map_.end()) {
        entries_.splice(entries_.begin(), entries_, it->second);
        ++stats_.hits;
        lifecycle_counters().bump(lifecycle_counters().cache_hits);
        return pin_locked(*it->second);
      }
      // Someone else is building this id: wait for their insert instead of
      // duplicating an expensive factorization.
      if (building_.count(id) == 0) break;
      cv_.wait(lk);
    }
    ++stats_.misses;
    lifecycle_counters().bump(lifecycle_counters().cache_misses);
    const auto spilled = spilled_.find(id);
    bool reload = spilled != spilled_.end();
    std::string spill_path;
    serve::SessionOptions spill_opts;
    if (reload) {
      spill_path = spilled->second.path;
      spill_opts = spilled->second.opts;
    }
    building_.insert(id);
    lk.unlock();
    std::shared_ptr<serve::Session<T>> session;
    try {
      if (reload) {
        try {
          session = std::make_shared<serve::Session<T>>(
              serve::Session<T>::restore(spill_path, spill_opts));
        } catch (...) {
          // Deleted, truncated, or corrupt spill file: drop the spill
          // record (and the stale file) and fall back to the caller's
          // builder — a broken spill must not make the id unserveable.
          std::remove(spill_path.c_str());
          std::lock_guard<std::mutex> lk2(mu_);
          spilled_.erase(id);
          reload = false;
        }
      }
      if (session == nullptr)
        session = std::make_shared<serve::Session<T>>(builder());
    } catch (...) {
      lk.lock();
      building_.erase(id);
      cv_.notify_all();
      throw;
    }
    lk.lock();
    building_.erase(id);
    if (reload) {
      spilled_.erase(id);
      ++stats_.spill_reloads;
      lifecycle_counters().bump(lifecycle_counters().cache_spill_reloads);
    }
    auto entry = std::make_shared<Entry>();
    entry->id = id;
    entry->session = std::move(session);
    entry->opts = entry->session->options();
    entry->bytes = entry->session->memory_bytes();
    entries_.push_front(entry);
    map_[id] = entries_.begin();
    stats_.bytes += entry->bytes;
    Pin pin = pin_locked(entry);
    std::vector<Victim> victims = detach_victims_locked();
    cv_.notify_all();
    lk.unlock();
    spill_victims(std::move(victims));
    return pin;
  }

  bool contains(const std::string& id) {
    std::lock_guard<std::mutex> lk(mu_);
    return map_.count(id) != 0;
  }
  /// True when `id` currently lives on disk only (evicted with spill).
  bool spilled(const std::string& id) {
    std::lock_guard<std::mutex> lk(mu_);
    return spilled_.count(id) != 0;
  }

  Stats stats() {
    std::lock_guard<std::mutex> lk(mu_);
    Stats s = stats_;
    s.entries = entries_.size();
    s.pinned = 0;
    for (const auto& e : entries_)
      if (e->pins > 0) ++s.pinned;
    s.max_bytes = opts_.max_bytes;
    return s;
  }

  /// JSON export (stable keys, EXPERIMENTS.md tooling).
  std::string stats_json() {
    const Stats s = stats();
    std::ostringstream os;
    os << "{\"hits\":" << s.hits << ",\"misses\":" << s.misses
       << ",\"evictions\":" << s.evictions << ",\"spills\":" << s.spills
       << ",\"failed_spills\":" << s.failed_spills
       << ",\"spill_reloads\":" << s.spill_reloads
       << ",\"entries\":" << s.entries << ",\"pinned\":" << s.pinned
       << ",\"bytes\":" << s.bytes << ",\"max_bytes\":" << s.max_bytes << "}";
    return os.str();
  }

  /// Mirror the tallies into a SolverService stats hub so they ride along
  /// in its JSON snapshot (the "cache" section).
  void record_to(serve::ServiceStats& stats) {
    const Stats s = this->stats();
    stats.record_cache(s.hits, s.misses, s.evictions, s.spills);
  }

 private:
  struct Entry {
    std::string id;
    std::shared_ptr<serve::Session<T>> session;
    serve::SessionOptions opts;  ///< for a later restore after spill
    std::uint64_t bytes = 0;
    int pins = 0;
    std::mutex solve_mu;  ///< serializes solve_now across tenants
  };
  struct SpilledEntry {
    std::string path;
    serve::SessionOptions opts;
  };
  /// An entry detached from the LRU under mu_; its spill IO (if `path` is
  /// set) runs after mu_ is released.
  struct Victim {
    std::shared_ptr<Entry> entry;
    std::string path;  ///< empty = discard without spilling
  };

 public:
  /// RAII residency + solve handle. Holds the entry alive (shared_ptr)
  /// and pinned (evict-proof) for its lifetime.
  class Pin {
   public:
    Pin(Pin&& o) noexcept
        : cache_(o.cache_), entry_(std::move(o.entry_)) {
      o.cache_ = nullptr;
    }
    Pin& operator=(Pin&&) = delete;
    Pin(const Pin&) = delete;
    ~Pin() {
      if (cache_ == nullptr) return;
      std::vector<Victim> victims;
      {
        std::lock_guard<std::mutex> lk(cache_->mu_);
        --entry_->pins;
        victims = cache_->detach_victims_locked();
      }
      // Spill IO runs outside the lock; spill_victims never throws, so
      // this (noexcept) destructor cannot terminate on an IO failure.
      cache_->spill_victims(std::move(victims));
    }

    serve::Session<T>& session() { return *entry_->session; }

    /// Thread-safe per-entry solve: concurrent tenants of the same
    /// operator serialize here (Session::solve_now is not re-entrant).
    core::RefinementResult solve_now(la::MatrixView<T> b) {
      std::lock_guard<std::mutex> lk(entry_->solve_mu);
      return entry_->session->solve_now(b);
    }

   private:
    friend class SessionCache;
    Pin(SessionCache* cache, std::shared_ptr<Entry> entry)
        : cache_(cache), entry_(std::move(entry)) {}
    SessionCache* cache_;
    std::shared_ptr<Entry> entry_;
  };

 private:
  Pin pin_locked(std::shared_ptr<Entry> e) {
    ++e->pins;
    return Pin(this, std::move(e));
  }

  /// Detach unpinned LRU-tail entries until the budget holds (or
  /// everything left is pinned). Victims come back with a spill path when
  /// a spill dir is configured; the spill IO itself runs in spill_victims,
  /// after mu_ is released.
  std::vector<Victim> detach_victims_locked() {
    std::vector<Victim> victims;
    auto it = entries_.end();
    while (stats_.bytes > opts_.max_bytes && it != entries_.begin()) {
      --it;
      Entry& e = **it;
      if (e.pins > 0) continue;
      Victim v;
      v.entry = *it;
      if (!opts_.spill_dir.empty())
        v.path = opts_.spill_dir + "/" + sanitize(e.id) + ".hfac";
      ++stats_.evictions;
      lifecycle_counters().bump(lifecycle_counters().cache_evictions);
      stats_.bytes -= e.bytes;
      map_.erase(e.id);
      it = entries_.erase(it);
      victims.push_back(std::move(v));
    }
    return victims;
  }

  /// Spill detached victims to disk WITHOUT holding mu_, then record the
  /// spill under the lock. A failed write (missing spill dir, disk full)
  /// downgrades that eviction to a plain discard and counts
  /// failed_spills — it never propagates, so Pin::~Pin stays noexcept-safe
  /// and get_or_build never unwinds past a live map insert.
  void spill_victims(std::vector<Victim> victims) {
    for (Victim& v : victims) {
      if (v.path.empty()) continue;
      try {
        v.entry->session->save_factors(v.path);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        ++stats_.failed_spills;
        continue;
      }
      std::lock_guard<std::mutex> lk(mu_);
      spilled_[v.entry->id] = SpilledEntry{v.path, v.entry->opts};
      ++stats_.spills;
      lifecycle_counters().bump(lifecycle_counters().cache_spills);
    }
  }

  static std::string sanitize(const std::string& id) {
    std::string out = id;
    for (char& c : out) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
      if (!ok) c = '_';
    }
    return out;
  }

  Options opts_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::list<std::shared_ptr<Entry>> entries_;  ///< MRU front, LRU back
  std::unordered_map<std::string,
                     typename std::list<std::shared_ptr<Entry>>::iterator>
      map_;
  std::unordered_map<std::string, SpilledEntry> spilled_;
  std::unordered_set<std::string> building_;
  Stats stats_;
};

}  // namespace hcham::lifecycle
