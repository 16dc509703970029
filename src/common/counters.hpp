// Process-wide event counters for the H-arithmetic hot path: QR+SVD
// recompressions and their Jacobi sweeps, rounded additions and their fast
// paths, lazy-accumulator updates/flushes, and workspace arena hits/misses.
//
// They live in `common` (not `core`) because the rk and la layers bump them
// and must not depend on higher layers. All operations are relaxed atomics:
// the counters are monotonically increasing tallies read only at quiescent
// points (after wait_all / between bench phases), never synchronization.
//
// Each block is one X-macro list of field names; the atomic struct, its
// plain-integer snapshot, snapshot_*() and reset_*() are all generated from
// that list, so adding a counter is a one-line change.
#pragma once

#include <atomic>
#include <cstdint>

namespace hcham {

#define HCHAM_COUNTER_ATOMIC_(name) std::atomic<std::uint64_t> name{0};
#define HCHAM_COUNTER_PLAIN_(name) std::uint64_t name = 0;
#define HCHAM_COUNTER_LOAD_(name) \
  s.name = c.name.load(std::memory_order_relaxed);
#define HCHAM_COUNTER_ZERO_(name) c.name.store(0, std::memory_order_relaxed);

/// Defines Counters (atomics, with bump()), accessor() (the process-wide
/// instance), Snapshot (plain copy for reporting and differencing),
/// snapshot() and reset() from one field list.
#define HCHAM_DEFINE_COUNTERS_(Counters, accessor, Snapshot, snapshot, reset, \
                               LIST)                                          \
  struct Counters {                                                           \
    LIST(HCHAM_COUNTER_ATOMIC_)                                               \
    void bump(std::atomic<std::uint64_t>& c, std::uint64_t n = 1) {           \
      c.fetch_add(n, std::memory_order_relaxed);                              \
    }                                                                         \
  };                                                                          \
  inline Counters& accessor() {                                               \
    static Counters counters;                                                 \
    return counters;                                                          \
  }                                                                           \
  struct Snapshot {                                                           \
    LIST(HCHAM_COUNTER_PLAIN_)                                                \
  };                                                                          \
  inline Snapshot snapshot() {                                                \
    const Counters& c = accessor();                                           \
    Snapshot s;                                                               \
    LIST(HCHAM_COUNTER_LOAD_)                                                 \
    return s;                                                                 \
  }                                                                           \
  inline void reset() {                                                       \
    Counters& c = accessor();                                                 \
    LIST(HCHAM_COUNTER_ZERO_)                                                 \
  }

// H-arithmetic and dense-kernel tallies.
#define HCHAM_ARITH_COUNTERS_(X)                                              \
  X(truncations)           /* QR+SVD recompressions */                        \
  X(rounded_adds)          /* eager rounded additions */                      \
  X(rounded_add_fastpaths) /* truncate skipped */                             \
  X(acc_updates)           /* deferred factor appends */                      \
  X(acc_flushes)           /* pending -> truncated */                         \
  X(acc_budget_flushes)    /* forced by rank budget */                        \
  X(acc_compactions)       /* pending-tail compressions */                    \
  X(ws_hits)               /* arena requests served in place */               \
  X(ws_misses)             /* arena requests that malloc'd */                 \
  X(svd_sweeps)            /* one-sided Jacobi sweeps, all calls */           \
  X(svd_columns)           /* columns handed to Jacobi, all calls */          \
  X(svd_unconverged)       /* Jacobi calls that hit the sweep cap */          \
  X(qr_norm_recomputes)    /* pivoted-QR column norms recomputed */

HCHAM_DEFINE_COUNTERS_(ArithCounters, arith_counters, ArithCounterSnapshot,
                       snapshot_arith_counters, reset_arith_counters,
                       HCHAM_ARITH_COUNTERS_)

/// Process-wide tallies for the task runtime (DESIGN.md sections 7, 10, 11
/// and 14): epochs captured into a CapturedGraph, epochs dispatched by
/// replay, graph-cache traffic, offline-pass output, and the wall time of
/// the submission phase split by mode so benches can report the
/// live-inference vs replay-rebind overhead ratio.
#define HCHAM_RUNTIME_COUNTERS_(X)                                            \
  X(graph_captures)        /* epochs recorded */                              \
  X(graph_replays)         /* epochs replayed */                              \
  X(graph_cache_hits)                                                         \
  X(graph_cache_misses)                                                       \
  X(graph_cache_evictions)                                                    \
  X(submit_live_ns)        /* STF inference phases */                         \
  X(submit_replay_ns)      /* closure re-bind phases */                       \
  /* Nested sub-epochs (section 11): parallel-mode openings, epochs the */    \
  /* gate kept inline, nested tasks executed, and how many of those ran */    \
  /* on a worker other than the sub-epoch's owner. */                         \
  X(nested_epochs)                                                            \
  X(nested_inline)                                                            \
  X(nested_tasks)                                                             \
  X(nested_steals)                                                            \
  /* Dispatcher visibility (section 7): top-level task steals (a pop */       \
  /* served from another worker's queue), pops that found no victim at */    \
  /* all, and park/targeted-wake events. */                                   \
  X(ll_steals)                                                                \
  X(ll_failed_steals)                                                         \
  X(ll_parks)                                                                 \
  X(ll_wakes)

HCHAM_DEFINE_COUNTERS_(RuntimeCounters, runtime_counters,
                       RuntimeCounterSnapshot, snapshot_runtime_counters,
                       reset_runtime_counters, HCHAM_RUNTIME_COUNTERS_)

/// Process-wide tallies for the operator lifecycle layer (DESIGN.md
/// section 12): Woodbury update/solve/rebase activity, factor-store
/// traffic, and session-cache hit/miss/eviction/spill events.
#define HCHAM_LIFECYCLE_COUNTERS_(X)                                          \
  X(woodbury_updates)      /* rank-k deltas absorbed */                       \
  X(woodbury_solves)       /* updated-operator solves */                      \
  X(woodbury_prepares)     /* A^-1 U + capacitance */                         \
  X(woodbury_rebases)      /* delta folded + refactor */                      \
  X(factor_saves)          /* store files written */                          \
  X(factor_loads)          /* mmap cold-starts */                             \
  X(cache_hits)                                                               \
  X(cache_misses)                                                             \
  X(cache_evictions)                                                          \
  X(cache_spills)          /* evicted to disk */                              \
  X(cache_spill_reloads)   /* restored from disk */

HCHAM_DEFINE_COUNTERS_(LifecycleCounters, lifecycle_counters,
                       LifecycleCounterSnapshot, snapshot_lifecycle_counters,
                       reset_lifecycle_counters, HCHAM_LIFECYCLE_COUNTERS_)

#undef HCHAM_LIFECYCLE_COUNTERS_
#undef HCHAM_RUNTIME_COUNTERS_
#undef HCHAM_ARITH_COUNTERS_
#undef HCHAM_DEFINE_COUNTERS_
#undef HCHAM_COUNTER_ZERO_
#undef HCHAM_COUNTER_LOAD_
#undef HCHAM_COUNTER_PLAIN_
#undef HCHAM_COUNTER_ATOMIC_

}  // namespace hcham
