// The task engine: a sequential-task-flow runtime in the style of STARPU.
//
// Usage mirrors the paper's description of CHAMELEON over STARPU:
//   Engine eng({.num_workers = 4, .policy = SchedulerPolicy::Priority});
//   auto hA = eng.register_data("A");
//   eng.submit([=]{ ... }, {readwrite(hA)}, /*priority=*/3, "getrf");
//   eng.wait_all();
// Dependencies are inferred automatically from the declared accesses:
// a writer waits for all previous readers and writers of the handle, a
// reader waits for the last writer. Tasks are submitted from one thread
// (the sequential task flow); wait_all() freezes the epoch into a CSR and
// executes it on the worker pool with the selected scheduling policy (a
// 1-worker epoch runs on the calling thread), recording per-task
// durations, which the simulator then replays at other worker counts.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "runtime/graph_cache.hpp"
#include "runtime/types.hpp"

namespace hcham::rt {

class Engine {
 public:
  struct Options {
    int num_workers = 1;
    SchedulerPolicy policy = SchedulerPolicy::Priority;
    bool record_trace = false;
    /// Debug: while the graph executes, assert that no two
    /// concurrently-running tasks hold conflicting accesses (W/W or R/W)
    /// on the same handle. A conflict means the engine inferred too few
    /// dependency edges; all conflicts of an epoch are collected (see
    /// conflicts()) and surfaced as an Error from wait_all(). Runs on the
    /// normal multi-worker dispatcher (live and replayed epochs), adding
    /// one mutex round-trip before and after each task.
    bool check_conflicts = false;
    /// Debug: execute wait_all() on one worker in a random topological
    /// order drawn from fuzz_seed instead of the configured scheduler
    /// (replayed epochs included). The order is deterministic given the
    /// seed, so any order-dependence bug reproduces from a single integer.
    bool fuzz_schedule = false;
    std::uint64_t fuzz_seed = 0;
    /// Fault injection (tests only): silently drop the n-th inferred
    /// dependency edge, to validate that the conflict checker fires on a
    /// known-bad graph. -1 disables.
    index_t fault_drop_edge = -1;
    /// Fault injection for the nested-epoch layer (tests only): silently
    /// drop the n-th dependency edge inferred across ALL nested sub-epochs
    /// of this engine, counted in submission order. -1 disables.
    index_t nested_fault_drop_edge = -1;
  };

  Engine();
  explicit Engine(Options opts);
  ~Engine();

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Register a piece of data; the name shows up in DOT dumps.
  Handle register_data(std::string name = "");

  /// Submit a task. Must not be called while wait_all() is running.
  TaskId submit(std::function<void()> fn, std::vector<Access> accesses,
                int priority = 0, std::string label = "");

  /// Execute all pending tasks; returns when the graph has drained.
  /// Re-submission after wait_all() is allowed. Between epochs an engine
  /// keeps its handle table and the last epoch's task records, nothing
  /// older: drained tasks are already satisfied, so handle states forget
  /// them and the next live epoch's first submit() drops their records.
  void wait_all();

  /// Tasks ever submitted live: the id the next task gets.
  index_t num_tasks() const;
  /// Edges of the open or last drained live epoch.
  index_t num_edges() const;
  int num_workers() const;
  SchedulerPolicy policy() const;

  /// Position of the round-robin cursor that spreads initially-ready tasks
  /// across workers. Reset to worker 0 at the start of every parallel
  /// wait_all() epoch, matching the simulator's replay; exposed so tests
  /// can assert engine/simulator seed agreement.
  int seed_cursor() const;

  /// Snapshot of the open or last drained live epoch (TaskGraph::first is
  /// its first task id); durations are valid after wait_all().
  TaskGraph graph() const;

  /// Execution trace of the last wait_all() epoch, live or replayed, the
  /// way graph() holds one epoch (empty unless Options::record_trace).
  /// Replayed events carry their slot and `replayed`, live ones task ids.
  const std::vector<TraceEvent>& trace() const;

  /// Conflicts recorded by the access-conflict checker during the last
  /// wait_all() epoch (empty unless Options::check_conflicts).
  const std::vector<std::string>& conflicts() const;

  // --- symbolic capture & replay (DAG compilation, DESIGN.md section 10) --
  //
  // begin_capture() arms recording for the NEXT epoch: every live epoch is
  // frozen into a CSR at wait_all() entry — closure slots in submission
  // order, submit-time priorities, collapsed access lists, and the
  // inferred edges — and a capture keeps that CSR as an immutable
  // CapturedGraph once the epoch has run without error, fetched with
  // end_capture(). begin_replay(g) arms the opposite mode:
  // subsequent submit() calls only re-bind their closures to the recorded
  // slots in order (accesses, priority, and label are ignored — the graph
  // is the contract) and the following wait_all() dispatches the captured
  // DAG through the same dispatcher, skipping handle-state inference.
  //
  // Both modes require the engine to be drained (every prior task done):
  // a captured epoch must not have live cross-epoch edges, or a replay
  // could not reproduce them. Replay leaves the engine's task records and
  // handle states untouched (num_tasks() and graph() too), so live and
  // replayed epochs interleave freely.

  /// Arm capture for the next epoch. Returns false (and stays live) if
  /// capture/replay is already armed or undrained tasks exist.
  bool begin_capture();

  /// The graph recorded by the last captured epoch, or null when nothing
  /// was captured (capture not armed, the epoch failed, or a conflict was
  /// detected). Clears the armed/captured state either way.
  std::shared_ptr<const CapturedGraph> end_capture();

  /// Arm replay of `graph` for the next epoch. The next wait_all() runs
  /// exactly graph->count closures; submitting more than that, or fewer by
  /// the time wait_all() is called, is an Error.
  void begin_replay(std::shared_ptr<const CapturedGraph> graph);

  bool capturing() const;
  bool replaying() const;

  /// True when every submitted task has executed — the precondition for
  /// arming capture or replay.
  bool drained() const;

  /// Per-engine tallies of capture/replay epochs (also mirrored into the
  /// process-wide runtime_counters()). A serve session owns its engine, so
  /// these are exactly the session's graph-cache activity.
  struct ReplayStats {
    std::uint64_t captured = 0;
    std::uint64_t replayed = 0;
  };
  ReplayStats replay_stats() const;

  /// Wall time of the last epoch's submission phase: first submit() (or
  /// begin_replay()) up to wait_all() entry. Replay re-binds make this
  /// near-zero; bench/replay_overhead gates on the ratio.
  double last_submit_phase_s() const;

  /// Number of pool workers currently parked (0 outside wait_all), summed
  /// over the parked mask's 64-worker words; feeds the nested-epoch
  /// occupancy heuristic and is exposed for tests.
  int parked_workers() const;

  /// True when the calling thread is one of this engine's pool workers in
  /// a multi-worker epoch and is not already inside a nested task — the precondition for a NestedEpoch
  /// to run in parallel (stealable) mode.
  bool on_worker_thread() const;

  /// Graphviz rendering of the open or last drained live epoch's DAG
  /// (paper Fig. 1); nodes are named by task id.
  std::string to_dot() const;

 private:
  friend class NestedEpoch;
  friend struct NestedEpochImpl;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

struct NestedEpochImpl;

// --- nested epochs (DESIGN.md section 11) ----------------------------------
//
// A running tile task may open a worker-owned sub-epoch and submit a
// subgraph of finer tasks (the recursive H-LU split of core/hlu_tasks.hpp):
//   NestedEpoch ep(engine, est_flops);
//   auto h = ep.register_data();
//   ep.submit([...]{...}, {rt::readwrite(h)});
//   ep.wait();   // spawning worker helps until the sub-epoch drains
// Dependencies are inferred from the declared accesses exactly like
// Engine::submit (same writer-after-readers/reader-after-writer rules), so
// the sub-epoch's execution is serialized per datum in submission order and
// stays bit-identical to running the closures sequentially.
//
// Mode is decided at construction by the nesting gate:
//  * parallel mode — the calling thread is one of `engine`'s pool workers,
//    the estimated kernel flops reach kNestedMinFlops, and idle
//    workers are available (some parked, or fewer ready tasks than
//    workers). Submission defers tasks; wait() seals the graph, publishes
//    the ready set, and parked/idle pool workers steal nested tasks from
//    their idle loop while the owner helps until the sub-epoch drains.
//  * inline mode — everything else (outside wait_all(), 1-worker or
//    fuzzed epochs, nested-inside-nested, gate closed,
//    HCHAM_NESTED_DISABLE=1). submit() runs the closure immediately:
//    submission order is a valid topological order of the inferred graph,
//    so results are bit-identical to parallel mode by construction.
// HCHAM_NESTED_FORCE=1 skips the flops/occupancy heuristic (tests); the
// worker-context requirement always stands.
//
// Errors thrown by nested tasks are collected (the sub-epoch drains fully,
// like a parent epoch) and the first one is rethrown from wait() — inside
// the parent task's body, which propagates it to the parent epoch's
// wait_all(). Nested tasks never pass through Engine::submit, so a capture
// of the parent epoch records the tile task as one opaque unit and replay
// re-runs the gate naturally; begin_capture()/begin_replay() reject with an
// Error while any NestedEpoch of the engine is live (a sub-epoch spanning
// epochs would corrupt the captured closure-slot order).
/// Dense-equivalent flop estimate from which a NestedEpoch may go
/// parallel (the size half of the gate above).
inline constexpr double kNestedMinFlops = 1.0e7;

class NestedEpoch {
 public:
  /// Bind a sub-epoch to `engine`. `est_flops` is the caller's estimate of
  /// the work about to be submitted (dense-equivalent flops), tested
  /// against kNestedMinFlops by the gate; the default keeps the
  /// epoch inline unless HCHAM_NESTED_FORCE=1.
  explicit NestedEpoch(Engine& engine, double est_flops = 0.0);

  /// Drains like wait() but never throws (errors are dropped); prefer an
  /// explicit wait().
  ~NestedEpoch();

  NestedEpoch(const NestedEpoch&) = delete;
  NestedEpoch& operator=(const NestedEpoch&) = delete;

  /// Register a sub-epoch-local datum for dependency inference.
  Handle register_data(std::string name = "");

  /// Submit a nested task. Parallel mode defers it; inline mode runs it
  /// immediately (collecting, not raising, any error). Must not be called
  /// after wait().
  TaskId submit(std::function<void()> fn, std::vector<Access> accesses,
                int priority = 0, std::string label = "");

  /// Seal the graph, execute it (helping alongside any stealing workers),
  /// and rethrow the first nested-task error. Idempotent.
  void wait();

  /// True when the gate selected parallel (stealable) mode.
  bool parallel() const;

  index_t num_tasks() const;
  index_t num_edges() const;  ///< inferred minus fault-dropped
  /// Nested tasks executed by workers other than the owner.
  index_t stolen() const;

 private:
  std::unique_ptr<NestedEpochImpl> impl_;
};

/// Run one epoch through a graph cache: replay on hit, capture + insert on
/// miss, plain live execution when `cache` is null, replay is disabled via
/// HCHAM_REPLAY_DISABLE, or the engine is not drained (first epoch mixing
/// with assembly, for example). `submit_fn` must perform the epoch's
/// submissions (and nothing else); wait_all() is called here.
template <typename SubmitFn>
void run_epoch_cached(Engine& engine, GraphCache* cache, std::uint64_t key,
                      SubmitFn&& submit_fn) {
  if (cache == nullptr || replay_disabled() || !engine.drained()) {
    submit_fn();
    engine.wait_all();
    return;
  }
  if (std::shared_ptr<const CapturedGraph> g = cache->lookup(key)) {
    engine.begin_replay(std::move(g));
    submit_fn();
    engine.wait_all();
    return;
  }
  const bool armed = engine.begin_capture();
  submit_fn();
  engine.wait_all();
  if (armed) {
    if (std::shared_ptr<const CapturedGraph> g = engine.end_capture())
      cache->insert(key, std::move(g));
  }
}

}  // namespace hcham::rt
