#include "runtime/engine.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>

#include "common/counters.hpp"
#include "common/env.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "la/workspace.hpp"

namespace hcham::rt {

namespace {

using Clock = std::chrono::steady_clock;

struct Task {
  std::string label;
  int priority = 0;
  std::vector<TaskId> successors;
  index_t num_deps = 0;  ///< static in-degree
  double duration_s = 0.0;
  TaskId last_edge_to = -1;  ///< dedupe mark: all edges to one task are
                             ///< added within a single submit() call
  std::vector<Access> accesses;  ///< per-handle strongest mode; only
                                 ///< populated while accesses are tracked
};

struct HandleState {
  std::string name;
  TaskId last_writer = -1;
  std::vector<TaskId> readers_since_write;
};

/// The STF inference rule shared by Engine::submit and NestedEpoch::submit,
/// over either's handle table (entries with `last_writer` and
/// `readers_since_write`): a reader follows the handle's last writer; a
/// writer (Write or ReadWrite) follows the last writer and every reader
/// since. Tasks below `live_from` have drained, so a handle forgets them
/// on its first access of a later epoch: a drained last writer counts as
/// absent and a reader list ending in a drained task is cleared (its
/// entries ascend, so all of them drained). A factor tile read by every
/// solve thus keeps one epoch's readers, not every solve's. `add_edge(from)`
/// records from -> id and drops self-edges and duplicates; `unknown` is the
/// error for a handle outside the table.
template <typename HandleTable, typename AddEdge>
inline void infer_edges(HandleTable& handles,
                        const std::vector<Access>& accesses, TaskId id,
                        TaskId live_from, const char* unknown,
                        AddEdge&& add_edge) {
  for (const Access& a : accesses) {
    HCHAM_CHECK_MSG(a.handle.valid() &&
                        a.handle.id < static_cast<index_t>(handles.size()),
                    unknown);
    auto& hs = handles[static_cast<std::size_t>(a.handle.id)];
    if (hs.last_writer >= 0 && hs.last_writer < live_from) hs.last_writer = -1;
    if (!hs.readers_since_write.empty() &&
        hs.readers_since_write.back() < live_from)
      hs.readers_since_write.clear();
    if (hs.last_writer >= 0) add_edge(hs.last_writer);
    if (a.mode == AccessMode::Read) {
      // Dedupe: a task that lists the same handle twice (or writes then
      // reads it) is one reader, not several.
      if (hs.readers_since_write.empty() ||
          hs.readers_since_write.back() != id)
        hs.readers_since_write.push_back(id);
    } else {
      for (const TaskId r : hs.readers_since_write)
        if (r != id) add_edge(r);
      hs.readers_since_write.clear();
      hs.last_writer = id;
    }
  }
}

/// Heap order over epoch slots: higher key first, then the older (lower)
/// slot. The keys are the submit-time priorities (live or captured) or a
/// fuzzed epoch's seeded random keys.
struct SlotPrioLess {
  const int* key;
  bool operator()(TaskId a, TaskId b) const {
    const int ka = key[static_cast<std::size_t>(a)];
    const int kb = key[static_cast<std::size_t>(b)];
    if (ka != kb) return ka < kb;
    return a > b;  // older first when popped from a max-heap
  }
};

inline void cpu_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#else
  std::this_thread::yield();
#endif
}

// Worker context of the calling thread: which engine's pool it belongs to
// (compared by Impl address, stored untyped so the anonymous namespace need
// not name the private Impl), its worker id, and whether it is currently
// inside a nested task (nesting-inside-nesting stays inline). Set only for
// the span of a multi-worker epoch.
thread_local const void* tls_worker_pool = nullptr;
thread_local int tls_worker_id = -1;
thread_local bool tls_in_nested_task = false;

/// Publishes the calling thread as worker `id` of `pool` and restores the
/// previous context on destruction: the caller of a 1-worker wait_all()
/// runs worker 0 and may itself be a worker (or nested task) of another
/// engine.
class WorkerContext {
 public:
  WorkerContext(const void* pool, int id)
      : pool_(tls_worker_pool), id_(tls_worker_id),
        in_nested_(tls_in_nested_task) {
    tls_worker_pool = pool;
    tls_worker_id = id;
    tls_in_nested_task = false;
  }
  WorkerContext(const WorkerContext&) = delete;
  WorkerContext& operator=(const WorkerContext&) = delete;
  ~WorkerContext() {
    tls_worker_pool = pool_;
    tls_worker_id = id_;
    tls_in_nested_task = in_nested_;
  }

 private:
  const void* pool_;
  int id_;
  bool in_nested_;
};

}  // namespace

// Deferred-mode state of one NestedEpoch (DESIGN.md section 11). Built
// single-threaded by the owner during submit(); after wait() publishes the
// epoch in the engine's registry, `ready` and the per-task pending counters
// are touched only under Engine::Impl::nested_mu (ready) or atomically
// (pending), and `remaining` is each executor's last touch of the epoch so
// the owner can destroy it the moment the count reaches zero.
struct NestedEpochImpl {
  struct NestedTask {
    std::function<void()> fn;
    std::string label;
    int priority = 0;
    std::vector<TaskId> successors;
    std::atomic<index_t> pending{0};
    TaskId last_edge_to = -1;  ///< dedupe mark, as in Engine's add_edge
  };
  struct NestedHandle {
    TaskId last_writer = -1;
    std::vector<TaskId> readers_since_write;
  };

  Engine::Impl* eng = nullptr;
  bool is_parallel = false;
  bool sealed = false;
  int owner_worker = -1;
  std::deque<NestedTask> tasks;  // deque: stable refs, atomics never move
  std::vector<NestedHandle> handles;
  index_t edges = 0;
  index_t inline_tasks = 0;   ///< inline mode's task count (tasks stays empty)
  std::deque<TaskId> ready;   ///< guarded by eng->nested_mu
  std::atomic<index_t> remaining{0};
  std::atomic<index_t> stolen{0};
  std::mutex err_mu;  ///< parallel mode: guards first_error
  std::exception_ptr first_error;
};

struct Engine::Impl {
  Options opts;
  /// Task records of one epoch: the open live epoch, or the last drained
  /// one until the next live epoch's first submit() drops it. Ids are
  /// engine-wide; `tasks[i]` is task `first + i`.
  std::vector<Task> tasks;
  TaskId first = 0;
  std::vector<HandleState> handles;
  std::vector<TraceEvent> trace;
  std::atomic<bool> executing{false};  ///< set for the span of wait_all()
  index_t edge_counter = 0;  ///< inferred-edge count (fault injection)

  /// Closures of the epoch being submitted, by slot: live submissions
  /// append (slot = task id - retired), replay re-binds append in captured
  /// slot order. Moved in at submit, released when the epoch drains.
  std::vector<std::function<void()>> fns;

  /// Tasks below this id have drained: no edge is ever added from them
  /// again, and handle states forget them (infer_edges).
  TaskId retired = 0;

  // --- the dispatcher (DESIGN.md section 7) ----------------------------------
  //
  // Every epoch — live, captured, replayed, fuzzed, checked, 1 or N
  // workers — executes one CSR (`eg`) through the same worker loop. Each
  // worker owns one cache-line-isolated queue slot (deque for ws, heap for
  // lws) guarded by its own small mutex, plus a private parking condvar.
  // The atomic `size` mirrors the queue occupancy so steal-victim selection
  // and the park/unpark double-check never touch the queue mutexes. Under
  // the prio policy the central heap stays central (its ordering is the
  // policy), behind a dedicated mutex touched once per batched push/pop.
  struct alignas(64) WorkerState {
    std::mutex mu;                 // guards deque and heap
    std::deque<TaskId> deque;      // ws ready queue (LIFO owner, FIFO thief)
    std::vector<TaskId> heap;      // lws priority heap
    std::atomic<index_t> size{0};  // occupancy mirror (victim pick, parking)
    std::mutex park_mu;
    std::condition_variable park_cv;
    unsigned wake_epoch = 0;  // under park_mu; bumped once per targeted wake
    std::vector<TraceEvent> local_trace;  // merged into `trace` after join
    std::vector<TaskId> batch;  // release scratch of the worker in this slot
  };
  std::vector<std::unique_ptr<WorkerState>> workers;  // one per pool worker
  std::mutex prio_mu;                                 // guards prio_heap
  std::vector<TaskId> prio_heap;
  std::atomic<index_t> prio_size{0};
  /// Parked-worker mask, 64 workers per word: bit w % 64 of word w / 64.
  std::unique_ptr<std::atomic<std::uint64_t>[]> parked;
  std::size_t parked_words = 0;

  // Per-epoch dispatch state, set by run_epoch() before any worker starts.
  const CapturedGraph* eg = nullptr;  ///< the epoch CSR
  Clock::time_point t0;   ///< epoch start (trace timestamps are relative)
  TaskId trace_base = 0;  ///< slot + trace_base = reported id (task id live)
  int width = 1;          ///< workers of this epoch: 1 when fuzzing
  SchedulerPolicy policy = SchedulerPolicy::Priority;  ///< prio when fuzzing
  const int* key = nullptr;   ///< heap keys per slot
  std::vector<int> fuzz_key;  ///< seeded random keys (fuzzing)
  std::vector<double> dur;    ///< measured duration per slot
  std::unique_ptr<std::atomic<index_t>[]> pending;  ///< unresolved deps
  std::atomic<index_t> remaining{0};
  int seed_rr = 0;  ///< round-robin seed target for initially-ready slots
  std::mutex err_mu;  // guards first_error (cold)
  std::exception_ptr first_error;

  // Access-conflict checker state (under mu; valid while an armed epoch
  // runs). One slot per handle: the running writer slot (if any), the
  // count of running readers, and one reader slot for diagnostics.
  std::mutex mu;
  std::vector<TaskId> active_writer;
  std::vector<index_t> active_readers;
  std::vector<TaskId> reader_witness;
  std::vector<std::string> conflict_log;

  // --- nested sub-epoch state (DESIGN.md section 11) ---------------------
  //
  // Sub-epochs in their wait() phase register here so idle pool workers can
  // steal their tasks. nested_ready_total mirrors the summed ready-queue
  // occupancy (same role as the queue occupancy mirrors: parking
  // double-checks and steal attempts never take nested_mu when it is zero);
  // publish (under nested_mu, then fetch_add) precedes the targeted wake,
  // pairing with park()'s announce-then-recheck. nested_live counts
  // constructed-but-undestroyed NestedEpoch objects — capture/replay
  // arming rejects while any are live, since a sub-epoch spanning parent
  // epochs would corrupt the captured closure-slot order.
  std::mutex nested_mu;  // guards nested_epochs and every epoch's `ready`
  std::vector<NestedEpochImpl*> nested_epochs;
  std::atomic<index_t> nested_ready_total{0};
  std::atomic<index_t> nested_live{0};
  std::atomic<index_t> nested_edge_counter{0};  // nested fault injection

  // --- capture / replay state (DESIGN.md section 10) ---------------------
  bool capture_armed = false;  ///< keep the next live epoch's CSR
  std::shared_ptr<const CapturedGraph> captured;
  std::shared_ptr<const CapturedGraph> replay;  ///< armed replay graph
  std::atomic<std::uint64_t> epochs_captured{0};
  std::atomic<std::uint64_t> epochs_replayed{0};

  // Submission-phase stopwatch: opened by the first submit() of an epoch
  // (or by begin_replay) and closed on wait_all() entry. Feeds the
  // submit_live_ns / submit_replay_ns counters the overhead bench gates on.
  bool submit_clock_open = false;
  Clock::time_point submit_clock_start;
  double last_submit_s = 0.0;

  explicit Impl(Options o) : opts(o) {
    HCHAM_CHECK(opts.num_workers >= 1);
    for (int w = 0; w < opts.num_workers; ++w)
      workers.push_back(std::make_unique<WorkerState>());
    parked_words = static_cast<std::size_t>(opts.num_workers + 63) / 64;
    parked = std::make_unique<std::atomic<std::uint64_t>[]>(parked_words);
  }

  TaskId next_id() const {
    return first + static_cast<TaskId>(tasks.size());
  }

  bool all_drained() const { return retired == next_id(); }

  /// Whether submit() collapses access lists into the task records: the
  /// checker and a capture read them from the epoch CSR.
  bool accesses_tracked() const {
    return opts.check_conflicts || capture_armed;
  }

  void open_submit_clock() {
    if (submit_clock_open) return;
    submit_clock_open = true;
    submit_clock_start = Clock::now();
  }

  void close_submit_clock(bool replay_mode) {
    if (!submit_clock_open) {
      last_submit_s = 0.0;
      return;
    }
    submit_clock_open = false;
    last_submit_s =
        std::chrono::duration<double>(Clock::now() - submit_clock_start)
            .count();
    auto& counter = replay_mode ? runtime_counters().submit_replay_ns
                                : runtime_counters().submit_live_ns;
    counter.fetch_add(static_cast<std::uint64_t>(last_submit_s * 1.0e9),
                      std::memory_order_relaxed);
  }

  void add_edge(TaskId from, TaskId to) {
    if (from == to) return;  // a task never depends on itself (a self-edge
                             // would leave pending > 0 forever: deadlock)
    HCHAM_DCHECK(from >= retired);  // infer_edges forgets drained tasks
    Task& src = tasks[static_cast<std::size_t>(from - first)];
    if (src.last_edge_to == to) return;  // dedupe within this submit
    src.last_edge_to = to;
    if (edge_counter++ == opts.fault_drop_edge) return;  // fault injection
    src.successors.push_back(to);
    ++tasks[static_cast<std::size_t>(to - first)].num_deps;
  }

  // --- the epoch CSR ---------------------------------------------------------

  /// Freeze the live epoch [retired, next_id()) into CSR form, slot =
  /// task id - retired: successor lists, in-degrees and submit-time
  /// priorities always; labels only for a capture or the checker; the
  /// collapsed access lists only while they are tracked. Empty when no
  /// task was submitted since the last drain.
  std::shared_ptr<CapturedGraph> build_epoch_graph() const {
    const auto base = static_cast<std::size_t>(retired - first);
    const std::size_t n = tasks.size() - base;
    auto g = std::make_shared<CapturedGraph>();
    g->count = static_cast<index_t>(n);
    g->succ_off.assign(n + 1, 0);
    g->pending0.resize(n);
    g->priority.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Task& t = tasks[base + i];
      g->succ_off[i + 1] =
          g->succ_off[i] + static_cast<index_t>(t.successors.size());
      g->pending0[i] = t.num_deps;
      g->priority[i] = t.priority;
    }
    g->succ.reserve(static_cast<std::size_t>(g->succ_off[n]));
    for (std::size_t i = 0; i < n; ++i)
      for (const TaskId s : tasks[base + i].successors) {
        // Edges from drained tasks are never added and successors always
        // come later, so every edge stays inside the epoch.
        HCHAM_DCHECK(s >= retired);
        g->succ.push_back(s - retired);
      }
    if (capture_armed || opts.check_conflicts) {
      g->label.reserve(n);
      for (std::size_t i = 0; i < n; ++i)
        g->label.push_back(tasks[base + i].label);
    }
    if (!accesses_tracked()) return g;
    g->acc_off.assign(n + 1, 0);
    for (std::size_t i = 0; i < n; ++i)
      g->acc_off[i + 1] =
          g->acc_off[i] + static_cast<index_t>(tasks[base + i].accesses.size());
    const auto na = static_cast<std::size_t>(g->acc_off[n]);
    g->acc_handle.reserve(na);
    g->acc_write.reserve(na);
    for (std::size_t i = 0; i < n; ++i)
      for (const Access& a : tasks[base + i].accesses) {
        g->acc_handle.push_back(a.handle.id);
        g->acc_write.push_back(a.mode == AccessMode::Read ? 0 : 1);
        g->max_handle = std::max(g->max_handle, a.handle.id);
      }
    return g;
  }

  /// Keep a live epoch's CSR, submit-time priorities included, as the
  /// captured graph. A failed or conflicted epoch is discarded: callers see
  /// the exception and must not cache it.
  void finish_capture(std::shared_ptr<CapturedGraph> g) {
    capture_armed = false;
    captured.reset();
    if (first_error || !conflict_log.empty()) return;
    epochs_captured.fetch_add(1, std::memory_order_relaxed);
    runtime_counters().graph_captures.fetch_add(1, std::memory_order_relaxed);
    captured = std::move(g);
  }

  // --- access-conflict checker (DESIGN.md section 6; all under mu) -----------
  //
  // Audits the epoch CSR's collapsed access lists. A slot enters before its
  // closure runs and leaves before its successors are released, so two
  // slots are active together with conflicting accesses only when the
  // graph lacks an edge between them.

  void report_conflict(index_t slot, index_t other, index_t handle,
                       const char* kind) {
    const CapturedGraph& g = *eg;
    auto label = [&g](index_t s) {
      const auto i = static_cast<std::size_t>(s);
      return i < g.label.size() && !g.label[i].empty()
                 ? " [" + g.label[i] + "]"
                 : std::string();
    };
    const bool live = replay == nullptr;
    std::ostringstream msg;
    msg << kind << " access conflict on handle #" << handle;
    if (handle < static_cast<index_t>(handles.size()) &&
        !handles[static_cast<std::size_t>(handle)].name.empty())
      msg << " '" << handles[static_cast<std::size_t>(handle)].name << "'";
    msg << ": " << (live ? "task " : "replay slot ") << trace_base + slot
        << label(slot) << " started while " << (live ? "task " : "slot ")
        << trace_base + other << label(other) << " was running";
    conflict_log.push_back(msg.str());
  }

  /// The checker arrays are sized to the CSR's handle range: a replayed
  /// graph may have been captured on another engine (shared cache) whose
  /// handle space is larger than this one's.
  void checker_reset(const CapturedGraph& g) {
    conflict_log.clear();
    const auto nh = static_cast<std::size_t>(std::max<index_t>(
        static_cast<index_t>(handles.size()), g.max_handle + 1));
    active_writer.assign(nh, -1);
    active_readers.assign(nh, 0);
    reader_witness.assign(nh, -1);
  }

  /// Mark the slot's accesses active; any overlap with a running writer
  /// (or a running reader, for a writer) is a missing dependency edge.
  void checker_enter(index_t slot) {
    const CapturedGraph& g = *eg;
    const auto s = static_cast<std::size_t>(slot);
    for (index_t e = g.acc_off[s]; e < g.acc_off[s + 1]; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const index_t handle = g.acc_handle[ei];
      const auto h = static_cast<std::size_t>(handle);
      if (!g.acc_write[ei]) {
        if (active_writer[h] >= 0)
          report_conflict(slot, active_writer[h], handle, "R/W");
        ++active_readers[h];
        reader_witness[h] = slot;
      } else {
        if (active_writer[h] >= 0)
          report_conflict(slot, active_writer[h], handle, "W/W");
        else if (active_readers[h] > 0)
          report_conflict(slot, reader_witness[h], handle, "W/R");
        active_writer[h] = slot;
      }
    }
  }

  void checker_leave(index_t slot) {
    const CapturedGraph& g = *eg;
    const auto s = static_cast<std::size_t>(slot);
    for (index_t e = g.acc_off[s]; e < g.acc_off[s + 1]; ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const auto h = static_cast<std::size_t>(g.acc_handle[ei]);
      if (!g.acc_write[ei]) {
        --active_readers[h];
      } else if (active_writer[h] == slot) {
        // A conflicting second writer may have overwritten the slot.
        active_writer[h] = -1;
      }
    }
  }

  // --- ready queues ----------------------------------------------------------

  /// Count of ready (queued, unclaimed) slots across the occupancy mirrors;
  /// also feeds the nesting gate's occupancy heuristic.
  index_t ready_count() const {
    if (policy == SchedulerPolicy::Priority) return prio_size.load();
    index_t n = 0;
    for (int w = 0; w < width; ++w)
      n += workers[static_cast<std::size_t>(w)]->size.load();
    return n;
  }

  /// Publish `n` newly-ready slots with ONE lock acquisition: worker `w`'s
  /// own queue (ws/lws) or the central prio heap.
  void push_batch(int w, const TaskId* ids, std::size_t n) {
    const SlotPrioLess less{key};
    if (policy == SchedulerPolicy::Priority) {
      std::lock_guard<std::mutex> lk(prio_mu);
      for (std::size_t i = 0; i < n; ++i) {
        prio_heap.push_back(ids[i]);
        std::push_heap(prio_heap.begin(), prio_heap.end(), less);
      }
      prio_size.fetch_add(static_cast<index_t>(n));
      return;
    }
    auto& q = *workers[static_cast<std::size_t>(w)];
    std::lock_guard<std::mutex> lk(q.mu);
    for (std::size_t i = 0; i < n; ++i) {
      if (policy == SchedulerPolicy::WorkStealing) {
        q.deque.push_back(ids[i]);
      } else {
        q.heap.push_back(ids[i]);
        std::push_heap(q.heap.begin(), q.heap.end(), less);
      }
    }
    q.size.fetch_add(static_cast<index_t>(n));
  }

  TaskId pop(int w) {
    const SlotPrioLess less{key};
    if (policy == SchedulerPolicy::Priority) {
      if (prio_size.load() == 0) return -1;
      std::lock_guard<std::mutex> lk(prio_mu);
      if (prio_heap.empty()) return -1;
      std::pop_heap(prio_heap.begin(), prio_heap.end(), less);
      const TaskId id = prio_heap.back();
      prio_heap.pop_back();
      prio_size.fetch_sub(1);
      return id;
    }
    const bool is_ws = policy == SchedulerPolicy::WorkStealing;
    auto& own = *workers[static_cast<std::size_t>(w)];
    if (own.size.load() > 0) {
      std::lock_guard<std::mutex> lk(own.mu);
      if (is_ws && !own.deque.empty()) {
        const TaskId id = own.deque.back();  // LIFO on the owner side
        own.deque.pop_back();
        own.size.fetch_sub(1);
        return id;
      }
      if (!is_ws && !own.heap.empty()) {
        std::pop_heap(own.heap.begin(), own.heap.end(), less);
        const TaskId id = own.heap.back();
        own.heap.pop_back();
        own.size.fetch_sub(1);
        return id;
      }
    }
    auto& rc = runtime_counters();
    if (is_ws) {
      // Steal from the most loaded worker (FIFO on the thief side); the
      // occupancy mirrors make victim selection lock-free.
      int victim = -1;
      index_t best = 0;
      for (int v = 0; v < width; ++v) {
        if (v == w) continue;
        const index_t sz = workers[static_cast<std::size_t>(v)]->size.load();
        if (sz > best) {
          best = sz;
          victim = v;
        }
      }
      if (victim < 0) return -1;
      auto& vq = *workers[static_cast<std::size_t>(victim)];
      std::lock_guard<std::mutex> lk(vq.mu);
      if (vq.deque.empty()) {
        rc.ll_failed_steals.fetch_add(1, std::memory_order_relaxed);
        return -1;
      }
      const TaskId id = vq.deque.front();
      vq.deque.pop_front();
      vq.size.fetch_sub(1);
      rc.ll_steals.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    // lws: steal from neighbours in ring order, respecting priorities; the
    // occupancy mirrors skip empty victims without locking.
    for (int d = 1; d < width; ++d) {
      auto& vq = *workers[static_cast<std::size_t>((w + d) % width)];
      if (vq.size.load() == 0) continue;
      std::lock_guard<std::mutex> lk(vq.mu);
      if (vq.heap.empty()) continue;
      std::pop_heap(vq.heap.begin(), vq.heap.end(), less);
      const TaskId id = vq.heap.back();
      vq.heap.pop_back();
      vq.size.fetch_sub(1);
      rc.ll_steals.fetch_add(1, std::memory_order_relaxed);
      return id;
    }
    rc.ll_failed_steals.fetch_add(1, std::memory_order_relaxed);
    return -1;
  }

  // --- parking ---------------------------------------------------------------

  void bump_wake(int w) {
    auto& ws = *workers[static_cast<std::size_t>(w)];
    {
      std::lock_guard<std::mutex> lk(ws.park_mu);
      ++ws.wake_epoch;
    }
    ws.park_cv.notify_one();
  }

  /// Wake up to `count` parked workers, one targeted notify each (never a
  /// broadcast). The mask snapshot may be stale; waking an already-running
  /// worker is a harmless extra epoch bump. Bits are cleared by their
  /// owners on unpark, so a missed targeted wake can never hide a worker
  /// from later wakes or from termination.
  void wake(index_t count) {
    for (std::size_t i = 0; i < parked_words && count > 0; ++i) {
      std::uint64_t mask = parked[i].load();
      while (count > 0 && mask != 0) {
        bump_wake(static_cast<int>(i * 64) + std::countr_zero(mask));
        mask &= mask - 1;
        runtime_counters().ll_wakes.fetch_add(1, std::memory_order_relaxed);
        --count;
      }
    }
  }

  void wake_all() {
    for (int w = 0; w < width; ++w) bump_wake(w);
  }

  bool any_parked() const {
    for (std::size_t i = 0; i < parked_words; ++i)
      if (parked[i].load() != 0) return true;
    return false;
  }

  /// Epoch still running, yet no top-level or nested task is queued.
  bool should_park() const {
    return remaining.load() != 0 && ready_count() == 0 &&
           nested_ready_total.load() == 0;
  }

  /// Park worker `w` until a targeted wake. Publish-then-wake on the
  /// release side pairs with announce-then-recheck here (both seq_cst), so
  /// either the parker sees the published work in the occupancy mirrors or
  /// the releaser sees the parked bit and bumps the epoch.
  void park(int w) {
    auto& me = *workers[static_cast<std::size_t>(w)];
    auto& word = parked[static_cast<std::size_t>(w) / 64];
    const std::uint64_t bit = std::uint64_t{1} << (w % 64);
    word.fetch_or(bit);
    if (should_park()) {
      std::unique_lock<std::mutex> lk(me.park_mu);
      const unsigned seen = me.wake_epoch;
      // Second check under park_mu: a wake that raced ahead of us has
      // already bumped the epoch (publish precedes bump), so its work is
      // visible here and we must not sleep waiting for a second wake.
      if (should_park()) {
        runtime_counters().ll_parks.fetch_add(1, std::memory_order_relaxed);
        me.park_cv.wait(lk, [&] { return me.wake_epoch != seen; });
      }
    }
    word.fetch_and(~bit);
  }

  // --- nested sub-epoch execution (DESIGN.md section 11) -----------------

  /// Occupancy side of the nesting gate: splitting a tile task only pays
  /// when some worker could actually pick up the pieces — a parked worker,
  /// or fewer queued parent tasks than workers (so at least one worker is
  /// spinning idle or soon will be; "+1" counts the caller's own task as
  /// occupying the caller).
  bool nested_workers_available() const {
    return any_parked() ||
           ready_count() + 1 < static_cast<index_t>(width);
  }

  /// Pop one ready task of `ne` (the owner's help loop).
  TaskId nested_pop(NestedEpochImpl& ne) {
    std::lock_guard<std::mutex> lk(nested_mu);
    if (ne.ready.empty()) return -1;
    const TaskId id = ne.ready.front();
    ne.ready.pop_front();
    nested_ready_total.fetch_sub(1);
    return id;
  }

  /// Run nested task `id` of `ne` on `worker`, release its successors, and
  /// retire it. The decrement of ne.remaining is the executor's LAST touch
  /// of the epoch: once it reaches zero the owner may unregister and
  /// destroy `ne`, so nothing here may read it afterwards.
  void nested_execute(NestedEpochImpl& ne, TaskId id, int worker) {
    NestedEpochImpl::NestedTask& t = ne.tasks[static_cast<std::size_t>(id)];
    const bool was_nested = tls_in_nested_task;
    tls_in_nested_task = true;  // nested-inside-nested stays inline
    std::exception_ptr error;
    try {
      t.fn();
    } catch (...) {
      error = std::current_exception();
    }
    tls_in_nested_task = was_nested;
    if (error) {
      std::lock_guard<std::mutex> lk(ne.err_mu);
      if (!ne.first_error) ne.first_error = error;
    }
    index_t released = 0;
    {
      std::lock_guard<std::mutex> lk(nested_mu);
      for (const TaskId succ : t.successors)
        if (ne.tasks[static_cast<std::size_t>(succ)].pending.fetch_sub(1) ==
            1) {
          ne.ready.push_back(succ);
          ++released;
        }
      if (released > 0) nested_ready_total.fetch_add(released);
    }
    if (released > 1) wake(released - 1);  // executor takes one itself
    runtime_counters().nested_tasks.fetch_add(1, std::memory_order_relaxed);
    if (worker != ne.owner_worker) {
      ne.stolen.fetch_add(1);
      runtime_counters().nested_steals.fetch_add(1,
                                                 std::memory_order_relaxed);
    }
    ne.remaining.fetch_sub(1);  // last touch — `ne` may now be destroyed
  }

  /// Idle-loop hook: steal one nested task from any registered sub-epoch.
  /// Returns false without touching nested_mu when no nested work exists.
  bool try_steal_nested(int w) {
    if (nested_ready_total.load() == 0) return false;
    NestedEpochImpl* ne = nullptr;
    TaskId id = -1;
    {
      std::lock_guard<std::mutex> lk(nested_mu);
      for (NestedEpochImpl* cand : nested_epochs) {
        if (cand->ready.empty()) continue;
        ne = cand;
        id = cand->ready.front();
        cand->ready.pop_front();
        nested_ready_total.fetch_sub(1);
        break;
      }
    }
    if (ne == nullptr) return false;
    nested_execute(*ne, id, w);
    return true;
  }

  // --- the dispatcher --------------------------------------------------------

  /// Seed one initially-ready slot on the round-robin cursor's worker. The
  /// cursor is advanced for every ready slot under every policy (prio
  /// simply ignores it), exactly like the simulator's seeding, so the
  /// cursor positions tests assert stay policy-independent.
  void seed(TaskId slot) {
    push_batch(seed_rr, &slot, 1);
    seed_rr = (seed_rr + 1) % width;
  }

  /// Run `slot` on worker `w` and release its successors.
  void execute(int w, TaskId slot) {
    const CapturedGraph& g = *eg;
    WorkerState& me = *workers[static_cast<std::size_t>(w)];
    const auto s = static_cast<std::size_t>(slot);
    if (opts.check_conflicts) {
      std::lock_guard<std::mutex> lk(mu);
      checker_enter(slot);
    }
    const double start =
        std::chrono::duration<double>(Clock::now() - t0).count();
    Timer timer;
    std::exception_ptr error;
    try {
      fns[s]();
    } catch (...) {
      error = std::current_exception();
    }
    const double d = timer.seconds();
    if (opts.check_conflicts) {
      std::lock_guard<std::mutex> lk(mu);
      checker_leave(slot);
    }
    if (error) {
      std::lock_guard<std::mutex> lk(err_mu);
      if (!first_error) first_error = error;
    }
    dur[s] = d;
    // Batched successor release: resolve all dependency counters first,
    // publish the newly-ready set with one lock, then hand the surplus
    // (everything but the one slot this worker pops next itself) to parked
    // workers with targeted wakeups.
    me.batch.clear();
    for (index_t e = g.succ_off[s]; e < g.succ_off[s + 1]; ++e) {
      const TaskId succ = g.succ[static_cast<std::size_t>(e)];
      if (pending[static_cast<std::size_t>(succ)].fetch_sub(1) == 1)
        me.batch.push_back(succ);
    }
    if (!me.batch.empty()) {
      push_batch(w, me.batch.data(), me.batch.size());
      if (me.batch.size() > 1)
        wake(static_cast<index_t>(me.batch.size()) - 1);
    }
    if (opts.record_trace)
      me.local_trace.push_back(TraceEvent{trace_base + slot, w, start,
                                          start + d, replay != nullptr});
    if (remaining.fetch_sub(1) == 1) wake_all();
  }

  void worker_loop(int w) {
    int idle_rounds = 0;
    constexpr int kSpinRounds = 6;   // exponential pause backoff ...
    constexpr int kYieldRounds = 4;  // ... then yields, then park
    while (remaining.load() != 0) {
      TaskId id = pop(w);
      if (id < 0) {
        // Idle: prefer stealing a nested task over backing off — the
        // sub-epoch's owner is blocked in wait() until it drains.
        if (try_steal_nested(w)) {
          idle_rounds = 0;
          continue;
        }
        ++idle_rounds;
        if (idle_rounds <= kSpinRounds) {
          for (int i = 0; i < (1 << idle_rounds); ++i) cpu_pause();
        } else if (idle_rounds <= kSpinRounds + kYieldRounds) {
          std::this_thread::yield();
        } else {
          park(w);
          idle_rounds = 0;
        }
        continue;
      }
      idle_rounds = 0;
      execute(w, id);
    }
  }

  void worker_main(int w) {
    la::WorkspaceLease workspace_lease;
    // Publish the worker context so tasks run here can open parallel
    // nested sub-epochs (and thieves arrive with an arena leased). A
    // 1-worker epoch has nobody to share a sub-epoch with: no pool context,
    // so its nested epochs stay inline.
    WorkerContext context(width > 1 ? this : nullptr, w);
    worker_loop(w);
  }

  /// Reset the per-worker queues, parked mask, and central heap.
  void reset_queues() {
    seed_rr = 0;  // simulator replays restart the round-robin each epoch
    for (const auto& wsp : workers) {
      wsp->deque.clear();
      wsp->heap.clear();
      wsp->size.store(0);
      wsp->local_trace.clear();
    }
    prio_heap.clear();
    prio_size.store(0);
    for (std::size_t i = 0; i < parked_words; ++i) parked[i].store(0);
  }

  /// Replace the trace by this epoch's per-worker buffers, merged in start
  /// order (timestamps are relative to the epoch's start, and ids are task
  /// ids live or slots under replay, so epochs do not share one trace).
  void merge_trace() {
    if (!opts.record_trace) return;
    trace.clear();
    for (int w = 0; w < width; ++w) {
      const auto& lt = workers[static_cast<std::size_t>(w)]->local_trace;
      trace.insert(trace.end(), lt.begin(), lt.end());
    }
    std::stable_sort(trace.begin(), trace.end(),
                     [](const TraceEvent& a, const TraceEvent& b) {
                       return a.start_s < b.start_s;
                     });
  }

  /// The one dispatcher (DESIGN.md section 7): execute epoch CSR `g` with
  /// the slot closures in `fns`. A 1-worker epoch runs entirely on the
  /// calling thread and spawns none; a wider epoch runs every worker on a
  /// fresh pool thread while the caller only joins them. (A long-lived
  /// caller such as a service's batching thread, were it worker 0, would
  /// keep a worker's share of every epoch on whichever CPU it occupies,
  /// whereas fresh threads are placed on idle CPUs at each epoch.)
  /// Fuzzing is a 1-worker epoch whose prio heap is keyed by seeded random
  /// per-slot keys: keys descending along any topological order make the
  /// heap pop exactly that order, so every legal schedule is reachable,
  /// and a seed reproduces its order. `base` + slot is the id reported in the trace
  /// and in conflict diagnostics: the task id of a live epoch, the slot
  /// itself under replay.
  void run_epoch(const CapturedGraph& g, TaskId base) {
    t0 = Clock::now();
    const auto n = static_cast<std::size_t>(g.count);
    eg = &g;
    trace_base = base;
    const bool fuzz = opts.fuzz_schedule;
    width = fuzz ? 1 : opts.num_workers;
    policy = fuzz ? SchedulerPolicy::Priority : opts.policy;
    if (fuzz) {
      Rng rng(opts.fuzz_seed);
      fuzz_key.resize(n);
      for (int& k : fuzz_key) k = static_cast<int>(rng.next_u64() >> 33);
      key = fuzz_key.data();
    } else {
      key = g.priority.data();
    }
    dur.assign(n, 0.0);
    pending = std::make_unique<std::atomic<index_t>[]>(n);
    for (std::size_t i = 0; i < n; ++i)
      pending[i].store(g.pending0[i], std::memory_order_relaxed);
    if (opts.check_conflicts) checker_reset(g);
    reset_queues();
    for (std::size_t i = 0; i < n; ++i)
      if (g.pending0[i] == 0) seed(static_cast<TaskId>(i));
    remaining.store(g.count);
    if (width == 1 && n > 0) {
      worker_main(0);
    } else if (n > 0) {
      std::vector<std::thread> pool;
      pool.reserve(static_cast<std::size_t>(width));
      for (int w = 0; w < width; ++w)
        pool.emplace_back([this, w] { worker_main(w); });
      for (auto& th : pool) th.join();
    }
    merge_trace();
    eg = nullptr;
    key = nullptr;
  }
};

Engine::Engine() : Engine(Options{}) {}
Engine::Engine(Options opts) : impl_(std::make_unique<Impl>(opts)) {}
Engine::~Engine() = default;

Handle Engine::register_data(std::string name) {
  impl_->handles.push_back(HandleState{std::move(name), -1, {}});
  return Handle{static_cast<index_t>(impl_->handles.size()) - 1};
}

TaskId Engine::submit(std::function<void()> fn, std::vector<Access> accesses,
                      int priority, std::string label) {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "submit() called while wait_all() is running");
  im.open_submit_clock();
  if (im.replay != nullptr) {
    // Replay re-bind: the captured graph already fixes edges, priorities,
    // and access semantics, so only the closure is taken; everything else
    // the caller passes is ignored. Submission order IS the slot order.
    HCHAM_CHECK_MSG(static_cast<index_t>(im.fns.size()) < im.replay->count,
                    "replay: more submissions than captured slots");
    im.fns.push_back(std::move(fn));
    return static_cast<TaskId>(im.fns.size()) - 1;
  }
  if (im.all_drained()) {
    // First task of a new live epoch: the drained epoch's records go.
    im.tasks.clear();
    im.first = im.retired;
  }
  const TaskId id = im.next_id();
  Task t;
  t.label = std::move(label);
  t.priority = priority;
  if (im.accesses_tracked()) {
    // The checker reads the accesses at execution time, collapsed to one
    // mode per handle (a task may list a handle several times); a capture
    // keeps the same collapsed lists so replays stay checkable. Mixed
    // read+write collapses to ReadWrite — still exclusive for the checker.
    for (const Access& a : accesses) {
      auto it = std::find_if(t.accesses.begin(), t.accesses.end(),
                             [&a](const Access& b) {
                               return b.handle.id == a.handle.id;
                             });
      if (it == t.accesses.end())
        t.accesses.push_back(Access{a.handle, a.mode});
      else if (it->mode != a.mode)
        it->mode = AccessMode::ReadWrite;
    }
  }
  im.tasks.push_back(std::move(t));
  im.fns.push_back(std::move(fn));
  infer_edges(im.handles, accesses, id, im.retired, "unknown data handle",
              [&im, id](TaskId from) { im.add_edge(from, id); });
  return id;
}

void Engine::wait_all() {
  struct ExecGuard {
    std::atomic<bool>& flag;
    explicit ExecGuard(std::atomic<bool>& f) : flag(f) {
      flag.store(true, std::memory_order_release);
    }
    ~ExecGuard() { flag.store(false, std::memory_order_release); }
  } guard(impl_->executing);
  Impl& im = *impl_;
  im.close_submit_clock(im.replay != nullptr);
  if (im.replay != nullptr) {
    // Replay dispatch: the captured CSR runs as-is; the engine's task
    // records and handle states are untouched, so there is nothing to drain.
    // The armed state is always cleared — also when dispatch throws on a
    // slot-count mismatch — so the engine stays usable.
    struct ReplayGuard {
      Impl& im;
      ~ReplayGuard() {
        im.replay.reset();
        im.fns.clear();
      }
    } rguard{im};
    HCHAM_CHECK_MSG(static_cast<index_t>(im.fns.size()) == im.replay->count,
                    "replay: " + std::to_string(im.fns.size()) +
                        " closures bound for " +
                        std::to_string(im.replay->count) + " captured slots");
    im.run_epoch(*im.replay, 0);
    im.epochs_replayed.fetch_add(1, std::memory_order_relaxed);
    runtime_counters().graph_replays.fetch_add(1, std::memory_order_relaxed);
  } else {
    // Live dispatch: freeze the submitted tasks into the epoch CSR, run
    // it, write the measured durations back for graph(), and keep the CSR
    // when capture is armed. Every task has drained by now (even on task
    // failure the graph runs to completion).
    const std::shared_ptr<CapturedGraph> g = im.build_epoch_graph();
    im.run_epoch(*g, im.retired);
    im.fns.clear();
    for (std::size_t i = 0; i < im.dur.size(); ++i)
      im.tasks[static_cast<std::size_t>(im.retired - im.first) + i]
          .duration_s = im.dur[i];
    if (im.capture_armed) im.finish_capture(g);
    im.retired = im.next_id();
  }
  // A conflict means the engine itself scheduled two overlapping accesses:
  // more fundamental than any task failure, so it is surfaced first.
  if (!im.conflict_log.empty()) {
    im.first_error = nullptr;
    throw Error(im.conflict_log.front() +
                (im.conflict_log.size() > 1
                     ? " (+" + std::to_string(im.conflict_log.size() - 1) +
                           " more)"
                     : ""));
  }
  // Surface the first task failure to the caller. Remaining tasks have
  // been drained (dependents of the failed task still ran; kernels are
  // written to be safe on inconsistent inputs), so the engine stays usable.
  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
}

index_t Engine::num_tasks() const { return impl_->next_id(); }

index_t Engine::num_edges() const {
  index_t e = 0;
  for (const Task& t : impl_->tasks)
    e += static_cast<index_t>(t.successors.size());
  return e;
}

int Engine::num_workers() const { return impl_->opts.num_workers; }
SchedulerPolicy Engine::policy() const { return impl_->opts.policy; }

int Engine::seed_cursor() const { return impl_->seed_rr; }

bool Engine::begin_capture() {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "begin_capture() called while wait_all() is running");
  // A live nested sub-epoch would corrupt the captured closure-slot order:
  // its tasks bypass submit(), so the capture could never replay them.
  HCHAM_CHECK_MSG(im.nested_live.load() == 0,
                  "begin_capture: engine has live nested sub-epochs");
  if (im.capture_armed || im.replay != nullptr || !im.all_drained())
    return false;
  im.capture_armed = true;
  im.captured.reset();
  return true;
}

std::shared_ptr<const CapturedGraph> Engine::end_capture() {
  Impl& im = *impl_;
  im.capture_armed = false;  // also cancels an armed capture before wait_all
  std::shared_ptr<const CapturedGraph> g = std::move(im.captured);
  im.captured.reset();
  return g;
}

void Engine::begin_replay(std::shared_ptr<const CapturedGraph> graph) {
  Impl& im = *impl_;
  HCHAM_CHECK_MSG(graph != nullptr, "begin_replay: null graph");
  HCHAM_CHECK_MSG(!im.executing.load(std::memory_order_acquire),
                  "begin_replay() called while wait_all() is running");
  HCHAM_CHECK_MSG(!im.capture_armed && im.replay == nullptr,
                  "begin_replay: capture/replay already armed");
  HCHAM_CHECK_MSG(im.all_drained(),
                  "begin_replay: engine has undrained live tasks");
  HCHAM_CHECK_MSG(im.nested_live.load() == 0,
                  "begin_replay: engine has live nested sub-epochs");
  im.replay = std::move(graph);
  im.fns.clear();
  im.fns.reserve(static_cast<std::size_t>(im.replay->count));
  im.open_submit_clock();
}

bool Engine::capturing() const { return impl_->capture_armed; }
bool Engine::replaying() const { return impl_->replay != nullptr; }
bool Engine::drained() const { return impl_->all_drained(); }

Engine::ReplayStats Engine::replay_stats() const {
  return ReplayStats{
      impl_->epochs_captured.load(std::memory_order_relaxed),
      impl_->epochs_replayed.load(std::memory_order_relaxed)};
}

double Engine::last_submit_phase_s() const { return impl_->last_submit_s; }

int Engine::parked_workers() const {
  int n = 0;
  for (std::size_t i = 0; i < impl_->parked_words; ++i)
    n += std::popcount(impl_->parked[i].load());
  return n;
}

bool Engine::on_worker_thread() const {
  return tls_worker_pool == impl_.get() && tls_worker_id >= 0 &&
         !tls_in_nested_task;
}

TaskGraph Engine::graph() const {
  TaskGraph g;
  g.first = impl_->first;
  g.nodes.reserve(impl_->tasks.size());
  for (const Task& t : impl_->tasks) {
    TaskGraph::Node n;
    n.label = t.label;
    n.priority = t.priority;
    n.duration_s = t.duration_s;
    n.successors = t.successors;
    for (TaskId& s : n.successors) s -= g.first;
    n.num_dependencies = t.num_deps;
    g.nodes.push_back(std::move(n));
  }
  return g;
}

const std::vector<TraceEvent>& Engine::trace() const { return impl_->trace; }

const std::vector<std::string>& Engine::conflicts() const {
  return impl_->conflict_log;
}

std::string Engine::to_dot() const {
  const std::vector<Task>& tasks = impl_->tasks;
  const TaskId first = impl_->first;
  std::ostringstream out;
  out << "digraph tasks {\n";
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const TaskId id = first + static_cast<TaskId>(i);
    out << "  t" << id << " [label=\""
        << (tasks[i].label.empty() ? std::to_string(id) : tasks[i].label)
        << "\"];\n";
  }
  for (std::size_t i = 0; i < tasks.size(); ++i)
    for (const TaskId s : tasks[i].successors)
      out << "  t" << first + static_cast<TaskId>(i) << " -> t" << s
          << ";\n";
  out << "}\n";
  return out.str();
}

// --- NestedEpoch (DESIGN.md section 11) ------------------------------------

NestedEpoch::NestedEpoch(Engine& engine, double est_flops)
    : impl_(std::make_unique<NestedEpochImpl>()) {
  NestedEpochImpl& im = *impl_;
  im.eng = engine.impl_.get();
  im.eng->nested_live.fetch_add(1);
  // The env knobs are read per construction (not cached) so tests can flip
  // them with setenv between epochs; the gate runs once per tile task,
  // which is far too coarse for getenv to matter.
  if (env_long("HCHAM_NESTED_DISABLE", 0) != 0 || !engine.on_worker_thread()) {
    runtime_counters().nested_inline.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (env_long("HCHAM_NESTED_FORCE", 0) == 0) {
    if (est_flops < kNestedMinFlops || !im.eng->nested_workers_available()) {
      runtime_counters().nested_inline.fetch_add(1,
                                                 std::memory_order_relaxed);
      return;
    }
  }
  im.is_parallel = true;
  im.owner_worker = tls_worker_id;
  runtime_counters().nested_epochs.fetch_add(1, std::memory_order_relaxed);
}

NestedEpoch::~NestedEpoch() {
  try {
    wait();
  } catch (...) {
    // Drain-only destructor: the error was already recorded; a caller that
    // cares must wait() explicitly.
  }
  impl_->eng->nested_live.fetch_sub(1);
}

Handle NestedEpoch::register_data(std::string) {
  NestedEpochImpl& im = *impl_;
  HCHAM_CHECK_MSG(!im.sealed, "NestedEpoch: register_data() after wait()");
  // Handles are sub-epoch-local; names are accepted for symmetry with
  // Engine::register_data but nested graphs are never rendered.
  im.handles.emplace_back();
  return Handle{static_cast<index_t>(im.handles.size()) - 1};
}

TaskId NestedEpoch::submit(std::function<void()> fn,
                           std::vector<Access> accesses, int priority,
                           std::string label) {
  NestedEpochImpl& im = *impl_;
  HCHAM_CHECK_MSG(!im.sealed, "NestedEpoch: submit() after wait()");
  if (!im.is_parallel) {
    // Inline mode: submission order is a valid topological order of the
    // graph the accesses imply, so running immediately is bit-identical to
    // any parallel schedule. Errors are collected, not raised — the
    // sub-epoch drains fully, exactly like parallel mode — and the first
    // one is rethrown from wait().
    const TaskId id = im.inline_tasks++;
    try {
      fn();
    } catch (...) {
      if (!im.first_error) im.first_error = std::current_exception();
    }
    return id;
  }
  const TaskId id = static_cast<TaskId>(im.tasks.size());
  im.tasks.emplace_back();
  NestedEpochImpl::NestedTask& t = im.tasks.back();
  t.fn = std::move(fn);
  t.label = std::move(label);
  t.priority = priority;
  // Same STF inference as Engine::submit, on the sub-epoch's own handle
  // table. Submission is single-threaded (the owner), so no locks; the
  // pending counters become shared only after wait() publishes the epoch.
  index_t pending = 0;
  auto add_edge = [&im, &pending, id](TaskId from) {
    if (from == id) return;
    NestedEpochImpl::NestedTask& src =
        im.tasks[static_cast<std::size_t>(from)];
    if (src.last_edge_to == id) return;  // dedupe within this submit
    src.last_edge_to = id;
    // Engine-wide nested fault injection: dropping an edge here leaves the
    // successor's pending count consistent (both sides skipped), so the
    // graph still drains — it just races, which is the point.
    if (im.eng->nested_edge_counter.fetch_add(1) ==
        im.eng->opts.nested_fault_drop_edge)
      return;
    src.successors.push_back(id);
    ++im.edges;
    ++pending;
  };
  infer_edges(im.handles, accesses, id, 0, "unknown nested data handle",
              add_edge);
  t.pending.store(pending, std::memory_order_relaxed);
  return id;
}

void NestedEpoch::wait() {
  NestedEpochImpl& im = *impl_;
  if (!im.sealed) {
    im.sealed = true;
    if (im.is_parallel && !im.tasks.empty()) {
      Engine::Impl& eng = *im.eng;
      const auto n = static_cast<index_t>(im.tasks.size());
      im.remaining.store(n);
      // Publish: register the epoch and its initially-ready set under
      // nested_mu, bump the occupancy mirror, THEN wake parked workers —
      // pairing with park()'s announce-then-recheck, so a parking worker
      // either sees nested_ready_total or receives the targeted wake.
      index_t ready0 = 0;
      {
        std::lock_guard<std::mutex> lk(eng.nested_mu);
        eng.nested_epochs.push_back(&im);
        for (TaskId i = 0; i < n; ++i)
          if (im.tasks[static_cast<std::size_t>(i)].pending.load(
                  std::memory_order_relaxed) == 0) {
            im.ready.push_back(i);
            ++ready0;
          }
        eng.nested_ready_total.fetch_add(ready0);
      }
      if (ready0 > 1) eng.wake(ready0 - 1);  // owner takes one itself
      // Owner help loop: run this epoch's ready tasks (never other
      // epochs' — the owner must not sink into a sibling's subgraph while
      // its own could drain); when none are ready, thieves hold the tail,
      // so back off lightly until remaining hits zero.
      int idle = 0;
      constexpr int kSpin = 6;
      while (im.remaining.load() != 0) {
        const TaskId id = eng.nested_pop(im);
        if (id >= 0) {
          idle = 0;
          eng.nested_execute(im, id, im.owner_worker);
          continue;
        }
        ++idle;
        if (idle <= kSpin) {
          for (int i = 0; i < (1 << idle); ++i) cpu_pause();
        } else {
          std::this_thread::yield();
        }
      }
      {
        std::lock_guard<std::mutex> lk(eng.nested_mu);
        eng.nested_epochs.erase(std::find(eng.nested_epochs.begin(),
                                          eng.nested_epochs.end(), &im));
      }
    }
  }
  if (im.first_error) {
    std::exception_ptr e = im.first_error;
    im.first_error = nullptr;
    std::rethrow_exception(e);
  }
}

bool NestedEpoch::parallel() const { return impl_->is_parallel; }

index_t NestedEpoch::num_tasks() const {
  return impl_->is_parallel ? static_cast<index_t>(impl_->tasks.size())
                            : impl_->inline_tasks;
}

index_t NestedEpoch::num_edges() const { return impl_->edges; }

index_t NestedEpoch::stolen() const { return impl_->stolen.load(); }

TaskGraph TaskGraph::tail_from(TaskId id) const {
  HCHAM_CHECK(id >= first && id <= first + num_tasks());
  const index_t off = id - first;
  TaskGraph g;
  g.first = id;
  g.nodes.reserve(static_cast<std::size_t>(num_tasks() - off));
  for (index_t i = off; i < num_tasks(); ++i) {
    Node n = nodes[static_cast<std::size_t>(i)];
    for (TaskId& s : n.successors) {
      HCHAM_CHECK_MSG(s >= off, "edge crosses the sub-graph boundary");
      s -= off;
    }
    g.nodes.push_back(std::move(n));
  }
  return g;
}

double TaskGraph::critical_path_s() const {
  // Task ids ascend in submission order and edges point forward, so a
  // reverse sweep computes longest paths.
  std::vector<double> cp(nodes.size(), 0.0);
  for (index_t i = static_cast<index_t>(nodes.size()) - 1; i >= 0; --i) {
    const Node& n = nodes[static_cast<std::size_t>(i)];
    double best = 0.0;
    for (const TaskId s : n.successors)
      best = std::max(best, cp[static_cast<std::size_t>(s)]);
    cp[static_cast<std::size_t>(i)] = n.duration_s + best;
  }
  double result = 0.0;
  for (const double v : cp) result = std::max(result, v);
  return result;
}

}  // namespace hcham::rt
