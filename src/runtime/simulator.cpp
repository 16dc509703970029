#include "runtime/simulator.hpp"

#include <algorithm>
#include <deque>
#include <queue>
#include <vector>

namespace hcham::rt {

namespace {

/// Priority order shared with the engine: higher priority, then older.
struct PrioLess {
  const TaskGraph* g;
  bool operator()(TaskId a, TaskId b) const {
    const auto& na = g->nodes[static_cast<std::size_t>(a)];
    const auto& nb = g->nodes[static_cast<std::size_t>(b)];
    if (na.priority != nb.priority) return na.priority < nb.priority;
    return a > b;
  }
};

/// Scheduler state mirroring the engine's three policies.
class SimScheduler {
 public:
  SimScheduler(const TaskGraph& g, SchedulerPolicy policy, int workers)
      : g_(&g), policy_(policy), workers_(workers) {
    deques_.resize(static_cast<std::size_t>(workers));
    heaps_.resize(static_cast<std::size_t>(workers));
  }

  void push(TaskId id, int releasing_worker) {
    switch (policy_) {
      case SchedulerPolicy::Priority:
        prio_.push_back(id);
        std::push_heap(prio_.begin(), prio_.end(), PrioLess{g_});
        break;
      case SchedulerPolicy::WorkStealing:
        deques_[static_cast<std::size_t>(releasing_worker)].push_back(id);
        break;
      case SchedulerPolicy::LocalityWorkStealing: {
        auto& h = heaps_[static_cast<std::size_t>(releasing_worker)];
        h.push_back(id);
        std::push_heap(h.begin(), h.end(), PrioLess{g_});
        break;
      }
    }
    ++size_;
  }

  TaskId pop(int w) {
    if (size_ == 0) return -1;
    TaskId id = -1;
    switch (policy_) {
      case SchedulerPolicy::Priority: {
        if (prio_.empty()) return -1;
        std::pop_heap(prio_.begin(), prio_.end(), PrioLess{g_});
        id = prio_.back();
        prio_.pop_back();
        break;
      }
      case SchedulerPolicy::WorkStealing: {
        auto& own = deques_[static_cast<std::size_t>(w)];
        if (!own.empty()) {
          id = own.back();
          own.pop_back();
          break;
        }
        // Steal from the longest queue (FIFO on the thief side).
        int victim = -1;
        std::size_t best = 0;
        for (int v = 0; v < workers_; ++v) {
          if (v == w) continue;
          const std::size_t sz = deques_[static_cast<std::size_t>(v)].size();
          if (sz > best) {
            best = sz;
            victim = v;
          }
        }
        if (victim < 0) return -1;
        auto& vq = deques_[static_cast<std::size_t>(victim)];
        id = vq.front();
        vq.pop_front();
        ++steals_;
        break;
      }
      case SchedulerPolicy::LocalityWorkStealing: {
        auto& own = heaps_[static_cast<std::size_t>(w)];
        if (!own.empty()) {
          std::pop_heap(own.begin(), own.end(), PrioLess{g_});
          id = own.back();
          own.pop_back();
          break;
        }
        // Ring scan: pop the top of the first non-empty neighbour.
        for (int d = 1; d < workers_ && id < 0; ++d) {
          auto& vq = heaps_[static_cast<std::size_t>((w + d) % workers_)];
          if (vq.empty()) continue;
          std::pop_heap(vq.begin(), vq.end(), PrioLess{g_});
          id = vq.back();
          vq.pop_back();
        }
        if (id < 0) return -1;
        ++steals_;
        break;
      }
    }
    --size_;
    return id;
  }

  index_t steals() const { return steals_; }

 private:
  const TaskGraph* g_;
  SchedulerPolicy policy_;
  int workers_;
  index_t size_ = 0;
  index_t steals_ = 0;
  std::vector<TaskId> prio_;
  std::vector<std::deque<TaskId>> deques_;
  std::vector<std::vector<TaskId>> heaps_;
};

/// Event kinds: a task finishing on a worker, or a task's submission
/// completing (sequential-task-flow release).
struct Event {
  double time = 0.0;
  int worker = -1;   ///< -1 for Release events
  TaskId task = -1;
  bool is_release = false;
  bool operator>(const Event& o) const {
    if (time != o.time) return time > o.time;
    if (task != o.task) return task > o.task;  // deterministic tie-break
    return is_release && !o.is_release;
  }
};

}  // namespace

SimResult simulate(const TaskGraph& g, SchedulerPolicy policy, int workers,
                   const SimParams& params) {
  HCHAM_CHECK(workers >= 1);
  SimResult result;
  result.workers = workers;
  result.policy = policy;
  const index_t n = g.num_tasks();
  if (n == 0) return result;

  std::vector<index_t> pending(static_cast<std::size_t>(n));
  for (index_t i = 0; i < n; ++i)
    pending[static_cast<std::size_t>(i)] =
        g.nodes[static_cast<std::size_t>(i)].num_dependencies;

  // Sequential submission: task i is available only once the submitting
  // thread has reached it.
  std::vector<double> release(static_cast<std::size_t>(n), 0.0);
  if (params.submit_cost_s > 0.0 || params.edge_submit_cost_s > 0.0) {
    double cum = 0.0;
    for (index_t i = 0; i < n; ++i) {
      cum += params.submit_cost_s +
             params.edge_submit_cost_s *
                 static_cast<double>(
                     g.nodes[static_cast<std::size_t>(i)].num_dependencies);
      release[static_cast<std::size_t>(i)] = cum;
    }
  }

  SimScheduler sched(g, policy, workers);
  int seed_rr = 0;
  auto next_seed = [&] {
    const int w = seed_rr;
    seed_rr = (seed_rr + 1) % workers;
    return w;
  };

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events;
  // Dependency-free tasks become ready when their submission completes.
  for (index_t i = 0; i < n; ++i) {
    if (pending[static_cast<std::size_t>(i)] != 0) continue;
    if (release[static_cast<std::size_t>(i)] <= 0.0) {
      sched.push(i, next_seed());
    } else {
      events.push(Event{release[static_cast<std::size_t>(i)], -1, i, true});
    }
  }

  auto effective_duration = [&](TaskId id) {
    const auto& node = g.nodes[static_cast<std::size_t>(id)];
    return node.duration_s * params.duration_scale + params.task_overhead_s +
           params.edge_overhead_s *
               static_cast<double>(node.num_dependencies);
  };

  std::vector<char> worker_busy(static_cast<std::size_t>(workers), 0);

  // Serialized runtime state: each dispatch passes through it in turn.
  const double serial_cost =
      params.dispatch_serial_cost_s *
      (policy == SchedulerPolicy::Priority
           ? 1.0
           : params.distributed_dispatch_factor);
  double runtime_free = 0.0;

  auto assign_idle = [&](double now) {
    for (int w = 0; w < workers; ++w) {
      if (worker_busy[static_cast<std::size_t>(w)]) continue;
      const TaskId id = sched.pop(w);
      if (id < 0) continue;
      double start = now;
      if (serial_cost > 0.0) {
        start = std::max(now, runtime_free);
        runtime_free = start + serial_cost;
        start = runtime_free;
      }
      const double dur = effective_duration(id);
      worker_busy[static_cast<std::size_t>(w)] = 1;
      result.busy_s += dur;
      result.dispatch_wait_s += start - now;
      events.push(Event{start + dur, w, id, false});
    }
  };

  double now = 0.0;
  assign_idle(now);
  while (!events.empty()) {
    const Event e = events.top();
    events.pop();
    now = e.time;
    if (e.is_release) {
      sched.push(e.task, next_seed());
    } else {
      worker_busy[static_cast<std::size_t>(e.worker)] = 0;
      for (const TaskId s :
           g.nodes[static_cast<std::size_t>(e.task)].successors) {
        if (--pending[static_cast<std::size_t>(s)] != 0) continue;
        if (release[static_cast<std::size_t>(s)] <= now) {
          sched.push(s, e.worker);
        } else {
          events.push(
              Event{release[static_cast<std::size_t>(s)], -1, s, true});
        }
      }
    }
    assign_idle(now);
  }
  result.steals = sched.steals();
  result.makespan_s = now;
  return result;
}

}  // namespace hcham::rt
