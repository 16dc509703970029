// Public vocabulary of the task runtime (the STARPU analogue): data
// handles, access modes, scheduler policies, and the task-graph snapshot
// used by the DAG tools and the scaling simulator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/config.hpp"

namespace hcham::rt {

/// Opaque reference to a piece of data tracked by the engine. Dependencies
/// between tasks are inferred from the access modes declared on handles
/// (sequential-task-flow semantics, paper Section II-B).
struct Handle {
  index_t id = -1;
  bool valid() const { return id >= 0; }
};

using TaskId = index_t;

enum class AccessMode {
  Read,
  Write,
  ReadWrite,
};

struct Access {
  Handle handle;
  AccessMode mode = AccessMode::Read;
};

inline Access read(Handle h) { return Access{h, AccessMode::Read}; }
inline Access write(Handle h) { return Access{h, AccessMode::Write}; }
inline Access readwrite(Handle h) { return Access{h, AccessMode::ReadWrite}; }

/// The three STARPU scheduling strategies evaluated in the paper (Sec. V-C).
enum class SchedulerPolicy {
  WorkStealing,          ///< "ws": per-worker queues, steal from most loaded
  LocalityWorkStealing,  ///< "lws": priority-sorted queues, neighbour steal
  Priority,              ///< "prio": one central priority queue
};

constexpr const char* to_string(SchedulerPolicy p) {
  switch (p) {
    case SchedulerPolicy::WorkStealing: return "ws";
    case SchedulerPolicy::LocalityWorkStealing: return "lws";
    case SchedulerPolicy::Priority: return "prio";
  }
  return "?";
}

/// Immutable snapshot of an executed task graph: structure, priorities, and
/// measured durations. Input to the DOT exporter and the scaling simulator.
/// Node i is task `first + i`; successors are node indices.
struct TaskGraph {
  struct Node {
    std::string label;
    int priority = 0;
    double duration_s = 0.0;           ///< measured execution time
    std::vector<TaskId> successors;    ///< deduplicated forward edges
    index_t num_dependencies = 0;      ///< in-degree
  };
  std::vector<Node> nodes;
  TaskId first = 0;  ///< task id of nodes[0]

  index_t num_tasks() const { return static_cast<index_t>(nodes.size()); }
  index_t num_edges() const {
    index_t e = 0;
    for (const auto& n : nodes)
      e += static_cast<index_t>(n.successors.size());
    return e;
  }
  double total_work_s() const {
    double t = 0;
    for (const auto& n : nodes) t += n.duration_s;
    return t;
  }
  /// Longest path through the DAG (the parallel-time lower bound).
  double critical_path_s() const;

  /// Sub-graph of the tasks from id `id` (in [first, first + num_tasks()])
  /// on. Valid when no edges cross the boundary (i.e. the earlier tasks
  /// were executed by a wait_all() before the later ones were submitted, as
  /// the engine then drops the already-satisfied dependencies). Successors
  /// are rebased; the result's `first` is `id`.
  TaskGraph tail_from(TaskId id) const;
};

/// Per-task execution record (worker, start, end relative to wait_all).
/// `task` is the task id of a live epoch's task, or the slot of a replayed
/// epoch's task (`replayed` set): replay slots count from 0 and are not
/// task ids.
struct TraceEvent {
  TaskId task = -1;
  int worker = -1;
  double start_s = 0.0;
  double end_s = 0.0;
  bool replayed = false;
};

}  // namespace hcham::rt
