// Discrete-event replay of an executed task graph on P virtual workers.
//
// This is the substitution for the paper's 36-core PlaFRIM node (see
// DESIGN.md): per-task durations are measured on the real machine by the
// engine, then the DAG is replayed under each scheduling policy at any
// worker count. The model includes the per-task scheduler overhead and a
// per-dependency management cost, which reproduces the paper's central
// observation that fine-grained DAGs (HMAT) pay for their huge dependency
// counts while coarse Tile-H tasks amortize them.
#pragma once

#include "runtime/types.hpp"

namespace hcham::rt {

struct SimParams {
  /// Fixed scheduler cost charged per task execution (pop, bookkeeping).
  double task_overhead_s = 2.0e-6;
  /// Cost charged per inbound dependency edge of a task (the runtime must
  /// track and resolve each one).
  double edge_overhead_s = 4.0e-7;
  /// Multiply measured durations by this factor before replay. The bench
  /// harness uses 1/K to replay at production kernel speed (MKL-class
  /// BLAS), where K is the measured speed ratio between MKL on the paper's
  /// Skylake core and this library's scalar kernels - see DESIGN.md. The
  /// runtime overheads above are NOT scaled, which is the point: the
  /// relative weight of runtime costs then matches the paper's testbed.
  double duration_scale = 1.0;
  /// Sequential-task-flow submission model: one thread submits tasks in
  /// order, paying this much per task plus edge_submit_cost_s per inbound
  /// dependency (the cost of inferring it). Task i cannot start before its
  /// submission completes, which throttles very fine-grained DAGs.
  double submit_cost_s = 0.0;
  double edge_submit_cost_s = 0.0;
  /// Serialized dispatch: every task acquisition passes through the
  /// runtime's shared state (queues, dependency counters) for this long,
  /// system-wide. This is the contention cost the paper identifies as the
  /// reason fine-grain H-LU DAGs stop scaling ("the cost of handling all
  /// fine grain dependencies becomes too important with respect to the
  /// computational tasks"). The central prio queue pays it in full;
  /// distributed ws/lws queues pay a fraction (they still share the
  /// dependency bookkeeping).
  double dispatch_serial_cost_s = 0.0;
  double distributed_dispatch_factor = 0.4;
};

struct SimResult {
  int workers = 0;
  SchedulerPolicy policy = SchedulerPolicy::Priority;
  double makespan_s = 0.0;
  /// Sum of effective task durations (kernel time + per-task/per-edge
  /// runtime overhead). Strictly execution: time a worker spends queued
  /// behind the serialized dispatch gate is NOT counted here.
  double busy_s = 0.0;
  /// Total time workers spent waiting on the serialized runtime dispatch
  /// (the `dispatch_serial_cost_s` contention model) before their task
  /// could start. Previously folded into busy_s, which inflated the
  /// reported efficiency exactly when contention was worst.
  double dispatch_wait_s = 0.0;
  /// Pops served from another worker's queue (ws/lws only; the central
  /// Priority queue has no notion of a steal).
  index_t steals = 0;
  double parallel_efficiency() const {
    return makespan_s > 0.0
               ? busy_s / (makespan_s * static_cast<double>(workers))
               : 0.0;
  }
};

/// Replay `g` on `workers` virtual workers under `policy`.
SimResult simulate(const TaskGraph& g, SchedulerPolicy policy, int workers,
                   const SimParams& params = {});

}  // namespace hcham::rt
