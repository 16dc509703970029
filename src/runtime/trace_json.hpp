// Export an execution trace in the Chrome tracing JSON format
// (chrome://tracing, Perfetto): one lane per worker, one slice per task.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "common/counters.hpp"
#include "common/json.hpp"
#include "runtime/types.hpp"

namespace hcham::rt {

/// Write `trace` to `out`. A live event's label comes from the matching
/// task graph when provided, mapped through its `first` id (pass {} to use
/// task ids); a replayed event is named by its slot, since the graph
/// describes a live epoch and slots are not task ids.
inline void trace_to_json(const std::vector<TraceEvent>& trace,
                          const TaskGraph& graph, std::ostream& out) {
  out << "[\n";
  bool first = true;
  for (const TraceEvent& ev : trace) {
    if (!first) out << ",\n";
    first = false;
    std::string name =
        (ev.replayed ? "replay slot " : "task") + std::to_string(ev.task);
    const TaskId node = ev.task - graph.first;
    if (!ev.replayed && node >= 0 && node < graph.num_tasks() &&
        !graph.nodes[static_cast<std::size_t>(node)].label.empty()) {
      name = graph.nodes[static_cast<std::size_t>(node)].label;
    }
    out << "  {\"name\": \"" << json_escape(name)
        << "\", \"ph\": \"X\", \"pid\": 0, "
        << "\"tid\": " << ev.worker << ", \"ts\": " << ev.start_s * 1e6
        << ", \"dur\": " << (ev.end_s - ev.start_s) * 1e6 << "}";
  }
  // Scheduler-visibility counters as one Chrome counter sample; these are
  // process-wide tallies at export time, not per-trace deltas (difference
  // two exports to attribute them to one run).
  const RuntimeCounterSnapshot rc = snapshot_runtime_counters();
  if (!first) out << ",\n";
  out << "  {\"name\": \"scheduler\", \"ph\": \"C\", \"pid\": 0, \"ts\": 0, "
      << "\"args\": {\"ll_steals\": " << rc.ll_steals
      << ", \"ll_failed_steals\": " << rc.ll_failed_steals
      << ", \"ll_parks\": " << rc.ll_parks << ", \"ll_wakes\": " << rc.ll_wakes
      << "}}";
  out << "\n]\n";
}

}  // namespace hcham::rt
