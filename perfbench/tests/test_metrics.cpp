// Unit tests of the benchmark's helpers on hand-built task graphs and traces.
// Exit status 0 when every check passes.
#include <cmath>
#include <cstdio>
#include <string>

#include "metrics.hpp"

namespace {

int g_failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using hcham::rt::TaskGraph;
using hcham::rt::TraceEvent;

TaskGraph::Node node(const char* label, double d, std::vector<long> succ) {
  TaskGraph::Node n;
  n.label = label;
  n.duration_s = d;
  n.successors.assign(succ.begin(), succ.end());
  return n;
}

void test_percentile() {
  using perfbench::percentile;
  check(near(percentile({3.0}, 0.9), 3.0), "single sample");
  check(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "even median");
  check(near(percentile({5.0, 1.0, 3.0}, 0.5), 3.0), "odd median");
  std::vector<double> v;
  for (int i = 1; i <= 11; ++i) v.push_back(static_cast<double>(i));
  check(near(percentile(v, 0.9), 10.0), "p90 of 1..11");
  check(near(percentile(v, 0.0), 1.0) && near(percentile(v, 1.0), 11.0),
        "extremes");
}

void test_critical_path() {
  // Diamond 0 -> {1, 2} -> 3; the longer branch goes through 2.
  TaskGraph g;
  g.nodes = {node("getrf", 1.0, {1, 2}), node("trsm", 2.0, {3}),
             node("trsm", 5.0, {3}), node("gemm", 1.0, {})};
  check(near(g.critical_path_s(), 7.0), "diamond critical path");
  check(near(perfbench::critical_path_fraction(g, 14.0), 0.5),
        "critical path fraction");
  const auto by_label = perfbench::busy_by_label(g);
  check(near(by_label.at("trsm"), 7.0) && near(by_label.at("gemm"), 1.0),
        "busy by label");
}

void test_accounting() {
  // Two workers over a 10 s epoch. Worker 0 runs tasks 2 and 3 back to
  // back; worker 1 runs task 4. Task 1 predates the epoch and is ignored.
  const std::vector<TraceEvent> trace = {
      {1, 0, 0.0, 50.0}, {2, 0, 0.0, 4.0}, {3, 0, 4.0, 6.0}, {4, 1, 1.0, 3.0}};
  const perfbench::EpochAccounting a =
      perfbench::account_epoch(trace, 2, 2, 10.0);
  check(near(a.busy_s, 8.0), "busy sums worker intervals");
  check(near(a.idle_s, 12.0), "idle is the rest of workers x window");
  check(near(a.busy_frac, 0.4), "busy fraction");

  // A task whose nested sub-epoch was helped: the owner's interval covers
  // the helpers' work, and an overlapping record on the same worker must
  // not count that instant twice.
  const std::vector<TraceEvent> nested = {
      {0, 0, 0.0, 6.0}, {1, 0, 2.0, 5.0}, {2, 1, 7.0, 9.0}};
  const perfbench::EpochAccounting b =
      perfbench::account_epoch(nested, 0, 2, 10.0);
  check(near(b.busy_s, 8.0), "overlap on one worker counted once");
  check(near(b.idle_s + b.busy_s, 20.0), "busy + idle fill workers x wall");
}

void test_result_json() {
  const std::string s = perfbench::result_json(
      true, 3, 0, {{"factor_s", 0.5, "s"}, {"core.tasks", 385.0, "count"}});
  check(s ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
            "\"metrics\": {\"factor_s\": {\"value\": 0.5, \"unit\": \"s\"}, "
            "\"core.tasks\": {\"value\": 385, \"unit\": \"count\"}}}",
        "result line");
}

}  // namespace

int main() {
  test_percentile();
  test_critical_path();
  test_accounting();
  test_result_json();
  if (g_failures == 0) std::printf("all perfbench helper tests passed\n");
  return g_failures == 0 ? 0 : 1;
}
