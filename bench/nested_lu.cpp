// Nested sub-epoch benchmark (DESIGN.md section 11): Tile-H LU on a
// deliberately COARSE tile grid (nt x nt with nt in {2, 4}), where the
// top-level DAG exposes far fewer tasks than workers and the paper's
// coarse-grain weakness shows: most of the pool idles through the big
// diagonal/panel kernels. Nested epochs let those idle workers steal into
// the tiles' inner H-task graphs, which is exactly the regime the gate is
// built for (large tiles, parked workers).
//
// Usage: nested_lu [--smoke] [--out=PATH]
//   --smoke    trimmed problem for CI
//   --out=PATH result file (default BENCH_nested.json)
//
// Records in BENCH_nested.json (base schema in EXPERIMENTS.md) carry extra
// fields: "workers", "nt" (tile grid), "nested" (0 = HCHAM_NESTED_DISABLE
// referee, 1 = nested), "speedup" (nested vs the referee at the same
// worker count/policy/grid) and "nested_epochs" / "nested_steals" from the
// runtime counters.
//
// Exit status is nonzero if the best nested-over-disabled speedup across
// nt in {2, 4}, measured on min(hw, 8) real workers, falls below 1.3x.
// Hosts with fewer than 4 hardware threads cannot show the effect: the
// gate reports skipped and exits 0.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "common/counters.hpp"

using namespace hcham;

namespace {

bench::BenchJson g_json;

struct Point {
  double time_s = 0.0;
  double nested_epochs = 0.0;
  double nested_steals = 0.0;
};

void report(rt::SchedulerPolicy pol, index_t n, index_t nt, int workers,
            bool nested, const Point& p, double time_off) {
  bench::BenchRecord rec;
  rec.name = std::string("tileh_lu_measured_") + rt::to_string(pol);
  rec.size = n;
  rec.reps = 1;
  rec.median_s = rec.min_s = p.time_s;
  rec.extra = {{"workers", static_cast<double>(workers)},
               {"nt", static_cast<double>(nt)},
               {"nested", nested ? 1.0 : 0.0},
               {"speedup", p.time_s > 0.0 ? time_off / p.time_s : 0.0},
               {"nested_epochs", p.nested_epochs},
               {"nested_steals", p.nested_steals}};
  g_json.add(rec);
  std::printf(
      "%-24s N=%-6ld nt=%ld P=%-2d nested=%d  %.4f s  speedup %.2fx\n",
      rec.name.c_str(), static_cast<long>(n), static_cast<long>(nt), workers,
      nested ? 1 : 0, p.time_s, p.time_s > 0.0 ? time_off / p.time_s : 0.0);
}

/// Sets HCHAM_NESTED_DISABLE for one run and restores the caller's value
/// (or its absence) afterwards.
struct NestedDisable {
  std::optional<std::string> saved;
  explicit NestedDisable(bool disable) {
    if (const char* v = std::getenv("HCHAM_NESTED_DISABLE")) saved = v;
    ::setenv("HCHAM_NESTED_DISABLE", disable ? "1" : "0", 1);
  }
  ~NestedDisable() {
    if (saved) ::setenv("HCHAM_NESTED_DISABLE", saved->c_str(), 1);
    else ::unsetenv("HCHAM_NESTED_DISABLE");
  }
};

/// One measured coarse-grid Tile-H LU on real threads, with nesting either
/// disabled (referee) or live through the size/occupancy gate.
Point run_measured(index_t n, index_t nt, double eps, int workers,
                   rt::SchedulerPolicy pol, bool nested) {
  const NestedDisable env(!nested);
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  rt::Engine engine({.num_workers = workers, .policy = pol});
  auto a = core::TileHMatrix<double>::build(
      engine, problem.points(), gen, bench::tileh_options(n / nt, eps));
  reset_runtime_counters();
  a.factorize_submit(engine);
  Timer t;
  engine.wait_all();
  Point p;
  p.time_s = t.seconds();
  const auto c = snapshot_runtime_counters();
  p.nested_epochs = static_cast<double>(c.nested_epochs);
  p.nested_steals = static_cast<double>(c.nested_steals);
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_nested.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(smoke ? 1200 : 3000);
  const std::vector<index_t> grids = {2, 4};
  const unsigned hw = std::thread::hardware_concurrency();
  const bool skipped = hw < 4;
  const int workers = static_cast<int>(std::min(hw, 8u));
  std::printf("# nested_lu%s (git %s) N=%ld eps=%.1e hw_threads=%u (%s)\n",
              smoke ? " --smoke" : "", bench::bench_git_rev().c_str(),
              static_cast<long>(n), eps, hw,
              skipped ? "gate skipped" : "measured gate");

  // Nested vs HCHAM_NESTED_DISABLE on the same real workers.
  double gate_speedup = 0.0;
  if (!skipped) {
    for (const index_t nt : grids) {
      for (const auto pol : {rt::SchedulerPolicy::WorkStealing,
                             rt::SchedulerPolicy::Priority}) {
        const Point off = run_measured(n, nt, eps, workers, pol, false);
        report(pol, n, nt, workers, false, off, off.time_s);
        const Point on = run_measured(n, nt, eps, workers, pol, true);
        report(pol, n, nt, workers, true, on, off.time_s);
        if (on.time_s > 0.0)
          gate_speedup = std::max(gate_speedup, off.time_s / on.time_s);
      }
    }
  }

  if (!g_json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  else
    std::printf("# wrote %s (%zu records)\n", out.c_str(),
                g_json.records().size());

  if (skipped) {
    std::printf("# gate: nested tile-h speedup skipped (hw_threads=%u)\n",
                hw);
    return 0;
  }
  std::printf("# gate: %d-worker nested tile-h speedup %.2fx (measured, "
              "threshold 1.3)\n",
              workers, gate_speedup);
  if (gate_speedup < 1.3) {
    std::fprintf(stderr,
                 "FAIL: %d-worker nested Tile-H LU speedup %.2fx below 1.3x\n",
                 workers, gate_speedup);
    return 1;
  }
  return 0;
}
