// Shared harness for the per-figure benchmark binaries.
//
// Every binary prints CSV rows (comma separated, header first) matching the
// series of the corresponding paper figure, prefixed by '#'-comment lines
// describing the setup. Problem sizes default to laptop scale (see
// DESIGN.md substitution table) and can be scaled with environment
// variables:
//   HCHAM_BENCH_SCALE  multiply all N by this factor (default 1.0)
//   HCHAM_EPS          block accuracy (default 1e-4, the paper's setting)
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bem/testcase.hpp"
#include "common/env.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "common/topology.hpp"
#include "core/hchameleon.hpp"
#include "runtime/simulator.hpp"

namespace hcham::bench {

// ---------------------------------------------------------------------------
// Machine-readable benchmark output (BENCH_*.json). Schema documented in
// EXPERIMENTS.md: {"git_rev": "...", "records": [{"name", "size", "reps",
// "median_s", "min_s", "gflops", "source"}, ...]}. CI uploads these files as
// artifacts and compares kernels across revisions.

/// Where a record's numbers come from: timed on this host, or computed by
/// the discrete-event simulator (rt::simulate).
enum class Source { Measured, Modelled };

inline const char* to_string(Source s) {
  return s == Source::Modelled ? "modelled" : "measured";
}

struct BenchRecord {
  std::string name;    ///< kernel + variant, e.g. "gemm_blocked_d"
  index_t size = 0;    ///< characteristic dimension (n, or m for tall ops)
  int reps = 0;        ///< timed repetitions behind the statistics
  double median_s = 0; ///< median wall time per repetition
  double min_s = 0;    ///< fastest repetition
  double gflops = 0;   ///< flops / median_s / 1e9 (0 when flops are undefined)
  Source source = Source::Measured;
  /// Additional numeric fields appended verbatim to the record's JSON
  /// object (e.g. "workers", "speedup", "busy_fraction" for the scaling
  /// bench). Readers of the base schema can ignore them.
  std::vector<std::pair<std::string, double>> extra;
};

/// Git revision stamped into every result file: HCHAM_GIT_REV when set (CI
/// passes it), otherwise whatever `git rev-parse` says, otherwise "unknown".
inline std::string bench_git_rev() {
  if (const char* e = std::getenv("HCHAM_GIT_REV"); e && *e) return e;
  std::string rev;
  if (FILE* p = popen("git rev-parse --short HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (fgets(buf, sizeof buf, p)) rev = buf;
    pclose(p);
  }
  while (!rev.empty() && (rev.back() == '\n' || rev.back() == '\r'))
    rev.pop_back();
  return rev.empty() ? "unknown" : rev;
}

class BenchJson {
 public:
  void add(BenchRecord r) { records_.push_back(std::move(r)); }

  const std::vector<BenchRecord>& records() const { return records_; }

  /// Find a record by (name, size); nullptr when absent.
  const BenchRecord* find(const std::string& name, index_t size) const {
    for (const BenchRecord& r : records_)
      if (r.name == name && r.size == size) return &r;
    return nullptr;
  }

  bool write(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    // Host topology stamp (EXPERIMENTS.md): perf trajectories are only
    // comparable across revisions when the host shape is recorded next to
    // the numbers.
    std::fprintf(f,
                 "{\n  \"git_rev\": \"%s\",\n  \"host\": "
                 "{\"hardware_threads\": %d, \"numa_nodes\": %d, "
                 "\"cache_line_bytes\": %d},\n  \"records\": [\n",
                 json_escape(bench_git_rev()).c_str(), hardware_threads(),
                 numa_node_count(), cache_line_bytes());
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const BenchRecord& r = records_[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"size\": %ld, \"reps\": %d, "
                   "\"median_s\": %.6e, \"min_s\": %.6e, \"gflops\": %.3f, "
                   "\"source\": \"%s\"",
                   json_escape(r.name).c_str(), static_cast<long>(r.size),
                   r.reps, r.median_s, r.min_s, r.gflops, to_string(r.source));
      for (const auto& [key, value] : r.extra)
        std::fprintf(f, ", \"%s\": %.6g", json_escape(key).c_str(), value);
      std::fprintf(f, "}%s\n", i + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::vector<BenchRecord> records_;
};

/// Time `fn` reps times and build the record. flops = 0 skips the GFLOP/s
/// rate (reported as 0).
template <typename Fn>
BenchRecord bench_time(std::string name, index_t size, double flops, int reps,
                       Fn&& fn) {
  std::vector<double> times;
  times.reserve(static_cast<std::size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Timer t;
    fn();
    times.push_back(t.seconds());
  }
  std::sort(times.begin(), times.end());
  BenchRecord rec;
  rec.name = std::move(name);
  rec.size = size;
  rec.reps = reps;
  rec.median_s = times[times.size() / 2];
  rec.min_s = times.front();
  rec.gflops = flops > 0 ? flops / rec.median_s / 1e9 : 0.0;
  return rec;
}

inline double bench_scale() { return env_double("HCHAM_BENCH_SCALE", 1.0); }
inline double bench_eps() { return env_double("HCHAM_EPS", 1e-4); }

inline index_t scaled(index_t n) {
  return static_cast<index_t>(static_cast<double>(n) * bench_scale());
}

/// The thread counts of the paper's Figs. 6-7. "36" means 36 cores with
/// one reserved for task submission in the Tile-H runs (35 workers).
inline std::vector<int> paper_thread_counts() { return {1, 2, 3, 9, 18, 36}; }

inline std::vector<rt::SchedulerPolicy> all_policies() {
  return {rt::SchedulerPolicy::WorkStealing,
          rt::SchedulerPolicy::LocalityWorkStealing,
          rt::SchedulerPolicy::Priority};
}

/// Tile sizes follow the paper's per-N choices scaled down with the
/// problem: the paper used NB ~ N/40 (real) and ~ N/20..N/10 (complex); at
/// our scale the H-arithmetic needs a few cluster-leaves per tile, so we
/// use N/16 clamped to [128, 2048].
inline index_t default_tile_size(index_t n) {
  index_t nb = n / 16;
  if (nb < 128) nb = 128;
  if (nb > 2048) nb = 2048;
  return nb;
}

/// Simulator parameters for the thread-scaling figures: the DAG is
/// replayed at production kernel speed (durations divided by the measured
/// speed ratio between MKL-class BLAS on the paper's Skylake core and this
/// library's scalar kernels, 10x) against STARPU-class runtime costs (in
/// seconds). See DESIGN.md, substitution table.
inline rt::SimParams default_sim_params() {
  rt::SimParams p;
  p.duration_scale = 1.0 / 10.0;
  p.task_overhead_s = 2.0e-6;
  p.edge_overhead_s = 3.0e-7;
  p.submit_cost_s = 1.0e-6;
  p.edge_submit_cost_s = 2.0e-7;
  p.dispatch_serial_cost_s = 5.0e-6;
  return p;
}

inline core::TileHOptions tileh_options(index_t nb, double eps) {
  core::TileHOptions opts;
  opts.tile_size = nb;
  opts.clustering.leaf_size = 64;
  opts.hmatrix.compression.eps = eps;
  return opts;
}

inline hmat::HMatrixOptions hmat_options(double eps) {
  hmat::HMatrixOptions opts;
  opts.compression.eps = eps;
  return opts;
}

/// Measured task graph + wall time of one Tile-H LU (sequential execution;
/// the simulator replays the durations at other worker counts).
template <typename T>
struct MeasuredLu {
  rt::TaskGraph graph;       ///< LU tasks only (assembly excluded)
  double seq_time_s = 0.0;   ///< wall time of the sequential execution
  double compression = 0.0;
  index_t tasks = 0;
  index_t edges = 0;
};

template <typename T>
MeasuredLu<T> measure_tileh_lu(index_t n, index_t nb, double eps) {
  bem::FemBemProblem<T> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  rt::Engine engine({.num_workers = 1});
  auto a = core::TileHMatrix<T>::build(engine, problem.points(), gen,
                                       tileh_options(nb, eps));
  MeasuredLu<T> out;
  out.compression = a.compression_ratio();
  const index_t first = engine.num_tasks();
  a.factorize_submit(engine);
  Timer t;
  engine.wait_all();
  out.seq_time_s = t.seconds();
  out.graph = engine.graph().tail_from(first);
  out.tasks = out.graph.num_tasks();
  out.edges = out.graph.num_edges();
  return out;
}

template <typename T>
MeasuredLu<T> measure_hmat_lu(index_t n, double eps) {
  bem::FemBemProblem<T> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  cluster::ClusteringOptions copts;
  copts.leaf_size = 64;
  auto tree = std::make_shared<const cluster::ClusterTree>(
      cluster::ClusterTree::build(problem.points(), copts));
  auto h = hmat::build_hmatrix<T>(tree, tree->root(), tree->root(), gen,
                                  hmat_options(eps));
  MeasuredLu<T> out;
  out.compression = h.compression_ratio();
  rt::Engine engine({.num_workers = 1});
  core::HluTaskGraph<T> graph(engine, h, rk::TruncationParams{eps, -1});
  graph.submit();
  Timer t;
  engine.wait_all();
  out.seq_time_s = t.seconds();
  out.graph = engine.graph();
  out.tasks = out.graph.num_tasks();
  out.edges = out.graph.num_edges();
  return out;
}

/// Simulated LU time at `threads` (paper x-axis). Tile-H runs reserve one
/// core for submission at the top count (the paper's "36 (35)").
inline double simulated_time(const rt::TaskGraph& g,
                             rt::SchedulerPolicy policy, int threads,
                             bool reserve_submission_core) {
  int workers = threads;
  if (reserve_submission_core && threads >= 36) workers = threads - 1;
  return rt::simulate(g, policy, workers, default_sim_params()).makespan_s;
}

inline void print_header(const char* figure, const std::string& columns) {
  std::printf("# %s\n", figure);
  std::printf("# eps=%.1e scale=%.2f (HCHAM_BENCH_SCALE)\n", bench_eps(),
              bench_scale());
  std::printf("%s\n", columns.c_str());
}

}  // namespace hcham::bench
