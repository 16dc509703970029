// Shared pieces of the three workloads: run options and result, seeded
// inputs with exactly known solutions, the answer check, and the per-layer
// probes that time calls into the library's public functions from outside.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bem/testcase.hpp"
#include "common/counters.hpp"
#include "common/timer.hpp"
#include "core/hchameleon.hpp"
#include "metrics.hpp"

namespace perfbench {

using hcham::index_t;

/// Block accuracy of every workload (the paper's setting).
constexpr double kEps = 1e-4;
/// A solve whose forward error exceeds this counts as failed.
constexpr double kMaxForwardError = 10.0 * kEps;
/// Cluster-tree leaf size: the dense leaf shape of every H-matrix here.
constexpr index_t kLeaf = 64;
/// Right-hand-side columns per batched solve (the service's column budget).
constexpr index_t kBatchCols = 32;

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int nproc = 1;
};

struct RunResult {
  long attempted = 0;
  long failed = 0;
  bool checks_ok = true;  ///< invariants beyond per-solve accuracy
  int threads_started = 0;
  std::vector<Metric> metrics;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

RunResult run_tileh_lu_z(const RunOptions& opts);
RunResult run_hmat_lu_d(const RunOptions& opts);
RunResult run_serve_d(const RunOptions& opts);

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline double mib(double bytes) { return bytes / (1024.0 * 1024.0); }

inline void reset_counters() {
  hcham::reset_arith_counters();
  hcham::reset_runtime_counters();
}

/// The kernel's entry generator, as TileHMatrix::build and build_hmatrix
/// take it.
template <typename T>
auto entries(const hcham::bem::FemBemProblem<T>& problem) {
  return [p = &problem](index_t i, index_t j) { return p->entry(i, j); };
}

/// b = A x0 with the exact kernel (not the compressed operator), so the
/// forward error of a solve measures compression and factorization
/// together, as in the paper's Fig. 5. Rows are split over `threads`
/// threads; each fills a dense row block and multiplies it.
template <typename T>
hcham::la::Matrix<T> exact_rhs(const hcham::bem::FemBemProblem<T>& problem,
                               const hcham::la::Matrix<T>& x0, int threads) {
  namespace la = hcham::la;
  const index_t n = problem.size();
  la::Matrix<T> b(n, x0.cols());
  const index_t blocks = hcham::ceil_div(n, kLeaf);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      la::Matrix<T> rows(kLeaf, n);
      for (index_t blk = t; blk < blocks; blk += threads) {
        const index_t r0 = blk * kLeaf;
        const index_t m = std::min(kLeaf, n - r0);
        for (index_t j = 0; j < n; ++j)
          for (index_t i = 0; i < m; ++i) rows(i, j) = problem.entry(r0 + i, j);
        la::gemm(la::Op::NoTrans, la::Op::NoTrans, T{1},
                 la::ConstMatrixView<T>(rows.view().block(0, 0, m, n)),
                 x0.cview(), T{}, b.block(r0, 0, m, x0.cols()));
      }
    });
  }
  for (std::thread& th : pool) th.join();
  return b;
}

/// ||x - x0|| / ||x0|| of one column.
template <typename T>
double column_forward_error(const T* x, const T* x0, index_t n) {
  double diff = 0.0, ref = 0.0;
  for (index_t i = 0; i < n; ++i) {
    diff += hcham::abs_sq(x[i] - x0[i]);
    ref += hcham::abs_sq(x0[i]);
  }
  return std::sqrt(diff / ref);
}

/// Checks every column of a solved block against the known solution.
/// Returns ||X - X0||_F / ||X0||_F and counts the columns above the limit.
template <typename T>
double check_block(const hcham::la::Matrix<T>& x,
                   const hcham::la::Matrix<T>& x0, RunResult& res) {
  double diff = 0.0, ref = 0.0;
  for (index_t c = 0; c < x.cols(); ++c) {
    const double e = column_forward_error(x.cview().col(c), x0.cview().col(c),
                                          x.rows());
    res.attempted += 1;
    if (!(e <= kMaxForwardError)) res.failed += 1;
    for (index_t i = 0; i < x.rows(); ++i) {
      diff += hcham::abs_sq(x(i, c) - x0(i, c));
      ref += hcham::abs_sq(x0(i, c));
    }
  }
  return std::sqrt(diff / ref);
}

/// One timed batched solve: `latency_s` runs from the start of the
/// request-column gather to the answer, `solve_s` covers the solver call
/// alone.
struct SolveSample {
  double latency_s = 0.0;
  double solve_s = 0.0;
};

/// Timings and counters of one factorization executed on an engine with
/// record_trace on; the source of the core.* and runtime.* metrics.
struct FactorTrace {
  hcham::rt::TaskGraph graph;  ///< factorization tasks only
  std::vector<hcham::rt::TraceEvent> events;
  hcham::rt::TaskId first_task = 0;  ///< id of the graph's first task
  int workers = 1;
  double wall_s = 0.0;
  double submit_s = 0.0;
  hcham::ArithCounterSnapshot arith;
  hcham::RuntimeCounterSnapshot runtime;
};

/// Layer metrics derived from a traced factorization and the untraced
/// factorization times measured in the same run.
void add_factor_layers(const FactorTrace& ft,
                       const std::vector<double>& untraced_factor_s,
                       const std::vector<double>& traced_factor_s,
                       RunResult& res);

/// serve.* metrics of a workload without a service: every request column
/// is handed to the solver by a gather into the batch panel.
void add_direct_solve_layers(const std::vector<SolveSample>& samples,
                             RunResult& res);

/// la.* kernel rates measured by direct calls at the leaf shape.
void add_la_probes(RunResult& res);

/// cluster.tree_s: ClusterTree::build over the workload's points.
void add_cluster_probe(const std::vector<hcham::cluster::Point3>& points,
                       RunResult& res);

/// Every Rk leaf of `h`, for picking a representative block.
template <typename T>
void collect_rk_leaves(const hcham::hmat::HMatrix<T>& h,
                       std::vector<const hcham::rk::RkMatrix<T>*>& out) {
  if (h.is_rk()) {
    out.push_back(&h.rk());
  } else if (h.is_hierarchical()) {
    for (int i = 0; i < 2; ++i)
      for (int j = 0; j < 2; ++j) collect_rk_leaves(h.child(i, j), out);
  }
}

/// Copy of the Rk block of median size (rows x cols, then rank).
template <typename T>
hcham::rk::RkMatrix<T> median_rk_block(
    std::vector<const hcham::rk::RkMatrix<T>*> blocks) {
  auto key = [](const hcham::rk::RkMatrix<T>* b) {
    return std::make_pair(b->rows() * b->cols(), b->rank());
  };
  std::sort(blocks.begin(), blocks.end(),
            [&](auto* a, auto* b) { return key(a) < key(b); });
  const hcham::rk::RkMatrix<T>* m = blocks[blocks.size() / 2];
  return hcham::rk::RkMatrix<T>(
      hcham::la::Matrix<T>::from_view(m->u().cview()),
      hcham::la::Matrix<T>::from_view(m->v().cview()));
}

/// rk.truncate_us: rk::truncate on the block doubled by a rounded
/// addition of itself (rank 2k back to k), the shape a truncation sees
/// inside the factorization.
template <typename T>
void add_truncate_probe(const hcham::rk::RkMatrix<T>& block, RunResult& res) {
  namespace la = hcham::la;
  const hcham::rk::TruncationParams tp{kEps, -1};
  std::vector<double> per_call;
  for (int rep = 0; rep < 9; ++rep) {
    constexpr int kCalls = 50;
    std::vector<hcham::rk::RkMatrix<T>> work;
    for (int c = 0; c < kCalls; ++c) {
      hcham::rk::RkMatrix<T> w(la::Matrix<T>::from_view(block.u().cview()),
                               la::Matrix<T>::from_view(block.v().cview()));
      w.append_factors(T{1}, block.u().cview(), block.v().cview());
      work.push_back(std::move(w));
    }
    hcham::Timer t;
    for (auto& w : work) hcham::rk::truncate(w, tp);
    per_call.push_back(t.seconds() / kCalls);
  }
  res.add("rk.truncate_us", median(per_call) * 1e6, "us");
}

}  // namespace perfbench
