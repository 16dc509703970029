// The two factorization workloads.
//
// tileh_lu_z: complex Helmholtz cylinder, N = 4000, Tile-H LU on a 10 x 10
// tile grid (the paper's complex tile choice). Few long tasks: dense and
// low-rank kernel work, priority scheduling and nested sub-epochs decide
// the time; engine submission overhead does not.
//
// hmat_lu_d: real 1/d cylinder, N = 8000, the fine-grain task H-LU (one
// task per leaf, leaf 64), the paper's HMAT baseline. ~20k short tasks:
// submission, dependency inference, dispatch and steals decide the time.
//
// Each iteration sets up the operator from scratch, factorizes it, then
// solves batches of kBatchCols right-hand sides b = A x0 whose exact
// solutions x0 come from the seed; every solved column is checked.
#include <complex>
#include <optional>

#include "common.hpp"

namespace perfbench {

namespace {

namespace la = hcham::la;
namespace rt = hcham::rt;
using hcham::Timer;

/// Batched solves per factorization.
constexpr int kSolvesPerFactorization = 8;

struct LuIteration {
  double setup_s = 0.0;
  double assemble_s = 0.0;  ///< the H-matrix build inside setup_s
  double factor_s = 0.0;
  double factor_mib = 0.0;
  double forward_error = 0.0;
  double compression = 0.0;
  std::vector<SolveSample> solves;
};

/// Solves `b` kSolvesPerFactorization times with `solve(x)` (in place),
/// after `gather(x)` loads the right-hand sides, and checks every answer.
template <typename T, typename Gather, typename Solve, typename Scatter>
void timed_solves(const la::Matrix<T>& x0, Gather&& gather, Solve&& solve,
                  Scatter&& scatter, LuIteration& it, RunResult& res) {
  for (int s = 0; s < kSolvesPerFactorization; ++s) {
    la::Matrix<T> panel(x0.rows(), x0.cols());
    la::Matrix<T> x(x0.rows(), x0.cols());
    Timer latency;
    gather(panel);
    Timer inner;
    solve(panel);
    const double solve_s = inner.seconds();
    scatter(panel, x);
    it.solves.push_back({latency.seconds(), solve_s});
    const double err = check_block(x, x0, res);
    if (s == 0) it.forward_error = err;
  }
}

class TileHCase {
 public:
  using T = std::complex<double>;
  static constexpr index_t kN = 4000;

  const hcham::bem::FemBemProblem<T>& problem() const { return problem_; }

  void warm_up(int workers) {
    rt::Engine eng({.num_workers = workers});
    (void)hcham::core::TileHMatrix<T>::build(eng, problem_.points(),
                                             entries(problem_), options());
  }

  LuIteration iterate(int workers, FactorTrace* ft, const la::Matrix<T>& x0,
                      const la::Matrix<T>& b, RunResult& res) {
    LuIteration it;
    Timer t;
    rt::Engine eng({.num_workers = workers, .record_trace = ft != nullptr});
    Timer assemble;
    auto a = hcham::core::TileHMatrix<T>::build(eng, problem_.points(),
                                                entries(problem_), options());
    it.assemble_s = assemble.seconds();
    it.setup_s = t.seconds();
    it.compression = a.compression_ratio();
    if (ft != nullptr) {
      std::vector<const hcham::rk::RkMatrix<T>*> blocks;
      for (index_t i = 0; i < a.num_tiles(); ++i)
        for (index_t j = 0; j < a.num_tiles(); ++j)
          collect_rk_leaves(a.block(i, j), blocks);
      block_ = median_rk_block(std::move(blocks));
    }
    const rt::TaskId first = eng.num_tasks();
    reset_counters();
    t.reset();
    a.factorize(eng);
    it.factor_s = t.seconds();
    if (ft != nullptr) {
      ft->graph = eng.graph().tail_from(first);
      ft->events = eng.trace();
      ft->first_task = first;
      ft->workers = workers;
      ft->wall_s = it.factor_s;
      ft->submit_s = eng.last_submit_phase_s();
      ft->arith = hcham::snapshot_arith_counters();
      ft->runtime = hcham::snapshot_runtime_counters();
    }
    it.factor_mib = mib(static_cast<double>(a.stored_elements()) * sizeof(T));
    timed_solves<T>(
        x0, [&](la::Matrix<T>& p) { la::copy(b.cview(), p.view()); },
        [&](la::Matrix<T>& p) { a.solve(eng, p.view()); },
        [&](la::Matrix<T>& p, la::Matrix<T>& x) { x = std::move(p); }, it,
        res);
    return it;
  }

  const std::optional<hcham::rk::RkMatrix<T>>& median_block() const {
    return block_;
  }

 private:
  static hcham::core::TileHOptions options() {
    hcham::core::TileHOptions o;
    o.tile_size = kN / 10;
    o.clustering.leaf_size = kLeaf;
    o.hmatrix.compression.eps = kEps;
    return o;
  }

  hcham::bem::FemBemProblem<T> problem_{kN};
  std::optional<hcham::rk::RkMatrix<T>> block_;
};

class HmatCase {
 public:
  using T = double;
  static constexpr index_t kN = 8000;

  const hcham::bem::FemBemProblem<T>& problem() const { return problem_; }

  void warm_up(int /*workers*/) { (void)build(); }

  LuIteration iterate(int workers, FactorTrace* ft, const la::Matrix<T>& x0,
                      const la::Matrix<T>& b, RunResult& res) {
    LuIteration it;
    Timer t;
    rt::Engine eng({.num_workers = workers, .record_trace = ft != nullptr});
    Timer assemble;
    hcham::hmat::HMatrix<T> h = build();
    it.assemble_s = assemble.seconds();
    it.setup_s = t.seconds();
    it.compression = h.compression_ratio();
    if (ft != nullptr) {
      std::vector<const hcham::rk::RkMatrix<T>*> blocks;
      collect_rk_leaves(h, blocks);
      block_ = median_rk_block(std::move(blocks));
    }
    reset_counters();
    t.reset();
    hcham::core::HluTaskGraph<T> graph(eng, h,
                                       hcham::rk::TruncationParams{kEps, -1});
    graph.submit();
    eng.wait_all();
    it.factor_s = t.seconds();
    if (ft != nullptr) {
      ft->graph = eng.graph();
      ft->events = eng.trace();
      ft->first_task = 0;
      ft->workers = workers;
      ft->wall_s = it.factor_s;
      ft->submit_s = eng.last_submit_phase_s();
      ft->arith = hcham::snapshot_arith_counters();
      ft->runtime = hcham::snapshot_runtime_counters();
    }
    it.factor_mib = mib(static_cast<double>(h.stored_elements()) * sizeof(T));
    const hcham::cluster::ClusterTree& tree = h.tree();
    const index_t n = h.rows();
    timed_solves<T>(
        x0,
        [&](la::Matrix<T>& p) {
          for (index_t c = 0; c < p.cols(); ++c)
            for (index_t i = 0; i < n; ++i) p(i, c) = b(tree.perm(i), c);
        },
        [&](la::Matrix<T>& p) { hcham::hmat::hlu_solve(h, p.view()); },
        [&](la::Matrix<T>& p, la::Matrix<T>& x) {
          for (index_t c = 0; c < p.cols(); ++c)
            for (index_t i = 0; i < n; ++i) x(tree.perm(i), c) = p(i, c);
        },
        it, res);
    return it;
  }

  const std::optional<hcham::rk::RkMatrix<T>>& median_block() const {
    return block_;
  }

 private:
  hcham::hmat::HMatrix<T> build() const {
    hcham::cluster::ClusteringOptions copts;
    copts.leaf_size = kLeaf;
    auto tree = std::make_shared<const hcham::cluster::ClusterTree>(
        hcham::cluster::ClusterTree::build(problem_.points(), copts));
    hcham::hmat::HMatrixOptions hopts;
    hopts.compression.eps = kEps;
    return hcham::hmat::build_hmatrix<T>(tree, tree->root(), tree->root(),
                                         entries(problem_), hopts);
  }

  hcham::bem::FemBemProblem<T> problem_{kN};
  std::optional<hcham::rk::RkMatrix<T>> block_;
};

/// The shared measurement loop. Untraced runs repeat set-up + factorize +
/// solves until `seconds` have passed (at least three times) and report
/// medians. Traced runs alternate an untraced and a traced iteration, so
/// the tracing overhead is measured against the same process state.
template <typename Case>
RunResult run_lu(const RunOptions& opts, Case& c) {
  using T = typename Case::T;
  RunResult res;
  const int workers = opts.nproc;
  res.threads_started = workers;
  const index_t n = c.problem().size();
  const auto x0 = la::Matrix<T>::random(n, kBatchCols, opts.seed);
  const auto b = exact_rhs(c.problem(), x0, opts.nproc);
  // The first assembly in a process pays for faulting in fresh heap pages
  // (about 4x slower for the complex case). One untimed assembly keeps that
  // cost out of every timed phase.
  c.warm_up(workers);

  std::vector<double> setup, assemble, factor_plain, factor_traced;
  std::vector<SolveSample> solves;
  FactorTrace ft;
  double forward_error = -1.0, factor_mib = -1.0, compression = 0.0;
  double peak_rss = 0.0;
  const int min_iterations = opts.trace ? 2 : 3;
  Timer clock;
  for (int i = 0; i < min_iterations || clock.seconds() < opts.seconds; ++i) {
    const bool traced = opts.trace && i % 2 == 1;
    res.attempted += 1;  // the factorization itself
    LuIteration it;
    try {
      it = c.iterate(workers, traced ? &ft : nullptr, x0, b, res);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "factorization failed: %s\n", e.what());
      res.failed += 1;
      res.checks_ok = false;
      break;
    }
    // Re-allocating the operator in later iterations adds allocator
    // fragmentation that varied by +-8% between runs; the peak after one
    // set-up + factorization + solves is the footprint a user sees.
    if (i == 0) peak_rss = peak_rss_mib();
    setup.push_back(it.setup_s);
    assemble.push_back(it.assemble_s);
    (traced ? factor_traced : factor_plain).push_back(it.factor_s);
    solves.insert(solves.end(), it.solves.begin(), it.solves.end());
    compression = it.compression;
    // Factors are bit-identical whatever the schedule, so the accuracy and
    // the factor size must repeat exactly.
    if (forward_error < 0.0) {
      forward_error = it.forward_error;
      factor_mib = it.factor_mib;
    } else if (it.forward_error != forward_error ||
               it.factor_mib != factor_mib) {
      std::fprintf(stderr, "factor changed between iterations\n");
      res.checks_ok = false;
    }
  }
  if (setup.empty()) return res;
  std::printf("# %zu batched solves of %ld columns; factor_s samples:",
              solves.size(), static_cast<long>(kBatchCols));
  for (const double f : factor_plain) std::printf(" %.4f", f);
  for (const double f : factor_traced) std::printf(" %.4f(traced)", f);
  std::printf("\n");

  if (!opts.trace) {
    std::vector<double> latency;
    double solved_s = 0.0;
    for (const SolveSample& s : solves) {
      latency.push_back(s.latency_s);
      solved_s += s.latency_s;
    }
    res.add("setup_s", median(setup), "s");
    res.add("factor_s", median(factor_plain), "s");
    res.add("serve_rps",
            static_cast<double>(solves.size() * kBatchCols) / solved_s, "1/s");
    res.add("req_p50_s", percentile(latency, 0.5), "s");
    res.add("req_p90_s", percentile(latency, 0.9), "s");
    res.add("forward_error", forward_error, "ratio");
    res.add("factor_mib", factor_mib, "MiB");
    res.add("peak_rss_mib", peak_rss, "MiB");
    return res;
  }

  add_factor_layers(ft, factor_plain, factor_traced, res);
  res.add("runtime.graph_replays",
          static_cast<double>(ft.runtime.graph_replays), "count");
  res.add("hmatrix.assemble_s", median(assemble), "s");
  res.add("hmatrix.compression", compression, "ratio");
  add_direct_solve_layers(solves, res);
  add_cluster_probe(c.problem().points(), res);
  add_truncate_probe(*c.median_block(), res);
  add_la_probes(res);
  return res;
}

}  // namespace

RunResult run_tileh_lu_z(const RunOptions& opts) {
  TileHCase c;
  return run_lu(opts, c);
}

RunResult run_hmat_lu_d(const RunOptions& opts) {
  HmatCase c;
  return run_lu(opts, c);
}

}  // namespace perfbench
