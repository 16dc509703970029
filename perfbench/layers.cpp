// Per-layer metrics shared by the workloads: what a traced factorization
// says about the core and runtime layers, and direct-call probes of the
// dense-kernel and clustering layers.
#include <complex>

#include "common.hpp"

namespace perfbench {

namespace la = hcham::la;

void add_factor_layers(const FactorTrace& ft,
                       const std::vector<double>& untraced_factor_s,
                       const std::vector<double>& traced_factor_s,
                       RunResult& res) {
  const std::map<std::string, double> by_label = busy_by_label(ft.graph);
  double label_busy = 0.0;
  for (const auto& [label, s] : by_label) label_busy += s;
  auto busy = [&](const char* label) {
    const auto it = by_label.find(label);
    return it == by_label.end() ? 0.0 : it->second;
  };
  std::vector<double> durations;
  for (const auto& n : ft.graph.nodes) durations.push_back(n.duration_s);
  const index_t tasks = ft.graph.num_tasks();
  const EpochAccounting acc =
      account_epoch(ft.events, ft.first_task, ft.workers, ft.wall_s);
  const double capacity = ft.workers * ft.wall_s;

  res.add("core.getrf_busy_s", busy("getrf"), "s");
  res.add("core.trsm_busy_s", busy("trsm"), "s");
  res.add("core.gemm_busy_s", busy("gemm"), "s");
  res.add("core.tasks", static_cast<double>(tasks), "count");
  res.add("core.task_p50_us", median(durations) * 1e6, "us");

  const hcham::ArithCounterSnapshot& a = ft.arith;
  const double ws_requests = static_cast<double>(a.ws_hits + a.ws_misses);
  res.add("la.ws_hit_rate",
          ws_requests > 0 ? static_cast<double>(a.ws_hits) / ws_requests : 0.0,
          "ratio");
  res.add("rk.truncations", static_cast<double>(a.truncations), "count");
  res.add("rk.rounded_add_fastpaths",
          static_cast<double>(a.rounded_add_fastpaths), "count");
  res.add("rk.acc_flushes", static_cast<double>(a.acc_flushes), "count");

  const hcham::RuntimeCounterSnapshot& r = ft.runtime;
  res.add("runtime.submit_s", ft.submit_s, "s");
  res.add("runtime.edges", static_cast<double>(ft.graph.num_edges()), "count");
  res.add("runtime.steals_per_task",
          static_cast<double>(r.ll_steals) / static_cast<double>(tasks),
          "ratio");
  res.add("runtime.parks", static_cast<double>(r.ll_parks), "count");
  res.add("runtime.busy_frac", acc.busy_frac, "ratio");
  res.add("runtime.idle_s", acc.idle_s, "s");
  res.add("runtime.crit_path_s", ft.graph.critical_path_s(), "s");
  res.add("runtime.cp_frac", critical_path_fraction(ft.graph, ft.wall_s),
          "ratio");
  res.add("runtime.nested_epochs", static_cast<double>(r.nested_epochs),
          "count");
  // Per-label task time plus trace-derived idle time should fill
  // workers x wall exactly; a positive gap means time counted twice.
  res.add("runtime.accounting_gap_frac",
          (label_busy + acc.idle_s - capacity) / capacity, "ratio");
  res.add("trace.overhead_frac",
          median(traced_factor_s) / median(untraced_factor_s) - 1.0, "ratio");
}

void add_direct_solve_layers(const std::vector<SolveSample>& samples,
                             RunResult& res) {
  std::vector<double> latency, solve, gather;
  for (const SolveSample& s : samples) {
    latency.push_back(s.latency_s);
    solve.push_back(s.solve_s);
    gather.push_back(s.latency_s - s.solve_s);
  }
  res.add("serve.batch_cols_mean", static_cast<double>(kBatchCols), "count");
  res.add("serve.batches", static_cast<double>(samples.size()), "count");
  res.add("serve.panel_solve_s", median(solve), "s");
  res.add("serve.submit_us", median(gather) / kBatchCols * 1e6, "us");
  res.add("serve.overhead_s", median(latency) - median(solve), "s");
  res.add("serve.queue_peak", 0.0, "count");
  res.add("serve.latency_samples", static_cast<double>(samples.size()),
          "count");
}

namespace {

/// Median GF/s of `calls` back-to-back calls of `fn`, over 9 repetitions.
/// `prepare` runs untimed before each repetition (restoring overwritten
/// inputs).
template <typename Prepare, typename Fn>
double gflops(double flops_per_call, int calls, Prepare&& prepare, Fn&& fn) {
  std::vector<double> rates;
  for (int rep = 0; rep < 9; ++rep) {
    prepare();
    hcham::Timer t;
    for (int c = 0; c < calls; ++c) fn(c);
    rates.push_back(flops_per_call * calls / t.seconds() / 1e9);
  }
  return median(rates);
}

template <typename T>
void la_probes(const char* tag, bool all_kernels, RunResult& res) {
  constexpr index_t n = kLeaf;
  constexpr int kCalls = 64;
  // Complex flops count 4 real multiply-adds per complex one.
  const double f = hcham::is_complex_v<T> ? 4.0 : 1.0;
  const double nd = static_cast<double>(n);
  auto a = la::Matrix<T>::random(n, n, 11);
  for (index_t i = 0; i < n; ++i) a(i, i) += T(static_cast<double>(n));
  auto b = la::Matrix<T>::random(n, n, 12);
  la::Matrix<T> c(n, n);
  const std::string p = std::string("la.");
  res.add(p + "gemm_" + tag + "_gflops",
          gflops(f * 2.0 * nd * nd * nd, kCalls, [] {},
                 [&](int) {
                   la::gemm<T>(la::Op::NoTrans, la::Op::NoTrans, T{1},
                               a.cview(), b.cview(), T{1}, c.view());
                 }),
          "GF/s");
  std::vector<la::Matrix<T>> work(kCalls);
  auto refill = [&work](const la::Matrix<T>& src) {
    return [&work, from = &src] {
      for (auto& w : work) w = la::Matrix<T>::from_view(from->cview());
    };
  };
  res.add(p + "trsm_" + tag + "_gflops",
          gflops(f * nd * nd * nd, kCalls, refill(b),
                 [&](int k) {
                   la::trsm(la::Side::Left, la::Uplo::Lower, la::Op::NoTrans,
                            la::Diag::Unit, T{1}, a.cview(), work[k].view());
                 }),
          "GF/s");
  if (!all_kernels) return;
  res.add(p + "getrf_" + tag + "_gflops",
          gflops(f * 2.0 / 3.0 * nd * nd * nd, kCalls, refill(a),
                 [&](int k) { la::getrf_nopiv(work[k].view()); }),
          "GF/s");
  // Thin QR of a leaf-high factor of rank n/2, flops of geqrf + orgqr.
  const index_t k = n / 2;
  const double kd = static_cast<double>(k);
  auto q0 = la::Matrix<T>::random(n, k, 13);
  la::Matrix<T> q, r;
  res.add(p + "qr_" + tag + "_gflops",
          gflops(f * (4.0 * nd * kd * kd - 4.0 / 3.0 * kd * kd * kd), kCalls,
                 [] {}, [&](int) { la::qr_thin<T>(q0.cview(), q, r); }),
          "GF/s");
}

}  // namespace

void add_la_probes(RunResult& res) {
  la_probes<std::complex<double>>("z", /*all_kernels=*/true, res);
  la_probes<double>("d", /*all_kernels=*/false, res);
}

void add_cluster_probe(const std::vector<hcham::cluster::Point3>& points,
                       RunResult& res) {
  hcham::cluster::ClusteringOptions copts;
  copts.leaf_size = kLeaf;
  std::vector<double> times;
  for (int rep = 0; rep < 7; ++rep) {
    hcham::Timer t;
    const auto tree = hcham::cluster::ClusterTree::build(points, copts);
    times.push_back(t.seconds());
    if (tree.num_points() != static_cast<index_t>(points.size()))
      res.checks_ok = false;
  }
  res.add("cluster.tree_s", median(times), "s");
}

}  // namespace perfbench
