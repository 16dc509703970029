// serve_d: the read side. A real N = 4000 Tile-H operator (default N/16
// tiles) is factored once by a serve::Session, then served to a closed
// loop: one generator thread (the main thread) keeps kInFlight
// single-column requests in flight against a SolverService whose column
// budget is kBatchCols, sending the next request only when a reply
// arrives, as simulation drivers waiting for their answers do. Each
// request's right-hand side is b = A x0 for an x0 drawn from the seed, and
// every reply is checked against its x0. Panel triangular solves replayed
// from the graph cache, the queue and the batching decide the time; there
// is no truncation.
#include <deque>
#include <future>
#include <optional>

#include "common.hpp"
#include "serve/solver_service.hpp"

namespace perfbench {

namespace {

namespace la = hcham::la;
namespace rt = hcham::rt;
namespace serve = hcham::serve;
using hcham::Timer;
using T = double;

constexpr index_t kN = 4000;
/// Session set-ups per run; the median is reported.
constexpr int kSetups = 5;
/// Requests in flight: two full batches, so the next batch is always
/// queued whole while one is solved. With only one batch in flight each
/// batch is cut by the batching window before the refills arrive, and a
/// request waits one or two batches depending on timing noise.
constexpr index_t kInFlight = 2 * kBatchCols;
/// Shortest closed loop, whatever is left of the run's time.
constexpr double kMinLoopSeconds = 4.0;

hcham::core::TileHOptions options() {
  hcham::core::TileHOptions o;
  o.tile_size = kN / 16;
  o.clustering.leaf_size = kLeaf;
  o.hmatrix.compression.eps = kEps;
  return o;
}

struct Setup {
  std::unique_ptr<rt::GraphCache> cache;  ///< outlives the session
  std::unique_ptr<serve::Session<T>> session;
  double build_s = 0.0;  ///< Session::build: assembly + factorization
  double setup_s = 0.0;  ///< build + the first, graph-capturing batch
  double forward_error = 0.0;
};

/// A session with a graph cache of its own, so every set-up captures its
/// graphs instead of replaying an earlier set-up's.
Setup set_up(const hcham::bem::FemBemProblem<T>& problem, int workers,
             const la::Matrix<T>& x0, const la::Matrix<T>& b,
             RunResult& res) {
  Setup s;
  s.cache = std::make_unique<rt::GraphCache>();
  serve::SessionOptions so;
  so.workers = workers;
  so.graph_cache = s.cache.get();
  Timer t;
  s.session = std::make_unique<serve::Session<T>>(serve::Session<T>::build(
      problem.points(), entries(problem), options(), so));
  s.build_s = t.seconds();
  auto x = la::Matrix<T>::from_view(b.cview());
  s.session->solve_now(x.view());
  s.setup_s = t.seconds();
  s.forward_error = check_block(x, x0, res);
  return s;
}

struct LoopStats {
  std::vector<double> latency_s;  ///< submit-to-reply, per Ok reply
  std::vector<double> submit_s;   ///< SolverService::submit call time
  std::vector<double> done_at_s;  ///< loop clock at each Ok reply
  double wall_s = 0.0;
  long completed = 0;
  serve::StatsSnapshot stats;
};

/// The closed loop: kInFlight requests in flight for `seconds`, then
/// drain. Replies come back in submission order (one batching thread,
/// FIFO queue), so waiting on the oldest future loses nothing.
LoopStats closed_loop(serve::Session<T>& session, const la::Matrix<T>& x0,
                      const la::Matrix<T>& b, double seconds,
                      RunResult& res) {
  serve::ServiceOptions so;
  so.max_batch_cols = kBatchCols;
  so.queue_capacity = kInFlight;  // never reject an in-flight request
  serve::SolverService<T> svc(session, so);
  const index_t n = b.rows();
  struct InFlight {
    std::future<serve::SolveReply<T>> reply;
    index_t column;
  };
  std::deque<InFlight> in_flight;
  LoopStats out;
  index_t next = 0;
  auto submit = [&] {
    const index_t col = next++ % b.cols();
    la::Matrix<T> rhs(n, 1);
    la::copy_column(b.cview(), col, rhs.view(), 0);
    Timer t;
    in_flight.push_back({svc.submit(std::move(rhs)), col});
    out.submit_s.push_back(t.seconds());
  };
  Timer clock;
  for (index_t i = 0; i < kInFlight; ++i) submit();
  while (!in_flight.empty()) {
    InFlight f = std::move(in_flight.front());
    in_flight.pop_front();
    const serve::SolveReply<T> rep = f.reply.get();
    // Refill before checking, so the next batch finds its columns queued.
    if (clock.seconds() < seconds) submit();
    res.attempted += 1;
    if (!rep.ok() ||
        !(column_forward_error(rep.x.cview().col(0), x0.cview().col(f.column),
                               n) <= kMaxForwardError)) {
      res.failed += 1;
    } else {
      out.latency_s.push_back(rep.latency_s);
      out.done_at_s.push_back(clock.seconds());
      out.completed += 1;
    }
  }
  out.wall_s = clock.seconds();
  svc.stop();
  out.stats = svc.stats();
  return out;
}

/// serve_d's hmatrix.*, core.* and runtime.* layers: the served operator
/// assembled and factorized outside the session, once untraced and once
/// traced (a Session's engine does not record a trace).
struct OperatorLayers {
  FactorTrace ft;
  std::vector<double> assemble_s, factor_plain, factor_traced;
  double compression = 0.0;
  std::optional<hcham::rk::RkMatrix<T>> median_block;
};

OperatorLayers operator_layers(const hcham::bem::FemBemProblem<T>& problem,
                               int workers) {
  OperatorLayers out;
  for (const bool trace : {false, true}) {
    rt::Engine eng({.num_workers = workers, .record_trace = trace});
    Timer t;
    auto a = hcham::core::TileHMatrix<T>::build(eng, problem.points(),
                                                entries(problem), options());
    out.assemble_s.push_back(t.seconds());
    out.compression = a.compression_ratio();
    if (!out.median_block) {
      std::vector<const hcham::rk::RkMatrix<T>*> blocks;
      for (index_t i = 0; i < a.num_tiles(); ++i)
        for (index_t j = 0; j < a.num_tiles(); ++j)
          collect_rk_leaves(a.block(i, j), blocks);
      out.median_block = median_rk_block(std::move(blocks));
    }
    const rt::TaskId first = eng.num_tasks();
    reset_counters();
    t.reset();
    a.factorize(eng);
    (trace ? out.factor_traced : out.factor_plain).push_back(t.seconds());
    if (!trace) continue;
    FactorTrace& ft = out.ft;
    ft.graph = eng.graph().tail_from(first);
    ft.events = eng.trace();
    ft.first_task = first;
    ft.workers = workers;
    ft.wall_s = out.factor_traced.back();
    ft.submit_s = eng.last_submit_phase_s();
    ft.arith = hcham::snapshot_arith_counters();
    ft.runtime = hcham::snapshot_runtime_counters();
  }
  return out;
}

}  // namespace

RunResult run_serve_d(const RunOptions& opts) {
  RunResult res;
  const int workers = std::max(1, opts.nproc - 1);
  res.threads_started = workers + 1;  // engine workers + batching thread
  hcham::bem::FemBemProblem<T> problem(kN);
  const auto x0 = la::Matrix<T>::random(kN, kBatchCols, opts.seed);
  const auto b = exact_rhs(problem, x0, opts.nproc);
  {
    // Untimed warm-up assembly (first-touch of fresh heap pages).
    rt::Engine eng({.num_workers = workers});
    (void)hcham::core::TileHMatrix<T>::build(eng, problem.points(),
                                             entries(problem), options());
  }

  Timer clock;
  std::vector<double> setup_s, build_s;
  Setup s;
  double forward_error = -1.0;
  for (int i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
    s.session.reset();  // before its cache, and before the next build
    s = set_up(problem, workers, x0, b, res);
    setup_s.push_back(s.setup_s);
    build_s.push_back(s.build_s);
    if (forward_error >= 0.0 && s.forward_error != forward_error) {
      std::fprintf(stderr, "factor changed between set-ups\n");
      res.checks_ok = false;
    }
    forward_error = s.forward_error;
  }
  const double factor_mib =
      mib(static_cast<double>(s.session->memory_bytes()));

  OperatorLayers layers;
  if (opts.trace) layers = operator_layers(problem, workers);

  const double loop_s =
      std::max(kMinLoopSeconds, opts.seconds - clock.seconds());
  const LoopStats loop = closed_loop(*s.session, x0, b, loop_s, res);
  if (loop.latency_s.empty()) {
    res.checks_ok = false;
    return res;
  }
  std::printf("# %ld requests in %.3f s, %lu batches, %zu latency samples\n",
              loop.completed, loop.wall_s,
              static_cast<unsigned long>(loop.stats.batches),
              loop.latency_s.size());
  std::printf("# requests per second, by 2 s window:");
  std::vector<long> per_window(static_cast<std::size_t>(loop.wall_s / 2) + 1);
  for (const double t : loop.done_at_s)
    per_window[static_cast<std::size_t>(t / 2)] += 1;
  for (const long c : per_window) std::printf(" %.0f", c / 2.0);
  std::printf("\n");
  const double p50 = percentile(loop.latency_s, 0.5);

  if (!opts.trace) {
    res.add("setup_s", median(setup_s), "s");
    res.add("factor_s", median(build_s), "s");
    res.add("serve_rps", static_cast<double>(loop.completed) / loop.wall_s,
            "1/s");
    res.add("req_p50_s", p50, "s");
    res.add("req_p90_s", percentile(loop.latency_s, 0.9), "s");
    res.add("forward_error", forward_error, "ratio");
    res.add("factor_mib", factor_mib, "MiB");
    res.add("peak_rss_mib", peak_rss_mib(), "MiB");
    return res;
  }

  // The solver's own time at the mean batch width, with the service
  // stopped (solve_now is not thread-safe).
  const index_t width = std::clamp<index_t>(
      static_cast<index_t>(std::lround(loop.stats.mean_batch_cols())), 1,
      kBatchCols);
  std::vector<double> panel;
  for (int rep = 0; rep < 9; ++rep) {
    auto x = la::Matrix<T>::from_view(b.cview().block(0, 0, kN, width));
    Timer t;
    s.session->solve_now(x.view());
    panel.push_back(t.seconds());
  }
  const double panel_s = median(panel);

  add_factor_layers(layers.ft, layers.factor_plain, layers.factor_traced, res);
  res.add("runtime.graph_replays",
          static_cast<double>(loop.stats.graph_replayed), "count");
  res.add("hmatrix.assemble_s", median(layers.assemble_s), "s");
  res.add("hmatrix.compression", layers.compression, "ratio");
  res.add("serve.batch_cols_mean", loop.stats.mean_batch_cols(), "count");
  res.add("serve.batches", static_cast<double>(loop.stats.batches), "count");
  res.add("serve.panel_solve_s", panel_s, "s");
  res.add("serve.submit_us", median(loop.submit_s) * 1e6, "us");
  res.add("serve.overhead_s", p50 - panel_s, "s");
  res.add("serve.queue_peak", static_cast<double>(loop.stats.queue_peak),
          "count");
  res.add("serve.latency_samples", static_cast<double>(loop.latency_s.size()),
          "count");
  add_cluster_probe(problem.points(), res);
  add_truncate_probe(*layers.median_block, res);
  add_la_probes(res);
  return res;
}

}  // namespace perfbench
