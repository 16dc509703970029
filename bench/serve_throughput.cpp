// Solver-service throughput: the repo's first end-to-end "production
// traffic" workload. Two parts:
//
// A. Acceptance gate — one batched solve of nrhs=32 columns (a single
//    task graph whose RHS row segments carry every column) vs sequential
//    per-vector solves against one factorization, measured with a 4-worker
//    engine. Exit status is nonzero when the batched speedup falls below
//    2.0x. Hosts with fewer than 4 hardware threads skip this part: the
//    gate reports skipped.
//
// B. Closed-loop service sweep — `clients` threads each keep one request
//    in flight against a SolverService, sweeping client counts x batching
//    windows; records throughput (requests/s), latency quantiles from the
//    service histogram, and the achieved mean batch size.
//
// Usage: serve_throughput [--smoke] [--out=PATH]
//   --smoke    trimmed sweep for CI (small N, fewer configs)
//   --out=PATH result file (default BENCH_serve.json)
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "serve/solver_service.hpp"

using namespace hcham;
using namespace std::chrono_literals;

namespace {

bench::BenchJson g_json;

constexpr index_t kGateCols = 32;

struct GateResult {
  double speedup = 0.0;
  double batched_s = 0.0;  ///< time to solve kGateCols columns batched
  double seq_s = 0.0;      ///< time to solve them one column at a time
};

/// Part A with real 4-worker execution.
GateResult gate_measured(index_t n, index_t nb, double eps) {
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  rt::Engine engine({.num_workers = 4});
  auto a = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            bench::tileh_options(nb, eps));
  a.factorize(engine);

  auto b = la::Matrix<double>::random(n, kGateCols, 5);
  GateResult g;
  {
    auto work = la::Matrix<double>::from_view(b.cview());
    Timer t;
    a.solve(engine, work.view());
    g.batched_s = t.seconds();
  }
  {
    auto work = la::Matrix<double>::from_view(b.cview());
    Timer t;
    for (index_t c = 0; c < kGateCols; ++c) {
      la::MatrixView<double> col(work.view().col(c), n, 1, n);
      a.solve(engine, col);
    }
    g.seq_s = t.seconds();
  }
  g.speedup = g.batched_s > 0.0 ? g.seq_s / g.batched_s : 0.0;
  return g;
}

/// Part B: `clients` closed-loop threads, each keeping one single-column
/// request in flight for `reqs` rounds.
void run_service_sweep(serve::Session<double>& session, index_t n,
                       int clients, int window_us, int reqs) {
  serve::ServiceOptions opts;
  opts.queue_capacity = 128;
  opts.max_batch_cols = kGateCols;
  opts.batch_window = std::chrono::microseconds{window_us};
  serve::SolverService<double> svc(session, opts);

  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  Timer t;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&svc, n, reqs, c] {
      for (int i = 0; i < reqs; ++i) {
        auto rhs = la::Matrix<double>::random(
            n, 1, static_cast<std::uint64_t>(1000 * c + i + 1));
        svc.submit(std::move(rhs)).get();
      }
    });
  }
  for (auto& th : threads) th.join();
  const double wall = t.seconds();
  svc.stop();
  const auto s = svc.stats();

  bench::BenchRecord rec;
  rec.name = "serve_closed_loop";
  rec.size = n;
  rec.reps = clients * reqs;
  rec.median_s = rec.min_s = wall;
  rec.extra = {
      {"clients", static_cast<double>(clients)},
      {"window_us", static_cast<double>(window_us)},
      {"throughput_rps",
       wall > 0.0 ? static_cast<double>(s.completed) / wall : 0.0},
      {"p50_s", s.p50_s},
      {"p95_s", s.p95_s},
      {"p99_s", s.p99_s},
      {"mean_batch_cols", s.mean_batch_cols()},
      {"rejected", static_cast<double>(s.rejected)},
  };
  g_json.add(rec);
  std::printf(
      "serve_closed_loop      clients=%-2d window=%-5dus  %6.0f req/s  "
      "p50 %.1f ms  p99 %.1f ms  batch %.2f\n",
      clients, window_us,
      wall > 0.0 ? static_cast<double>(s.completed) / wall : 0.0,
      s.p50_s * 1e3, s.p99_s * 1e3, s.mean_batch_cols());
  if (clients == 4 && window_us > 0)
    std::printf("# stats: %s\n", serve::to_json(s).c_str());
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_serve.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(smoke ? 900 : 2400);
  const index_t nb = bench::default_tile_size(n);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("# serve_throughput%s (git %s) N=%ld NB=%ld eps=%.1e "
              "hw_threads=%u\n",
              smoke ? " --smoke" : "", bench::bench_git_rev().c_str(),
              static_cast<long>(n), static_cast<long>(nb), eps, hw);

  // --- Part A: batched vs sequential per-vector gate ----------------------
  const bool skipped = hw < 4;
  GateResult g;
  if (!skipped) {
    g = gate_measured(n, nb, eps);
    bench::BenchRecord rec;
    rec.name = "serve_gate_measured";
    rec.size = n;
    rec.reps = 1;
    rec.median_s = rec.min_s = g.batched_s;
    rec.extra = {
        {"nrhs", static_cast<double>(kGateCols)},
        {"seq_s", g.seq_s},
        {"speedup", g.speedup},
        {"batched_cols_per_s",
         g.batched_s > 0.0 ? static_cast<double>(kGateCols) / g.batched_s
                           : 0.0},
        {"seq_cols_per_s",
         g.seq_s > 0.0 ? static_cast<double>(kGateCols) / g.seq_s : 0.0},
    };
    g_json.add(rec);
    std::printf("%-22s N=%-6ld nrhs=%ld  batched %.4f s  seq %.4f s  "
                "speedup %.2fx\n",
                rec.name.c_str(), static_cast<long>(n),
                static_cast<long>(kGateCols), g.batched_s, g.seq_s,
                g.speedup);
  }

  // --- Part B: closed-loop service sweep ----------------------------------
  {
    bem::FemBemProblem<double> problem(n);
    serve::SessionOptions so;
    so.workers = hw >= 4 ? 4 : (hw >= 2 ? 2 : 1);
    auto session = serve::Session<double>::build(
        problem.points(),
        [p = &problem](index_t i, index_t j) { return p->entry(i, j); },
        bench::tileh_options(nb, eps), so);
    const std::vector<int> client_counts =
        smoke ? std::vector<int>{1, 4} : std::vector<int>{1, 2, 4, 8};
    const std::vector<int> windows_us =
        smoke ? std::vector<int>{0, 200} : std::vector<int>{0, 200, 1000};
    const int reqs = smoke ? 16 : 32;
    for (const int clients : client_counts)
      for (const int w : windows_us)
        run_service_sweep(session, n, clients, w, reqs);
  }

  if (!g_json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  else
    std::printf("# wrote %s (%zu records)\n", out.c_str(),
                g_json.records().size());

  if (skipped) {
    std::printf("# gate: batched nrhs=%ld speedup skipped (hw_threads=%u)\n",
                static_cast<long>(kGateCols), hw);
    return 0;
  }
  std::printf("# gate: batched nrhs=%ld speedup %.2fx (measured, threshold "
              "2.0)\n",
              static_cast<long>(kGateCols), g.speedup);
  if (g.speedup < 2.0) {
    std::fprintf(stderr,
                 "FAIL: batched multi-RHS speedup %.2fx below 2.0x\n",
                 g.speedup);
    return 1;
  }
  return 0;
}
