// Submission-overhead gate for graph capture & replay (DESIGN.md sec. 10).
//
// Empty-closure DAGs shaped like the tiled LU factorization and the tiled
// triangular solve are driven through the engine twice: live (full STF
// handle-state inference per epoch) and replayed (closures re-bound to a
// CapturedGraph). With no kernel work, the epoch wall time IS the
// submission+scheduling overhead, so the live/replay ratio isolates what
// DAG compilation buys. The paper's motivation is exactly this cost: the
// runtime "cost of handling all fine grain dependencies" that dominates
// once tasks shrink.
//
// Usage: replay_overhead [--smoke] [--out=PATH]
//   --smoke    trimmed rep counts / sizes for CI
//   --out=PATH result file (default BENCH_replay.json)
//
// Emits BENCH_replay.json (base schema in EXPERIMENTS.md) with extra
// fields "workers", "tasks", "edges", "ratio" and, for the
// real-solve records, "submit_phase_s". Exit status is nonzero when the
// median live/replay overhead ratio of either synthetic DAG falls below
// the 1.3x gate.
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "runtime/graph_cache.hpp"

using namespace hcham;

namespace {

constexpr double kGateRatio = 1.3;
constexpr int kWorkers = 2;

bench::BenchJson g_json;

/// Tiled-LU-shaped DAG over an nt x nt grid, empty closures. Same shape as
/// TileHMatrix::factorize_submit: getrf(k), trsm row/col, gemm trailing.
void submit_lu_dag(rt::Engine& eng,
                   const std::vector<std::vector<rt::Handle>>& tiles) {
  const int nt = static_cast<int>(tiles.size());
  for (int k = 0; k < nt; ++k) {
    eng.submit([] {}, {rt::readwrite(tiles[k][k])}, 3, "getrf");
    for (int j = k + 1; j < nt; ++j)
      eng.submit([] {}, {rt::read(tiles[k][k]), rt::readwrite(tiles[k][j])},
                 2, "trsm");
    for (int i = k + 1; i < nt; ++i)
      eng.submit([] {}, {rt::read(tiles[k][k]), rt::readwrite(tiles[i][k])},
                 2, "trsm");
    for (int i = k + 1; i < nt; ++i)
      for (int j = k + 1; j < nt; ++j)
        eng.submit([] {},
                   {rt::read(tiles[i][k]), rt::read(tiles[k][j]),
                    rt::readwrite(tiles[i][j])},
                   1, "gemm");
  }
}

/// Forward+backward tiled-solve-shaped DAG: per-panel TRSM followed by its
/// downstream GEMM updates.
void submit_solve_dag(rt::Engine& eng,
                      const std::vector<std::vector<rt::Handle>>& tiles,
                      const std::vector<rt::Handle>& rhs) {
  const int nt = static_cast<int>(tiles.size());
  for (int k = 0; k < nt; ++k) {  // forward sweep
    eng.submit([] {}, {rt::read(tiles[k][k]), rt::readwrite(rhs[k])}, 2,
               "trsm");
    for (int i = k + 1; i < nt; ++i)
      eng.submit([] {}, {rt::read(tiles[i][k]), rt::read(rhs[k]),
                         rt::readwrite(rhs[i])},
                 1, "gemm");
  }
  for (int k = nt - 1; k >= 0; --k) {  // backward sweep
    eng.submit([] {}, {rt::read(tiles[k][k]), rt::readwrite(rhs[k])}, 2,
               "trsm");
    for (int i = 0; i < k; ++i)
      eng.submit([] {}, {rt::read(tiles[i][k]), rt::read(rhs[k]),
                         rt::readwrite(rhs[i])},
                 1, "gemm");
  }
}

struct OverheadResult {
  double live_s = 0.0;
  double replay_s = 0.0;
  index_t tasks = 0;
  index_t edges = 0;
  double ratio() const { return replay_s > 0.0 ? live_s / replay_s : 0.0; }
};

/// Median live-vs-replay epoch wall time for one synthetic DAG shape.
template <typename SubmitFn>
OverheadResult measure_overhead(int reps, SubmitFn&& submit_fn) {
  rt::Engine eng({.num_workers = kWorkers});
  // One warm-up + capture epoch (also primes allocator pools).
  HCHAM_CHECK(eng.begin_capture());
  submit_fn(eng);
  eng.wait_all();
  auto g = eng.end_capture();
  HCHAM_CHECK(g != nullptr);

  OverheadResult out;
  out.tasks = g->count;
  out.edges = g->num_edges();

  std::vector<double> live, replay;
  for (int r = 0; r < reps; ++r) {
    Timer t;
    submit_fn(eng);
    eng.wait_all();
    live.push_back(t.seconds());
  }
  for (int r = 0; r < reps; ++r) {
    Timer t;
    eng.begin_replay(g);
    submit_fn(eng);
    eng.wait_all();
    replay.push_back(t.seconds());
  }
  std::sort(live.begin(), live.end());
  std::sort(replay.begin(), replay.end());
  out.live_s = live[live.size() / 2];
  out.replay_s = replay[replay.size() / 2];
  return out;
}

void report_pair(const char* name, index_t size, int reps,
                 const OverheadResult& r) {
  bench::BenchRecord live;
  live.name = std::string(name) + "_live";
  live.size = size;
  live.reps = reps;
  live.median_s = live.min_s = r.live_s;
  live.extra = {{"workers", kWorkers},
                {"tasks", static_cast<double>(r.tasks)},
                {"edges", static_cast<double>(r.edges)}};
  g_json.add(live);
  bench::BenchRecord rep;
  rep.name = std::string(name) + "_replay";
  rep.size = size;
  rep.reps = reps;
  rep.median_s = rep.min_s = r.replay_s;
  rep.extra = {{"workers", kWorkers},
               {"tasks", static_cast<double>(r.tasks)},
               {"edges", static_cast<double>(r.edges)},
               {"ratio", r.ratio()}};
  g_json.add(rep);
  std::printf("%-18s tasks=%-5ld edges=%-6ld live %.3f ms  "
              "replay %.3f ms  ratio %.2fx\n",
              name, static_cast<long>(r.tasks), static_cast<long>(r.edges),
              1e3 * r.live_s, 1e3 * r.replay_s, r.ratio());
}

/// Ungated sanity record: a REAL Tile-H factorization+solve through the
/// cache, first pass (capture) vs steady state (replay), with the
/// submission-phase stopwatch split out.
void real_solve_records(bool smoke) {
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(smoke ? 600 : 1500);
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  rt::Engine eng({.num_workers = kWorkers});
  auto a = core::TileHMatrix<double>::build(
      eng, problem.points(), gen,
      bench::tileh_options(bench::default_tile_size(n), eps));
  a.factorize(eng);
  rt::GraphCache cache(4);
  la::Matrix<double> b(n, 4);
  for (index_t j = 0; j < b.cols(); ++j)
    for (index_t i = 0; i < n; ++i) b(i, j) = 1.0;
  const int reps = smoke ? 5 : 15;
  std::vector<double> first, steady, submit_live, submit_replay;
  {
    la::Matrix<double> x = la::Matrix<double>::from_view(b.view());
    Timer t;
    a.solve(eng, x.view(), &cache);  // capture pass
    first.push_back(t.seconds());
    submit_live.push_back(eng.last_submit_phase_s());
  }
  for (int r = 0; r < reps; ++r) {
    la::Matrix<double> x = la::Matrix<double>::from_view(b.view());
    Timer t;
    a.solve(eng, x.view(), &cache);  // replay
    steady.push_back(t.seconds());
    submit_replay.push_back(eng.last_submit_phase_s());
  }
  std::sort(steady.begin(), steady.end());
  std::sort(submit_replay.begin(), submit_replay.end());
  bench::BenchRecord cap;
  cap.name = "tileh_solve_capture";
  cap.size = n;
  cap.reps = 1;
  cap.median_s = cap.min_s = first[0];
  cap.extra = {{"workers", kWorkers}, {"submit_phase_s", submit_live[0]}};
  g_json.add(cap);
  bench::BenchRecord rp;
  rp.name = "tileh_solve_replay";
  rp.size = n;
  rp.reps = reps;
  rp.median_s = rp.min_s = steady[steady.size() / 2];
  rp.extra = {{"workers", kWorkers},
              {"submit_phase_s", submit_replay[submit_replay.size() / 2]},
              {"replayed", static_cast<double>(eng.replay_stats().replayed)}};
  g_json.add(rp);
  std::printf("%-18s N=%ld capture %.3f ms (submit %.3f ms)  "
              "replay %.3f ms (submit %.3f ms)\n",
              "tileh_solve", static_cast<long>(n), 1e3 * first[0],
              1e3 * submit_live[0], 1e3 * rp.median_s,
              1e3 * rp.extra[1].second);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_replay.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const int nt = smoke ? 14 : 20;
  const int reps = smoke ? 11 : 31;
  std::printf("# replay_overhead%s (git %s) nt=%d reps=%d workers=%d\n",
              smoke ? " --smoke" : "", bench::bench_git_rev().c_str(), nt,
              reps, kWorkers);

  OverheadResult lu, solve;
  {
    std::vector<std::vector<rt::Handle>> tiles;
    rt::Engine* current = nullptr;
    auto submit = [&](rt::Engine& eng) {
      if (current != &eng) {  // first call on this engine: register grid
        current = &eng;
        tiles.assign(static_cast<std::size_t>(nt), {});
        for (auto& row : tiles)
          for (int j = 0; j < nt; ++j) row.push_back(eng.register_data());
      }
      submit_lu_dag(eng, tiles);
    };
    lu = measure_overhead(reps, submit);
    report_pair("lu_dag", nt, reps, lu);
  }
  {
    std::vector<std::vector<rt::Handle>> tiles;
    std::vector<rt::Handle> rhs;
    rt::Engine* current = nullptr;
    auto submit = [&](rt::Engine& eng) {
      if (current != &eng) {
        current = &eng;
        tiles.assign(static_cast<std::size_t>(nt), {});
        for (auto& row : tiles)
          for (int j = 0; j < nt; ++j) row.push_back(eng.register_data());
        rhs.clear();
        for (int i = 0; i < nt; ++i) rhs.push_back(eng.register_data());
      }
      submit_solve_dag(eng, tiles, rhs);
    };
    solve = measure_overhead(reps, submit);
    report_pair("solve_dag", nt, reps, solve);
  }

  real_solve_records(smoke);

  if (!g_json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  else
    std::printf("# wrote %s (%zu records)\n", out.c_str(),
                g_json.records().size());

  std::printf("# gate: lu ratio %.2fx, solve ratio %.2fx (threshold %.1fx)\n",
              lu.ratio(), solve.ratio(), kGateRatio);
  if (lu.ratio() < kGateRatio || solve.ratio() < kGateRatio) {
    std::fprintf(stderr,
                 "FAIL: replay submission overhead ratio below %.1fx "
                 "(lu %.2fx, solve %.2fx)\n",
                 kGateRatio, lu.ratio(), solve.ratio());
    return 1;
  }
  return 0;
}
