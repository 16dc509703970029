// Operator lifecycle benchmark (DESIGN.md section 13): the three pillars
// of src/lifecycle/ measured end to end on one FEM/BEM operator family.
//
//   1. Woodbury rank-k update serving: (update + capacitance prepare +
//      solve) through UpdatableOperator vs the honest referee (fold the
//      delta into A, refactorize, solve) — the identity's whole point is
//      dodging that refactorization for ranks within the budget.
//   2. Factor-store cold start: Session::restore (mmap + validate + tile
//      fill) vs Session::build (assembly + factorization) of the same
//      operator.
//   3. Bounded multi-tenant SessionCache under a Zipf tenant mix, with a
//      budget that holds ~2.5 of the 6 tenants resident and spill/reload
//      through the factor store.
//
// Usage: lifecycle_ops [--smoke] [--out=PATH]
//   --smoke    trimmed sizes for CI
//   --out=PATH result file (default BENCH_lifecycle.json)
//
// Records: "woodbury_update" / "woodbury_refactor" (extra: "workers", "k",
// "solve_diff"), "coldstart_restore" / "coldstart_build" (extra: "workers",
// "file_bytes"), "cache_zipf" (extra: "tenants", "draws", "hit_rate",
// "spills", "spill_reloads", "evictions"), and "lifecycle_summary" (extra:
// "woodbury_speedup", "coldstart_speedup", "hit_rate", "hw_threads").
//
// Exit status is nonzero when
//   * the Woodbury-updated solve is not >= 5x faster than the
//     fold-and-refactorize referee at delta rank k = 16 (<= the default
//     rank budget of 32), or
//   * the Woodbury and refactorized solutions disagree beyond the
//     H-accuracy headroom (1000 * eps), or
//   * Session::restore is not >= 10x faster than Session::build, or
//   * the Zipf cache hit rate falls below 0.3 (the budget fits ~2.5 of 6
//     tenants, and the top two carry ~2/3 of the draws).
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "lifecycle/session_cache.hpp"
#include "lifecycle/updatable_operator.hpp"
#include "serve/solver_service.hpp"

using namespace hcham;

namespace {

bench::BenchJson g_json;

double rel_diff(const la::Matrix<double>& x, const la::Matrix<double>& ref) {
  la::Matrix<double> d = la::Matrix<double>::from_view(x.cview());
  la::axpy(-1.0, ref.cview(), d.view());
  return static_cast<double>(la::norm_fro(d.cview())) /
         static_cast<double>(la::norm_fro(ref.cview()));
}

void report(const char* name, index_t size, int reps, double median_s,
            double min_s,
            std::vector<std::pair<std::string, double>> extra) {
  bench::BenchRecord rec;
  rec.name = name;
  rec.size = size;
  rec.reps = reps;
  rec.median_s = median_s;
  rec.min_s = min_s;
  rec.extra = std::move(extra);
  g_json.add(rec);
  std::printf("%-20s N=%-6ld  %.4f s", name, static_cast<long>(size),
              median_s);
  for (const auto& [key, value] : rec.extra)
    std::printf("  %s %.4g", key.c_str(), value);
  std::printf("\n");
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

// ---------------------------------------------------------------------------
// Pillar 1: Woodbury update serving vs fold-and-refactorize referee.

struct WoodburyResult {
  double update_s = 0.0;    ///< median update + prepare + solve
  double refactor_s = 0.0;  ///< median fold + refactorize + solve
  double solve_diff = 0.0;  ///< rel diff between the two solutions
};

WoodburyResult run_woodbury(const bem::FemBemProblem<double>& problem,
                            index_t nb, double eps, int workers, int reps,
                            index_t k) {
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  const index_t n = problem.size();
  rt::Engine engine({.num_workers = workers});
  auto assembled = core::TileHMatrix<double>::build(
      engine, problem.points(), gen, bench::tileh_options(nb, eps));
  const auto u = la::Matrix<double>::random(n, k, 71);
  const auto v = la::Matrix<double>::random(n, k, 72);
  const auto b = la::Matrix<double>::random(n, 2, 73);

  WoodburyResult out;
  std::vector<double> t_update, t_refactor;
  la::Matrix<double> x_w, x_r;
  for (int r = 0; r < reps; ++r) {
    // Fresh operators per rep: update() accumulates, so reusing one would
    // time ever-growing deltas. The ctor factorization stays untimed.
    lifecycle::UpdatableOperator<double> wop(
        engine, assembled.deep_copy(engine), {.max_rank = 32});
    la::Matrix<double> x = la::Matrix<double>::from_view(b.cview());
    {
      Timer t;
      wop.update(u.cview(), v.cview());
      wop.solve(x.view());
      t_update.push_back(t.seconds());
    }
    if (r == 0) x_w = std::move(x);

    lifecycle::UpdatableOperator<double> rop(
        engine, assembled.deep_copy(engine), {.max_rank = 32});
    rop.update(u.cview(), v.cview());
    la::Matrix<double> y = la::Matrix<double>::from_view(b.cview());
    {
      Timer t;
      rop.rebase();  // fold + refactorize: what Woodbury lets us skip
      rop.solve(y.view());
      t_refactor.push_back(t.seconds());
    }
    if (r == 0) x_r = std::move(y);
  }
  out.update_s = median(t_update);
  out.refactor_s = median(t_refactor);
  out.solve_diff = rel_diff(x_w, x_r);
  report("woodbury_update", n, reps, out.update_s,
         *std::min_element(t_update.begin(), t_update.end()),
         {{"workers", static_cast<double>(workers)},
          {"k", static_cast<double>(k)},
          {"solve_diff", out.solve_diff}});
  report("woodbury_refactor", n, reps, out.refactor_s,
         *std::min_element(t_refactor.begin(), t_refactor.end()),
         {{"workers", static_cast<double>(workers)},
          {"k", static_cast<double>(k)}});
  return out;
}

// ---------------------------------------------------------------------------
// Pillar 2: factor-store cold start vs full build.

struct ColdStartResult {
  double build_s = 0.0;
  double restore_s = 0.0;
  double solve_diff = 0.0;
  std::uint64_t file_bytes = 0;
};

ColdStartResult run_coldstart(const bem::FemBemProblem<double>& problem,
                              index_t nb, double eps, int workers,
                              int build_reps, int restore_reps) {
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  const index_t n = problem.size();
  const std::string path = "bench_lifecycle_coldstart.hfac";
  serve::SessionOptions opts;
  opts.workers = workers;
  const auto b = la::Matrix<double>::random(n, 2, 91);

  ColdStartResult out;
  std::vector<double> t_build, t_restore;
  la::Matrix<double> x_build, x_restore;
  for (int r = 0; r < build_reps; ++r) {
    serve::SessionOptions o = opts;
    // The save rides inside the timed build(): a small serial write next
    // to the factorization, and the production flow pays it exactly once.
    o.save_factors_to = path;
    Timer t;
    auto s = serve::Session<double>::build(
        problem.points(), gen, bench::tileh_options(nb, eps), o);
    t_build.push_back(t.seconds());
    if (r == 0) {
      la::Matrix<double> x = la::Matrix<double>::from_view(b.cview());
      s.solve_now(x.view());
      x_build = std::move(x);
    }
  }
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fseek(f, 0, SEEK_END);
    out.file_bytes = static_cast<std::uint64_t>(std::ftell(f));
    std::fclose(f);
  }
  for (int r = 0; r < restore_reps; ++r) {
    Timer t;
    auto s = serve::Session<double>::restore(path, opts);
    t_restore.push_back(t.seconds());
    if (r == 0) {
      la::Matrix<double> x = la::Matrix<double>::from_view(b.cview());
      s.solve_now(x.view());
      x_restore = std::move(x);
    }
  }
  std::remove(path.c_str());
  out.build_s = median(t_build);
  out.restore_s = median(t_restore);
  out.solve_diff = rel_diff(x_restore, x_build);
  report("coldstart_build", n, build_reps, out.build_s,
         *std::min_element(t_build.begin(), t_build.end()),
         {{"workers", static_cast<double>(workers)},
          {"file_bytes", static_cast<double>(out.file_bytes)}});
  report("coldstart_restore", n, restore_reps, out.restore_s,
         *std::min_element(t_restore.begin(), t_restore.end()),
         {{"workers", static_cast<double>(workers)},
          {"solve_diff", out.solve_diff}});
  return out;
}

// ---------------------------------------------------------------------------
// Pillar 3: multi-tenant SessionCache under a Zipf access mix.

struct CacheResult {
  double hit_rate = 0.0;
  double wall_s = 0.0;
  lifecycle::SessionCache<double>::Stats stats;
};

CacheResult run_cache(index_t n, double eps, int tenants, int draws,
                      double zipf_s) {
  // Byte budget: ~2.5 tenants resident, the rest cycles through
  // eviction-with-spill and cold restores.
  std::vector<bem::FemBemProblem<double>> problems;
  problems.reserve(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i)
    problems.emplace_back(n, 1.0, 5.0 + static_cast<double>(i));
  serve::SessionOptions sopts;
  sopts.workers = 1;
  auto build_tenant = [&](int i) {
    const auto& p = problems[static_cast<std::size_t>(i)];
    auto gen = [&p](index_t a, index_t b) { return p.entry(a, b); };
    return serve::Session<double>::build(
        p.points(), gen, bench::tileh_options(128, eps), sopts);
  };
  const std::uint64_t one = [&] {
    auto probe = build_tenant(0);
    return probe.memory_bytes();
  }();

  lifecycle::SessionCache<double> cache(
      {.max_bytes = one * 5 / 2, .spill_dir = "."});
  // Zipf over tenant ranks: weight(i) = 1 / (i+1)^s.
  std::vector<double> weights(static_cast<std::size_t>(tenants));
  for (int i = 0; i < tenants; ++i)
    weights[static_cast<std::size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), zipf_s);
  std::mt19937_64 rng(4242);
  std::discrete_distribution<int> pick(weights.begin(), weights.end());

  const auto b = la::Matrix<double>::random(n, 1, 17);
  CacheResult out;
  Timer t;
  for (int d = 0; d < draws; ++d) {
    const int i = pick(rng);
    const std::string id = "tenant" + std::to_string(i);
    auto pin = cache.get_or_build(id, [&] { return build_tenant(i); });
    la::Matrix<double> x = la::Matrix<double>::from_view(b.cview());
    pin.solve_now(x.view());
  }
  out.wall_s = t.seconds();
  out.stats = cache.stats();
  const std::uint64_t lookups = out.stats.hits + out.stats.misses;
  out.hit_rate = lookups > 0
                     ? static_cast<double>(out.stats.hits) /
                           static_cast<double>(lookups)
                     : 0.0;
  for (int i = 0; i < tenants; ++i)
    std::remove(("tenant" + std::to_string(i) + ".hfac").c_str());
  std::printf("# cache stats %s\n", cache.stats_json().c_str());
  report("cache_zipf", n, draws, out.wall_s, out.wall_s,
         {{"tenants", static_cast<double>(tenants)},
          {"draws", static_cast<double>(draws)},
          {"hit_rate", out.hit_rate},
          {"spills", static_cast<double>(out.stats.spills)},
          {"spill_reloads", static_cast<double>(out.stats.spill_reloads)},
          {"evictions", static_cast<double>(out.stats.evictions)}});
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  std::string out = "BENCH_lifecycle.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    else if (std::strncmp(argv[i], "--out=", 6) == 0) out = argv[i] + 6;
    else {
      std::fprintf(stderr, "usage: %s [--smoke] [--out=PATH]\n", argv[0]);
      return 2;
    }
  }
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(smoke ? 1200 : 2400);
  const index_t nb = bench::default_tile_size(smoke ? 1600 : 2400);
  const unsigned hw = std::thread::hardware_concurrency();
  const int workers = hw >= 4 ? 4 : 1;
  const int reps = smoke ? 2 : 3;
  const index_t k = 16;  // within the default rank budget of 32
  std::printf(
      "# lifecycle_ops%s (git %s) N=%ld NB=%ld eps=%.1e hw_threads=%u P=%d "
      "k=%ld\n",
      smoke ? " --smoke" : "", bench::bench_git_rev().c_str(),
      static_cast<long>(n), static_cast<long>(nb), eps, hw, workers,
      static_cast<long>(k));

  bem::FemBemProblem<double> problem(n);
  const WoodburyResult wb = run_woodbury(problem, nb, eps, workers, reps, k);
  const ColdStartResult cs =
      run_coldstart(problem, nb, eps, workers, reps, /*restore_reps=*/3);
  const CacheResult cz = run_cache(/*n=*/320, eps, /*tenants=*/6,
                                   /*draws=*/smoke ? 50 : 120,
                                   /*zipf_s=*/1.2);

  const double woodbury_speedup =
      wb.update_s > 0.0 ? wb.refactor_s / wb.update_s : 0.0;
  const double coldstart_speedup =
      cs.restore_s > 0.0 ? cs.build_s / cs.restore_s : 0.0;
  std::printf("# woodbury: refactor %.4f s -> update %.4f s (%.1fx), "
              "solve diff %.2e\n",
              wb.refactor_s, wb.update_s, woodbury_speedup, wb.solve_diff);
  std::printf("# coldstart: build %.4f s -> restore %.4f s (%.1fx)\n",
              cs.build_s, cs.restore_s, coldstart_speedup);
  std::printf("# cache: hit rate %.2f (%lu hits / %lu misses, %lu spills, "
              "%lu reloads)\n",
              cz.hit_rate, static_cast<unsigned long>(cz.stats.hits),
              static_cast<unsigned long>(cz.stats.misses),
              static_cast<unsigned long>(cz.stats.spills),
              static_cast<unsigned long>(cz.stats.spill_reloads));
  bench::BenchRecord summary;
  summary.name = "lifecycle_summary";
  summary.size = n;
  summary.reps = reps;
  summary.median_s = summary.min_s = wb.update_s;
  summary.extra = {
      {"woodbury_speedup", woodbury_speedup},
      {"coldstart_speedup", coldstart_speedup},
      {"hit_rate", cz.hit_rate},
      {"hw_threads", static_cast<double>(hw)},
  };
  g_json.add(summary);

  if (!g_json.write(out))
    std::fprintf(stderr, "warning: could not write %s\n", out.c_str());
  else
    std::printf("# wrote %s (%zu records)\n", out.c_str(),
                g_json.records().size());

  int status = 0;
  if (woodbury_speedup < 5.0) {
    std::fprintf(stderr,
                 "FAIL: woodbury speedup %.2fx below 5x (k=%ld <= budget)\n",
                 woodbury_speedup, static_cast<long>(k));
    status = 1;
  }
  if (wb.solve_diff > 1000.0 * eps) {
    std::fprintf(stderr,
                 "FAIL: woodbury vs refactor solve diff %.2e exceeds %.2e\n",
                 wb.solve_diff, 1000.0 * eps);
    status = 1;
  }
  if (cs.solve_diff > 1e-12) {
    std::fprintf(stderr,
                 "FAIL: restored session diverges from builder (%.2e)\n",
                 cs.solve_diff);
    status = 1;
  }
  if (coldstart_speedup < 10.0) {
    std::fprintf(stderr, "FAIL: coldstart speedup %.2fx below 10x\n",
                 coldstart_speedup);
    status = 1;
  }
  if (cz.hit_rate < 0.3) {
    std::fprintf(stderr, "FAIL: zipf cache hit rate %.2f below 0.30\n",
                 cz.hit_rate);
    status = 1;
  }
  return status;
}
