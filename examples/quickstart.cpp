// Quickstart: build a Tile-H matrix for a BEM kernel, factorize it with
// the task-parallel tiled H-LU, and solve a linear system.
//
//   ./quickstart [n] [tile_size] [workers]
//
// This is the 60-second tour of the library: everything else (schedulers,
// accuracy control, the pure H-matrix baseline) hangs off the same types.
#include <cstdio>
#include <cstdlib>

#include "bem/testcase.hpp"
#include "common/timer.hpp"
#include "core/hchameleon.hpp"

using namespace hcham;

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atol(argv[1]) : 2000;
  const index_t nb = argc > 2 ? std::atol(argv[2]) : 512;
  const int workers = argc > 3 ? std::atoi(argv[3]) : 2;

  std::printf("hcham quickstart: n=%ld tile=%ld workers=%d\n", n, nb,
              workers);

  // 1. A BEM problem: n points on a cylinder, kernel K(d) = 1/d.
  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };

  // 2. A task engine (the STARPU analogue) with the prio scheduler.
  rt::Engine engine({.num_workers = workers,
                     .policy = rt::SchedulerPolicy::Priority});

  // 3. The Tile-H matrix: regular tiles, each tile an H-matrix.
  core::TileHOptions opts;
  opts.tile_size = nb;
  opts.hmatrix.compression.eps = 1e-6;  // block-wise relative accuracy
  Timer build_timer;
  auto a = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            opts);
  std::printf("built:     %.2fs, compression %.3f (vs dense storage)\n",
              build_timer.seconds(), a.compression_ratio());

  // 4. A right-hand side with known solution x0 = 1.
  std::vector<double> x0(static_cast<std::size_t>(n), 1.0);
  std::vector<double> b(static_cast<std::size_t>(n), 0.0);
  a.matvec(1.0, x0.data(), 0.0, b.data());

  // 5. Task-parallel tiled H-LU (paper Algorithm 1 with H-kernels).
  Timer lu_timer;
  a.factorize(engine);
  const rt::TaskGraph lu = engine.graph();  // the last epoch: the LU
  std::printf("factorized: %.2fs (%ld tasks, %ld dependencies)\n",
              lu_timer.seconds(), lu.num_tasks(), lu.num_edges());

  // 6. Solve and report the forward error.
  la::MatrixView<double> bv(b.data(), n, 1, n);
  a.solve(engine, bv);
  double err = 0.0;
  for (index_t i = 0; i < n; ++i) {
    const double d = b[static_cast<std::size_t>(i)] - 1.0;
    err += d * d;
  }
  std::printf("forward error ||x - x0|| / ||x0|| = %.2e\n",
              std::sqrt(err / static_cast<double>(n)));
  return 0;
}
