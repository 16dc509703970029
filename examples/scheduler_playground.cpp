// Scheduler playground: factorize the same Tile-H matrix under the three
// STARPU-style scheduling policies, print DAG statistics, export the task
// graph as Graphviz DOT, and replay the measured DAG at several simulated
// worker counts (paper Figs. 1 and 6).
//
//   ./scheduler_playground [n] [tile_size] [dot_file]
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "bem/testcase.hpp"
#include "common/timer.hpp"
#include "core/hchameleon.hpp"
#include "runtime/simulator.hpp"

using namespace hcham;

int main(int argc, char** argv) {
  const index_t n = argc > 1 ? std::atol(argv[1]) : 2000;
  const index_t nb = argc > 2 ? std::atol(argv[2]) : 256;
  const char* dot_file = argc > 3 ? argv[3] : "tiled_lu_dag.dot";

  bem::FemBemProblem<double> problem(n);
  auto gen = [&problem](index_t i, index_t j) { return problem.entry(i, j); };
  core::TileHOptions opts;
  opts.tile_size = nb;
  opts.hmatrix.compression.eps = 1e-4;

  // Measure the task DAG once on a single worker.
  rt::Engine engine({.num_workers = 1, .record_trace = true});
  auto a = core::TileHMatrix<double>::build(engine, problem.points(), gen,
                                            opts);
  a.factorize_submit(engine);
  Timer t;
  engine.wait_all();
  const double t_seq = t.seconds();

  // The engine keeps the last epoch's graph: the LU, without the assembly
  // epoch before it (whose tasks took ids 0 .. g.first - 1).
  auto g = engine.graph();
  std::printf("Tiled H-LU DAG: %ld LU tasks (after %ld assembly tasks), "
              "%ld dependencies\n",
              g.num_tasks(), g.first, g.num_edges());
  std::printf("sequential LU time: %.2fs; critical path %.2fs "
              "(max speed-up %.1fx)\n\n",
              t_seq, g.critical_path_s(),
              g.total_work_s() / g.critical_path_s());

  // Replay at several worker counts per policy (simulated scaling).
  std::printf("%-6s", "P");
  for (auto p : {rt::SchedulerPolicy::WorkStealing,
                 rt::SchedulerPolicy::LocalityWorkStealing,
                 rt::SchedulerPolicy::Priority})
    std::printf("  %10s", rt::to_string(p));
  std::printf("\n");
  for (int workers : {1, 2, 3, 9, 18, 35}) {
    std::printf("%-6d", workers);
    for (auto p : {rt::SchedulerPolicy::WorkStealing,
                   rt::SchedulerPolicy::LocalityWorkStealing,
                   rt::SchedulerPolicy::Priority}) {
      const auto r = rt::simulate(g, p, workers);
      std::printf("  %9.3fs", r.makespan_s);
    }
    std::printf("\n");
  }

  // DOT export (render with: dot -Tpdf tiled_lu_dag.dot -o dag.pdf).
  std::ofstream out(dot_file);
  out << engine.to_dot();
  std::printf("\nDAG written to %s\n", dot_file);
  return 0;
}
