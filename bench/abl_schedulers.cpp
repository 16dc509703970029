// Ablation A1: scheduler-policy sensitivity of the Tile-H LU.
//
// The paper (Sec. V-C) observes the three STARPU strategies are close,
// with prio usually best except on the smallest real cases where the
// central queue contends. This ablation quantifies the gap across tile
// sizes at a fixed thread count, and reports the contention-sensitive
// small-task regime explicitly (tasks per second through one queue).
#include "bench_common.hpp"

using namespace hcham;

int main() {
  bench::print_header("Ablation A1: scheduler policies across tile sizes "
                      "(every row modelled by rt::simulate)",
                      "precision,N,NB,policy,threads,time_s,efficiency,"
                      "dispatch_wait_s,tasks,mean_task_ms,steals_per_task");
  const double eps = bench::bench_eps();
  const index_t n = bench::scaled(4000);
  const int threads = 18;
  for (const index_t nb : {128, 256, 512, 1024}) {
    auto m = bench::measure_tileh_lu<double>(n, nb, eps);
    const double mean_task_ms =
        1e3 * m.graph.total_work_s() /
        static_cast<double>(std::max<index_t>(1, m.tasks));
    for (const auto policy : bench::all_policies()) {
      // Full SimResult: busy_s counts execution only, so the efficiency
      // column reflects real utilization; the serialized-dispatch wait is
      // reported separately (it is the contention the ablation studies).
      const auto r = rt::simulate(m.graph, policy, threads,
                                  bench::default_sim_params());
      const double per_task = static_cast<double>(std::max<index_t>(
          1, static_cast<index_t>(m.graph.num_tasks())));
      std::printf("d,%ld,%ld,%s,%d,%.4f,%.3f,%.4f,%ld,%.3f,%.3f\n", n, nb,
                  rt::to_string(policy), threads, r.makespan_s,
                  r.parallel_efficiency(), r.dispatch_wait_s, m.tasks,
                  mean_task_ms, static_cast<double>(r.steals) / per_task);
    }
  }
  return 0;
}
