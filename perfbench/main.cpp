// Benchmark entry point: one workload per process.
//
//   perfbench --workload <tileh_lu_z|hmat_lu_d|serve_d> --seed <n>
//             --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (see README.md). The last line of stdout is the JSON result; lines
// before it start with '#'.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "common.hpp"
#include "common/topology.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <tileh_lu_z|hmat_lu_d|serve_d> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

/// CPUs this process may run on (what nproc prints).
int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0)
    return hcham::hardware_threads();
  return CPU_COUNT(&set);
}

/// Threads a workload starts besides the main thread, which only submits
/// and then blocks (in wait_all, or on the service's replies). serve_d
/// gives one CPU to the service's batching thread.
int planned_threads(const std::string& workload, int nproc) {
  if (workload == "serve_d") return std::max(1, nproc - 1) + 1;
  return nproc;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions opts;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (std::strcmp(key, "--workload") == 0) {
      opts.workload = value;
      have_workload = true;
    } else if (std::strcmp(key, "--seed") == 0) {
      opts.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return usage();
    } else if (std::strcmp(key, "--seconds") == 0) {
      opts.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(opts.seconds > 0.0)) return usage();
    } else if (std::strcmp(key, "--trace") == 0) {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        return usage();
      opts.trace = value[0] == '1';
    } else {
      return usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return usage();
  opts.nproc = nproc();

  using Runner = perfbench::RunResult (*)(const perfbench::RunOptions&);
  Runner run = nullptr;
  if (opts.workload == "tileh_lu_z") run = perfbench::run_tileh_lu_z;
  else if (opts.workload == "hmat_lu_d") run = perfbench::run_hmat_lu_d;
  else if (opts.workload == "serve_d") run = perfbench::run_serve_d;
  else return usage();

  const int threads = planned_threads(opts.workload, opts.nproc);
  std::printf("# host {\"hardware_threads\": %d, \"nproc\": %d, "
              "\"numa_nodes\": %d}\n",
              hcham::hardware_threads(), opts.nproc,
              hcham::numa_node_count());
  if (threads > opts.nproc) {
    std::fprintf(stderr,
                 "refusing to run %s: it needs %d threads besides the main "
                 "thread, but only %d CPUs are available\n",
                 opts.workload.c_str(), threads, opts.nproc);
    return 3;
  }

  perfbench::RunResult res;
  try {
    res = run(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s failed: %s\n", opts.workload.c_str(), e.what());
    return 1;
  }
  bool finite = true;
  for (const perfbench::Metric& m : res.metrics)
    finite = finite && std::isfinite(m.value);
  if (!finite || res.metrics.empty()) {
    std::fprintf(stderr, "%s produced no usable metrics\n",
                 opts.workload.c_str());
    return 1;
  }
  std::printf("# workload %s seed %llu trace %d threads_started %d\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              res.threads_started);
  const bool correct = res.checks_ok && res.failed == 0;
  std::printf("%s\n", perfbench::result_json(correct, res.attempted,
                                             res.failed, res.metrics)
                          .c_str());
  return 0;
}
