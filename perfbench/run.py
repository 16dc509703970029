#!/usr/bin/env python3
"""Build the benchmark program from source, then run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

with W one of tileh_lu_z, hmat_lu_d, serve_d.

Run from the root of a checkout. The build goes to .bench_build/perfbench;
the first call configures and compiles (about a minute), later calls only
check that the build is up to date. Build output goes to stderr; the
program's stdout is passed through, so its last line is the JSON result.
Exits non-zero, without a result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def build():
    jobs = str(len(os.sched_getaffinity(0)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    build()
    try:
        proc = subprocess.run([os.path.join(BUILD, "perfbench")] + sys.argv[1:],
                              stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
