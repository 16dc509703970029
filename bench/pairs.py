#!/usr/bin/env python3
"""Run alternating A/B pairs of perfbench and compare them per metric.

Parent checkout against a change:

    python3 bench/pairs.py --a ../parent --b . --pairs 10 --seconds 20

Two values of an env var on one checkout:

    python3 bench/pairs.py --env-a HCHAM_ACC_DISABLE=0 \\
        --env-b HCHAM_ACC_DISABLE=1 --pairs 10

Pair i runs seed seed0 + i on both sides, A first on even pairs and B first
on odd ones, so slow drift of the host does not favour one side. Each run is
`python3 perfbench/run.py` in its checkout (which builds there first).

For every workload and end-to-end metric the report gives the median and
IQR (the spread between the quartiles) of each side, the change of the
median, the largest relative difference within one pair (same seed, so 0
for a metric both sides compute identically), how many pairs B won (a tie
counts for neither side), and the metric's bound from BENCHMARK.json.
A metric is flagged WORSE when B's median is worse than A's by more than
that bound, and UNRESOLVED when either side's IQR exceeds that bound
relative to its median, unless every B run beats every A run. The
failed-operation counts (and runs that gave no result) of both sides close
each workload.

A gain is claimed with --claim METRIC@WORKLOAD (repeatable). It is met only
when B wins at least 9 in 10 pairs, B's median beats A's by more than A's
IQR, and B's share of failed operations is not higher than A's.

Exit status is 1 when a metric is WORSE or UNRESOLVED, a side has
failures, or a claimed gain is not met, else 0.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["tileh_lu_z", "hmat_lu_d", "serve_d"]


def parse_env(items):
    env = {}
    for item in items:
        name, sep, value = item.partition("=")
        if not sep or not name:
            sys.exit("pairs: expected NAME=VALUE, got %r" % item)
        env[name] = value
    return env


def run_once(checkout, env, workload, seed, seconds, trace):
    """One perfbench run; returns its JSON result, or None."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=dict(os.environ, **env),
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    lines = proc.stdout.decode().strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def fmt(x):
    return "%.4g" % x


def claim_verdict(name, stats, share_a, share_b):
    """One --claim line: whether B's gain on `name` meets the rule."""
    if stats is None:
        return False, "no pairs measured %s" % name
    wins, n, gain, a_iqr = stats
    misses = []
    if 10 * wins < 9 * n:
        misses.append("B won %d/%d pairs, needs 9 in 10" % (wins, n))
    if gain <= a_iqr:
        misses.append("median gain %.4g is not above A's IQR %.4g"
                      % (gain, a_iqr))
    if share_b > share_a:
        misses.append("B failed share %.3g above A's %.3g"
                      % (share_b, share_a))
    if misses:
        return False, "gain not met: " + "; ".join(misses)
    return True, ("gain met: B won %d/%d pairs, median gain %.4g above A's "
                  "IQR %.4g" % (wins, n, gain, a_iqr))


def report(workload, results, bounds, claims=()):
    """Print one workload's table; returns True when it passes."""
    ok = True
    print("\n## %s (%d pairs)\n" % (workload, len(results["a"])))
    print("| metric | A median | A IQR | B median | B IQR | change "
          "| max pair diff | B wins | bound | verdict |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    names = []
    for side in ("a", "b"):
        for r in results[side]:
            for name in (r or {}).get("metrics", {}):
                if name not in names:
                    names.append(name)
    stats = {}
    for name in names:
        def values(side):
            return [r["metrics"][name]["value"] if r and name in r["metrics"]
                    else None for r in results[side]]
        va, vb = values("a"), values("b")
        pairs = [(x, y) for x, y in zip(va, vb)
                 if x is not None and y is not None]
        if not pairs:
            continue
        a = [x for x, _ in pairs]
        b = [y for _, y in pairs]
        better, bound = bounds.get(name, ("lower", None))
        sign = 1.0 if better == "higher" else -1.0
        wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
        a1, am, a3 = quartiles(a)
        b1, bm, b3 = quartiles(b)
        stats[name] = (wins, len(pairs), sign * (bm - am), a3 - a1)
        change = (bm - am) / am if am else 0.0
        pair_diff = max(abs(y - x) / abs(x) if x else abs(y)
                        for x, y in pairs)
        spread = max((a3 - a1) / abs(am) if am else 0.0,
                     (b3 - b1) / abs(bm) if bm else 0.0)
        separated = min(sign * y for y in b) > max(sign * x for x in a)
        verdict = "ok"
        if bound is not None and sign * change < -bound:
            verdict = "WORSE"
        elif bound is not None and spread > bound and not separated:
            verdict = "UNRESOLVED"
        if verdict != "ok":
            ok = False
        print("| %s | %s | %s | %s | %s | %+.2f%% | %.2g | %d/%d | %s | %s |"
              % (name, fmt(am), fmt(a3 - a1), fmt(bm), fmt(b3 - b1),
                 100.0 * change, pair_diff, wins, len(pairs),
                 "-" if bound is None else "%g" % bound, verdict))
    share = {}
    for side in ("a", "b"):
        runs = results[side]
        missing = sum(1 for r in runs if r is None)
        failed = sum(r.get("failed", 0) for r in runs if r)
        attempted = sum(r.get("attempted", 0) for r in runs if r)
        wrong = sum(1 for r in runs if r and r.get("correct") is not True)
        share[side] = failed / attempted if attempted else 0.0
        print("\n%s: %d failed of %d operations, %d runs without a result, "
              "%d runs not correct" % (side.upper(), failed, attempted,
                                       missing, wrong))
        if failed or missing or wrong:
            ok = False
    for name in claims:
        met, why = claim_verdict(name, stats.get(name), share["a"],
                                 share["b"])
        print("\nclaim %s@%s: %s" % (name, workload, why))
        ok = ok and met
    return ok


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--a", default=ROOT, help="checkout A (default: this one)")
    ap.add_argument("--b", default=ROOT, help="checkout B (default: this one)")
    ap.add_argument("--env-a", action="append", default=[],
                    metavar="NAME=VALUE", help="env var set for A runs")
    ap.add_argument("--env-b", action="append", default=[],
                    metavar="NAME=VALUE", help="env var set for B runs")
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every raw result here")
    ap.add_argument("--claim", action="append", default=[],
                    metavar="METRIC@WORKLOAD",
                    help="check that B gains on METRIC of WORKLOAD")
    args = ap.parse_args()

    workloads = args.workloads.split(",")
    claims = {w: [] for w in workloads}
    for item in args.claim:
        metric, sep, workload = item.partition("@")
        if not sep or not metric or workload not in claims:
            sys.exit("pairs: expected METRIC@WORKLOAD with a run workload, "
                     "got %r" % item)
        claims[workload].append(metric)

    sides = {"a": (os.path.abspath(args.a), parse_env(args.env_a)),
             "b": (os.path.abspath(args.b), parse_env(args.env_b))}
    with open(os.path.join(sides["b"][0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: (m["better"], m.get("bound"))
              for m in bench["end_to_end"] + bench.get("per_layer", [])}

    all_results = {}
    ok = True
    for workload in workloads:
        results = {"a": [], "b": []}
        for i in range(args.pairs):
            seed = args.seed0 + i
            order = ("a", "b") if i % 2 == 0 else ("b", "a")
            for side in order:
                checkout, env = sides[side]
                results[side].append(run_once(checkout, env, workload, seed,
                                              args.seconds, args.trace))
            print("# %s pair %d/%d done" % (workload, i + 1, args.pairs),
                  file=sys.stderr, flush=True)
        all_results[workload] = results
        ok = report(workload, results, bounds, claims[workload]) and ok
        sys.stdout.flush()
    if args.json:
        with open(args.json, "w") as f:
            json.dump(all_results, f)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
