"""Run the benchmark for ten seeds on one or two checkouts, and summarize it.

    python3 bench/suite.py OUT [BASE_ROOT NEW_ROOT] [--trace 1]

With no roots it measures this checkout.  With two, each seed runs once on
each checkout, one right after the other, and which side goes first
alternates with the seed, so that the machine's slow spells fall on both
sides alike.  Each checkout runs its own bench/run.py, one run at a time, so
no two rcsurf processes ever overlap.  The workloads and run_seconds come
from BENCHMARK.json; the seeds are SEEDS.

For each workload, side and metric it prints the median over runs with its
quartiles and the spread (Q3 - Q1) / median, as
`statistics.quantiles(values, n=4)` gives them.  OUT receives every run's
result line and op records; compare.py reads it.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

from run import ROOT, load_benchmark

SEEDS = range(1, 11)


def quartiles(values):
    """(Q1, median, Q3) of the values; one value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def metric_values(runs, name):
    return [r["result"]["metrics"][name]["value"] for r in runs
            if r.get("result") and name in r["result"]["metrics"]]


def run_one(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=240)
    lines = proc.stdout.strip().splitlines()
    run = {"seed": seed, "exit": proc.returncode, "result": None}
    if not (lines and lines[-1].startswith("{")):
        run["stderr"] = proc.stderr[-2000:]
        return run
    run["result"] = json.loads(lines[-1])
    path = os.path.join(root, "bench", ".work",
                        f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as fh:
        record = json.load(fh)
    run["machine"] = record["machine"]
    for op in record["ops"]:
        for call in op["calls"]:
            call.pop("spans", None)
    run["ops"] = record["ops"]
    return run


def print_table(runs, metrics):
    for m in metrics:
        vals = metric_values(runs, m["name"])
        if not vals:
            continue
        q1, med, q3 = quartiles(vals)
        print(f"  {m['name']:<42} {med:>12.6g} {m['unit']:<6} "
              f"[{q1:.6g}, {q3:.6g}]  spread {spread(vals):.4f}  n={len(vals)}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out")
    ap.add_argument("roots", nargs="*", default=[ROOT])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if len(args.roots) not in (1, 2):
        ap.error("give no checkout, or two: BASE_ROOT NEW_ROOT")

    bench = load_benchmark()
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    roots = [os.path.abspath(r) for r in args.roots]
    suite = {"seconds": bench["run_seconds"], "trace": args.trace,
             "roots": roots, "sides": [{} for _ in roots]}
    failed = False
    for workload in (w["name"] for w in bench["workloads"]):
        for side in suite["sides"]:
            side[workload] = []
        for seed in SEEDS:
            order = list(range(len(roots)))
            if seed % 2 == 0:
                order.reverse()
            for i in order:
                run = run_one(roots[i], workload, seed, bench["run_seconds"],
                              args.trace)
                suite["sides"][i][workload].append(run)
                res = run["result"]
                failed |= res is None or not res["correct"]
                print(f"{workload} seed {seed} side {i}: exit {run['exit']}, "
                      f"{res['attempted'] if res else 0} ops, "
                      f"{res['failed'] if res else '?'} failed", flush=True)
        for i, side in enumerate(suite["sides"]):
            print(f"{workload} side {i} ({roots[i]}):")
            print_table(side[workload], metrics)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(suite, fh, indent=1)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
