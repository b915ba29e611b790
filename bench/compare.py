"""Compare the two sides of a suite file that suite.py wrote for two checkouts.

    python3 bench/compare.py SUITE

Side 0 is BASE and side 1 is NEW.  A workload is invalid, and gets no
verdicts, when a run on either side printed no result, when a NEW run is not
correct, or when NEW failed more ops than BASE; the reason is printed.
Otherwise, for each end-to-end metric, it prints the median and quartiles of
both sides, the change of NEW against BASE, and the first verdict that holds,
against the bound and direction that BENCHMARK.json fixes for the metric:

- better:     every NEW run beats every BASE run;
- unresolved: either side's spread (Q3 - Q1) / median exceeds the bound;
- better:     NEW wins at least 9 in 10 of the runs paired by seed, ties
              counting for neither, and the medians differ by more than the
              BASE quartile distance;
- worse:      the NEW median is worse by more than the bound;
- same:       otherwise.

Per-layer metrics of traced suites are listed with their change only; they
have no bound.  Exit code 1 when a workload is invalid or a verdict is worse
or unresolved.
"""

import json
import sys

from run import load_benchmark
from suite import metric_values, quartiles, spread


def verdict(base_runs, new_runs, name, bound, lower_better):
    base = metric_values(base_runs, name)
    new = metric_values(new_runs, name)
    sign = 1.0 if lower_better else -1.0

    def beats(a, b):
        return sign * (a - b) < 0

    if all(beats(n, b) for n in new for b in base):
        return "better"
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    q1, med_b, q3 = quartiles(base)
    med_n = quartiles(new)[1]
    base_by_seed = {r["seed"]: metric_values([r], name) for r in base_runs}
    pairs = [(metric_values([r], name)[0], base_by_seed[r["seed"]][0])
             for r in new_runs if base_by_seed.get(r["seed"])]
    wins = sum(beats(n, b) for n, b in pairs)
    if (pairs and wins >= 0.9 * len(pairs) and abs(med_n - med_b) > q3 - q1
            and beats(med_n, med_b)):
        return "better"
    if sign * (med_n - med_b) > bound * abs(med_b):
        return "worse"
    return "same"


def invalid(base_runs, new_runs):
    """Why the two sides of a workload cannot be compared, or None."""
    for side, runs in (("BASE", base_runs), ("NEW", new_runs)):
        missing = [r["seed"] for r in runs if r.get("result") is None]
        if missing:
            return f"{side} runs with no result, seeds {missing}"
    wrong = [r["seed"] for r in new_runs if not r["result"]["correct"]]
    if wrong:
        return f"NEW runs not correct, seeds {wrong}"
    failed = [sum(r["result"]["failed"] for r in runs)
              for runs in (base_runs, new_runs)]
    if failed[1] > failed[0]:
        return f"NEW failed {failed[1]} ops, BASE {failed[0]}"
    return None


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        suite = json.load(fh)
    if len(suite["sides"]) != 2:
        print(f"{argv[0]} has {len(suite['sides'])} side(s), not 2",
              file=sys.stderr)
        return 2
    base, new = suite["sides"]
    bench = load_benchmark()
    metrics = bench["per_layer"] if suite["trace"] else bench["end_to_end"]
    bad = False
    for workload, base_runs in base.items():
        new_runs = new.get(workload, [])
        reason = invalid(base_runs, new_runs) if new_runs else "no NEW runs"
        if reason:
            print(f"{workload}: INVALID: {reason}")
            bad = True
            continue
        print(f"{workload}:")
        for m in metrics:
            b, n = metric_values(base_runs, m["name"]), metric_values(new_runs, m["name"])
            bq, nq = quartiles(b), quartiles(n)
            change = (nq[1] - bq[1]) / abs(bq[1]) if bq[1] else 0.0
            line = (f"  {m['name']:<42} {bq[1]:>11.5g} [{bq[0]:.5g}, {bq[2]:.5g}]"
                    f" -> {nq[1]:>11.5g} [{nq[0]:.5g}, {nq[2]:.5g}] {m['unit']:<6}"
                    f" {change:+7.1%}")
            if "bound" in m:
                v = verdict(base_runs, new_runs, m["name"], m["bound"],
                            m["better"] == "lower")
                bad |= v in ("worse", "unresolved")
                line += f"  {v} (bound {m['bound']:.0%})"
            print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
