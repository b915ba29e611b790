"""rcsurf benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  One op runs at a time.  Each op
is one or more fresh child processes (child.py) running the rcsurf CLI with
default --jobs, because every CLI user pays for filling the process-global
expression caches.  Ops start while the run's elapsed time plus the last op's
time fits in --seconds, and there is always at least one.  Every op's output
is checked.  A failed op counts as attempted and is left out of the timings.

--seed fixes every generated input.  The program receives only the drawn
--param values.

--trace 0 measures the end-to-end metrics with tracing off.  The machine's
speed drifts by up to 2x over minutes, so a fixed reference process
(reference.py) runs before the first op and after each op.  Each op's
times are scaled by REF_S over the mean of the references on either side of
it, and the run reports the geometric mean over ops: times are stated at
the speed where the reference takes REF_S.  The raw times stay in the run
record.  --trace 1
reports the per-layer metrics.  It cycles through three kinds of op: plain
(untraced, the base of trace.overhead_ratio), spans (every layer records
spans, see spans.py; times and counts come from these) and memory (spans with
tracemalloc on; the peak_mb metrics come from these, because tracemalloc
slows allocation-heavy Python several times over).

The last stdout line is {"correct", "attempted", "failed", "metrics"}.  The
full record (each op's inputs, checks, SHA-256 of its outputs, spans) goes
to bench/.work/<workload>-seed<N>-trace<T>.json.
"""

import argparse
import hashlib
import json
import math
import os
import random
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
CHILD = os.path.join(HERE, "child.py")
REFERENCE = os.path.join(HERE, "reference.py")

sys.path.insert(0, HERE)
import spans  # noqa: E402

RUN_LIMIT_S = 170.0     # a run ends, killing its op if need be, by then
# Times are stated at the machine speed where reference.py takes REF_S, about
# its wall time in the fast spells of the 2-vCPU VM described in README.md.
REF_S = 0.6

# Children may write bytecode caches, as an installed CLI has them, whatever
# the caller's environment says.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}


def load_benchmark():
    """BENCHMARK.json: the workload names, metric names, units and bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# --- workloads ---------------------------------------------------------------

SWEEP_SCENES = [
    "cartan_schouten_sphere", "catenoid_frame_cylinder", "catenoid_frame_plane",
    "euclidean_plane", "rotated_frame_plane", "round_sphere_standard",
    "torus_standard",
]


def _scene_params(name, rng):
    """Seeded parameters; every value in these ranges passes verification."""
    if name == "cartan_schouten_sphere":
        return {"lambda": round(rng.uniform(0.05, 1.2), 6)}
    if name == "torus_standard":
        return {"R": round(rng.uniform(1.5, 3.0), 6),
                "r": round(rng.uniform(0.3, 0.7), 6)}
    return {}


def _call(command, scene, n, rng):
    return {"command": command, "scene": scene, "nu": n, "nv": n,
            "params": _scene_params(scene, rng)}


# workload name -> function of the run's RNG giving the invocations of one op
WORKLOADS = {
    "verify_cylinder_64":
        lambda rng: [_call("verify", "catenoid_frame_cylinder", 64, rng)],
    "verify_sphere_128":
        lambda rng: [_call("verify", "cartan_schouten_sphere", 128, rng)],
    "export_plane_128":
        lambda rng: [_call("fields", "catenoid_frame_plane", 128, rng)],
    "sweep_small":
        lambda rng: [_call("verify", s, 24, rng) for s in SWEEP_SCENES],
}

# --- output checks -------------------------------------------------------------

EXPORT_COLUMNS = [
    "u", "v", "p_x", "p_y", "p_z", "H", "star_tau", "K_e", "K_intrinsic",
    "abs_phi", "abs_psi", "n_1", "n_2", "n_3", "flags",
]


def _sech(v):
    return 1.0 / math.cosh(v)


# catenoid_frame_plane closed forms in v, with the analytic-tier tolerance of
# each column: 1e-5 for the finite-difference K_intrinsic, 1e-7 otherwise.
PLANE_GOLDENS = {
    "H": (lambda v: 0.0, 1e-7),
    "star_tau": (lambda v: 0.0, 1e-7),
    "K_e": (lambda v: -_sech(v) ** 2, 1e-7),
    "K_intrinsic": (lambda v: -_sech(v) ** 2, 1e-5),
    "abs_phi": (lambda v: 0.5 * _sech(v), 1e-7),
}


class CheckFailed(Exception):
    pass


def check_report(call, path):
    """Verify report: parses, names the scene and grid, no entry fails.

    Returns the worst max_residual / tolerance over entries that did not skip.
    """
    with open(path, encoding="utf-8") as fh:
        rep = json.load(fh)
    want_grid = f"{call['nu']}x{call['nv']}"
    if rep.get("scene") != call["scene"] or rep.get("grid") != want_grid:
        raise CheckFailed(f"report is for {rep.get('scene')} {rep.get('grid')}")
    ran = [e for e in rep["suites"] if e["status"] != "skip"]
    bad = [e["name"] for e in ran if e["status"] != "pass"]
    if bad or rep.get("pass") is not True:
        raise CheckFailed(f"entries not passing: {bad}")
    if not ran:
        raise CheckFailed("every entry skipped")
    return max(e["max_residual"] / e["tolerance"] for e in ran)


def check_export(call, path):
    """Field export: documented columns, nu*nv rows, closed forms hold.

    Returns (worst error / tolerance, golden_max_err) over PLANE_GOLDENS.
    """
    with open(path, encoding="utf-8", newline="") as fh:
        lines = fh.read().split("\n")
    if lines[-1] != "":
        raise CheckFailed("export does not end with a newline")
    header, rows = lines[0].split(","), lines[1:-1]
    if header != EXPORT_COLUMNS:
        raise CheckFailed(f"export columns {header}")
    if len(rows) != call["nu"] * call["nv"]:
        raise CheckFailed(f"export has {len(rows)} rows")
    col = {name: EXPORT_COLUMNS.index(name) for name in PLANE_GOLDENS}
    iv = EXPORT_COLUMNS.index("v")
    err = dict.fromkeys(PLANE_GOLDENS, 0.0)
    for row in rows:
        cells = row.split(",")
        if len(cells) != len(EXPORT_COLUMNS):
            raise CheckFailed(f"export row with {len(cells)} cells")
        v = float(cells[iv])
        for name, (exact, _) in PLANE_GOLDENS.items():
            dev = abs(float(cells[col[name]]) - exact(v))
            err[name] = max(err[name], math.inf if math.isnan(dev) else dev)
    ratio = max(err[n] / tol for n, (_, tol) in PLANE_GOLDENS.items())
    if ratio > 1.0:
        raise CheckFailed(f"export deviates from closed forms: {err}")
    return ratio, max(err.values())


# --- running ops -----------------------------------------------------------------


def _argv(call, out):
    argv = [call["command"], "--builtin", call["scene"],
            "--grid", f"{call['nu']}x{call['nv']}", "--out", out]
    for key, val in call["params"].items():
        argv += ["--param", f"{key}={val!r}"]
    return argv


def spawn(argv, timeout):
    """Run `python3 ARGV` to exit.  Returns (exit code, spawn time, wall s,
    rusage, stderr text); exit code is None on timeout."""
    errfile = os.path.join(WORK, "stderr.txt")
    with open(errfile, "w", encoding="utf-8") as err:
        t0 = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable] + argv, cwd=ROOT, env=CHILD_ENV,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
    # Block on a pidfd rather than poll, so the harness stays off the CPU
    # while the process runs; wait4 then reaps it with its rusage.
    exited = False
    try:
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited = bool(select.select([pidfd], [], [], max(timeout, 0.0))[0])
        finally:
            os.close(pidfd)
        wall = time.monotonic() - t0
    finally:
        if not exited:                    # timeout or interrupt: stop it
            os.kill(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(errfile, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return proc.returncode if exited else None, t0, wall, usage, stderr


def spawn_child(child_args, mode, timeout):
    """Run child.py to exit.  Returns (exit code, wall s, setup s, peak RSS MB,
    sidecar dict, stderr text); exit code is None on timeout."""
    sidecar = os.path.join(WORK, "sidecar.json")
    if os.path.exists(sidecar):
        os.remove(sidecar)
    code, t0, wall, usage, stderr = spawn([CHILD, sidecar, mode] + child_args,
                                          timeout)
    info = {}
    if os.path.exists(sidecar):
        with open(sidecar, encoding="utf-8") as fh:
            info = json.load(fh)
    setup = info["built_at"] - t0 if info.get("built_at") else None
    return code, wall, setup, usage.ru_maxrss / 1024.0, info, stderr


def run_op(calls, mode, timeout):
    """One op: every call in order, each checked.  Returns the op record."""
    op = {"mode": mode, "calls": [], "ok": True, "error": None, "ref_s": None,
          "op_s": 0.0, "setup_s": 0.0, "peak_rss_mb": 0.0,
          "samples": 0, "worst_residual_ratio": 0.0, "golden_max_err": None,
          "layers": None}
    layer_parts = []
    started = time.monotonic()
    for call in calls:
        out = os.path.join(WORK, "out.json" if call["command"] == "verify"
                           else "out.csv")
        if os.path.exists(out):
            os.remove(out)
        left = timeout - (time.monotonic() - started)
        code, wall, setup, rss, info, stderr = spawn_child(_argv(call, out), mode,
                                                         left)
        rec = dict(call, exit=code, wall_s=wall, setup_s=setup, peak_rss_mb=rss,
                   sha256=None)
        op["calls"].append(rec)
        op["op_s"] += wall
        op["peak_rss_mb"] = max(op["peak_rss_mb"], rss)
        op["samples"] += call["nu"] * call["nv"]
        try:
            if code != 0:
                raise CheckFailed(f"exit {code}: {stderr.strip()[-400:]}")
            if setup is None:
                raise CheckFailed("scene build time not recorded")
            op["setup_s"] += setup
            with open(out, "rb") as fh:
                rec["sha256"] = hashlib.sha256(fh.read()).hexdigest()
            if call["command"] == "verify":
                ratio = check_report(call, out)
            else:
                ratio, op["golden_max_err"] = check_export(call, out)
            op["worst_residual_ratio"] = max(op["worst_residual_ratio"], ratio)
        except (CheckFailed, OSError, ValueError, KeyError, TypeError) as err:
            op["ok"], op["error"] = False, f"{call['scene']}: {err}"
            break
        finally:
            if os.path.exists(out):
                os.remove(out)
        if mode != "plain":
            rec["spans"] = info["spans"]
            layer_parts.append(spans.layer_stats(info["spans"]))
    if mode != "plain" and op["ok"]:
        op["layers"] = spans.merge_stats(layer_parts)
    return op


def layer_value(layers, metric):
    func, stat = metric.rsplit(".", 1)
    st = layers.get(func, dict.fromkeys(spans.STATS, 0))
    if stat == "grid_ratio":
        return (st["calls"] - st["stencil_calls"]) / st["calls"] if st["calls"] else 0.0
    return st[stat]


class ReferenceFailed(Exception):
    pass


def reference(timeout):
    """Wall seconds of one reference.py process."""
    code, _, wall, _, stderr = spawn([REFERENCE], timeout)
    if code != 0:
        raise ReferenceFailed(f"exit {code}: {stderr.strip()[-400:]}")
    return wall


def measure(workload, seed, seconds, trace):
    """The op loop of one run.  Returns the list of op records.

    Untraced, reference.py runs before the first op and after each op, and
    each op's ref_s holds the reference times before and after it.
    """
    rng = random.Random(seed)
    modes = ("plain", "spans", "memory") if trace else ("plain",)
    start = time.monotonic()
    before = None if trace else reference(RUN_LIMIT_S)
    last = {}                      # mode -> seconds the last such op took
    ops = []
    while True:
        mode = modes[len(ops) % len(modes)]
        t = time.monotonic()
        op = run_op(WORKLOADS[workload](rng), mode, RUN_LIMIT_S - (t - start))
        ops.append(op)
        if op["calls"][-1]["exit"] is None:      # killed at the run limit
            break
        if not trace:
            after = reference(RUN_LIMIT_S - (time.monotonic() - start))
            op["ref_s"], before = [before, after], after
        last[mode] = time.monotonic() - t
        nxt = modes[len(ops) % len(modes)]
        # every mode runs once; after that an op starts only if it should fit
        if nxt in last and time.monotonic() - start + last[nxt] > seconds:
            break
    return ops


def gmean(values):
    """Geometric mean; the plain mean when a value is 0, as a time can be
    only in an op that failed at its start, when no op passed."""
    values = list(values)
    if all(v > 0 for v in values):
        return statistics.geometric_mean(values)
    return statistics.fmean(values)


def summarize(ops, trace, wanted):
    """The result line: `wanted` lists the metrics, as BENCHMARK.json does."""
    good = [op for op in ops if op["ok"]]
    metrics = {}
    if not trace:
        basis = good or ops
        # an op killed at the run limit has no reference after it; it is in
        # basis only when no op passed
        speed = [REF_S / statistics.fmean(op["ref_s"]) if op["ref_s"] else 1.0
                 for op in basis]
        op_s = gmean(op["op_s"] * k for op, k in zip(basis, speed))
        values = {
            "op_s": op_s,
            "samples_per_s": basis[0]["samples"] / op_s if op_s else 0.0,
            "setup_s": gmean(op["setup_s"] * k for op, k in zip(basis, speed)),
            "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in basis),
            "success_rate": len(good) / len(ops),
            "worst_residual_ratio":
                statistics.median(op["worst_residual_ratio"] for op in basis),
        }
        for m in wanted:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    else:
        by_mode = {m: [op for op in good if op["mode"] == m]
                   for m in ("plain", "spans", "memory")}
        for m in wanted:
            name = m["name"]
            if name == "trace.overhead_ratio":
                plain = [op["op_s"] for op in by_mode["plain"]]
                timed = [op["op_s"] for op in by_mode["spans"]]
                value = (statistics.median(timed) / statistics.median(plain)
                         if plain and timed else 0.0)
            else:
                basis = by_mode["memory" if name.endswith(".peak_mb") else "spans"]
                value = statistics.median(
                    [layer_value(op["layers"], name) for op in basis] or [0.0])
            metrics[name] = {"value": value, "unit": m["unit"]}
    return {"correct": len(good) == len(ops), "attempted": len(ops),
            "failed": len(ops) - len(good), "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through spawn(), which kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(ROOT, "src", "rcsurf", "cli.py")):
        print(f"error: no rcsurf sources under {ROOT}/src", file=sys.stderr)
        return 2
    bench = load_benchmark()
    os.makedirs(WORK, exist_ok=True)
    # Warm-up, untimed: writes the bytecode caches a CLI user already has.
    code, _, _, _, info, stderr = spawn_child(["list"], "plain", 60.0)
    if code != 0:
        print(f"error: rcsurf does not start: {stderr.strip()[-400:]}",
              file=sys.stderr)
        return 2

    try:
        ops = measure(args.workload, args.seed, args.seconds, args.trace)
    except ReferenceFailed as err:
        print(f"error: bench/reference.py failed: {err}", file=sys.stderr)
        return 2
    result = summarize(ops, args.trace,
                       bench["per_layer" if args.trace else "end_to_end"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result,
        "machine": {"nproc": os.cpu_count(),
                    "ram_mb": os.sysconf("SC_PHYS_PAGES")
                    * os.sysconf("SC_PAGE_SIZE") // 2**20,
                    "python": info.get("python"), "numpy": info.get("numpy")},
        "ops": ops,
    }
    path = os.path.join(WORK, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    for i, op in enumerate(ops):
        params = [c["params"] for c in op["calls"] if c["params"]]
        ref = (" (reference {:.3f} s, {:.3f} s)".format(*op["ref_s"])
               if op["ref_s"] else "")
        print(f"op {i}: {op['mode']} {op['op_s']:.3f} s{ref} "
              f"{'ok' if op['ok'] else 'FAILED ' + op['error']} {params or ''}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
