"""Layer spans for rcsurf, recorded from outside the package.

`install` wraps the public functions in LAYERS by replacing module and class
attributes.  This sees every call because the rcsurf modules call each other
through module attributes (`expr.eval_table(...)`, `scenes.integrate(...)`)
and through methods looked up on the class (`self.base_fields(...)`).

While a wrapped function runs, its attribute is restored to the original, so
a recursive function (`expr.diff`) gets one span for its outermost entry and
pays nothing on the recursion.

A span is [name, start, end, parent, peak_bytes, nodes, hidden_s]:
- start and end are `time.perf_counter()` seconds;
- parent is the index of the enclosing span, or -1;
- peak_bytes is the highest tracemalloc total while the span was open, less
  the total when it opened (0 when tracemalloc is off);
- nodes is, for `expr.eval_table`, the number of distinct expression nodes
  reachable from the evaluated table, and 0 otherwise;
- hidden_s is the time the recorder itself spent counting nodes while the
  span was open.

Nodes are counted only when tracemalloc is off, since the count's own
allocations would raise the peaks of the spans it runs in.  The count's time
is hidden_s of every span open at the time, so no layer is charged for it.

`layer_stats` turns the spans of one op into per-function totals.  A span's
duration is end - start - hidden_s.  A function's self time is its span
durations minus the durations of its child spans.  Children of one span never
overlap because rcsurf is single-threaded.
"""

import importlib
import time
import tracemalloc

# (module, class or None, function): the public calls each layer is timed at.
LAYERS = [
    ("cli", None, "main"),
    ("expr", None, "parse"),
    ("expr", None, "diff"),
    ("expr", None, "compose"),
    ("expr", None, "eval_table"),
    ("ambient", "Ambient", "christoffel_at"),
    ("ambient", "Ambient", "curvature_at"),
    ("ambient", "Ambient", "metric_compat_residual_at"),
    ("surface", "Surface", "base_fields"),
    ("surface", "Surface", "intrinsic_curvature"),
    ("surface", "Surface", "gauss_exprs"),
    ("extrinsic", None, "extrinsic_fields"),
    ("extrinsic", None, "gauss_equation_residual"),
    ("extrinsic", None, "curvature_decomposition"),
    ("gaussmap", None, "gauss_field"),
    ("gaussmap", None, "general_gauge_residual"),
    ("gaussmap", None, "gauge_theorem_residual"),
    ("holo", None, "dbar"),
    ("holo", None, "hopf_identity_residual"),
    ("scenes", None, "builtin"),
    ("scenes", None, "integrate"),
    ("scenes", None, "gauss_degree"),
    ("scenes", None, "export_fields"),
    ("verify", None, "run_verification"),
]

# A base_fields call made under one of these evaluates shifted (u, v) points
# for a finite-difference stencil instead of the sample grid itself.
STENCIL_CALLERS = ("surface.intrinsic_curvature", "holo.dbar")

STATS = ("calls", "incl_s", "self_s", "peak_mb", "nodes", "stencil_calls")


class Recorder:
    """In-memory span list for one process."""

    def __init__(self, memory):
        self.memory = memory
        self.spans = []
        self._open = []        # indices of open spans, innermost last
        self._high = {}        # open span index -> highest traced total seen
        self._nodes = {}       # leaf-id tuple -> (leaves, node count)

    def _fold_peak(self):
        _, peak = tracemalloc.get_traced_memory()
        for i in self._open:
            if peak > self._high[i]:
                self._high[i] = peak
        tracemalloc.reset_peak()

    def enter(self, name, nodes=0):
        base = 0
        if self.memory:
            self._fold_peak()
            base = tracemalloc.get_traced_memory()[0]
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, 0.0, 0.0, parent, base, nodes, 0.0])
        self._open.append(idx)
        self._high[idx] = base
        self.spans[idx][1] = time.perf_counter()
        return idx

    def exit(self, idx):
        end = time.perf_counter()
        span = self.spans[idx]
        span[2] = end
        if self.memory:
            self._fold_peak()
        span[4] = self._high.pop(idx) - span[4]
        self._open.pop()

    def table_nodes(self, table):
        """Distinct expression nodes reachable from a nested list of Exprs.

        Returns 0 when tracemalloc is on.
        """
        if self.memory:
            return 0
        t0 = time.perf_counter()
        leaves = []
        stack = [table]
        while stack:
            t = stack.pop()
            if isinstance(t, (list, tuple)):
                stack.extend(t)
            else:
                leaves.append(t)
        key = tuple(id(e) for e in leaves)
        hit = self._nodes.get(key)
        if hit is None:
            seen = set()
            stack = list(leaves)
            while stack:
                e = stack.pop()
                if id(e) in seen:
                    continue
                seen.add(id(e))
                stack.extend(c for c in (e.a, e.b) if c is not None)
            hit = (leaves, len(seen))     # keeps the leaves, so ids stay unique
            self._nodes[key] = hit
        spent = time.perf_counter() - t0
        for i in self._open:
            self.spans[i][6] += spent
        return hit[1]


def install(recorder):
    """Wrap every function in LAYERS so that its calls record spans."""
    for mod_name, cls_name, fn_name in LAYERS:
        owner = importlib.import_module(f"rcsurf.{mod_name}")
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        _wrap(recorder, owner, fn_name, f"{mod_name}.{fn_name}")


def _wrap(recorder, owner, fn_name, span_name):
    orig = vars(owner)[fn_name]
    count_nodes = span_name == "expr.eval_table"

    def wrapper(*args, **kwargs):
        nodes = recorder.table_nodes(args[0]) if count_nodes else 0
        setattr(owner, fn_name, orig)
        idx = recorder.enter(span_name, nodes)
        try:
            return orig(*args, **kwargs)
        finally:
            recorder.exit(idx)
            setattr(owner, fn_name, wrapper)

    setattr(owner, fn_name, wrapper)


def layer_stats(spans):
    """Per-function totals {name: {stat: value}} over one process's spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _, hidden in spans:
        if parent >= 0:
            covered[parent] += end - start - hidden
    out = {}
    for i, (name, start, end, parent, peak, nodes, hidden) in enumerate(spans):
        st = out.setdefault(name, dict.fromkeys(STATS, 0))
        st["calls"] += 1
        st["incl_s"] += end - start - hidden
        st["self_s"] += end - start - hidden - covered[i]
        st["peak_mb"] = max(st["peak_mb"], peak / 2**20)
        st["nodes"] += nodes
        if name == "surface.base_fields" and _under(spans, parent, STENCIL_CALLERS):
            st["stencil_calls"] += 1
    return out


def _under(spans, idx, names):
    while idx >= 0:
        if spans[idx][0] in names:
            return True
        idx = spans[idx][3]
    return False


def merge_stats(parts):
    """Sum per-function totals over processes; peaks take the maximum."""
    out = {}
    for part in parts:
        for name, st in part.items():
            acc = out.setdefault(name, dict.fromkeys(STATS, 0))
            for key, val in st.items():
                acc[key] = max(acc[key], val) if key == "peak_mb" else acc[key] + val
    return out
