"""Verification suites: each suite turns one family of identities into a
max-residual with a pass/fail verdict against a tolerance tier.

Every residual is built from exact expression derivatives, so on the
built-in scenes it sits at round-off (quadratures at their quadrature
error).  The budgets are set per suite entry: the Gauss equation, Theorema
Egregium, sectional split and Hopf-coefficient identity keep budgets of
1e-5 and 1e-4, wider than their residuals need.  "strict" is ten times
tighter everywhere.

Two tables hold what each suite does; run_verification names no suite or
entry.  ENTRIES has a row per report entry, in report order: its suite,
budget, needs, whether it is checked at interior samples only, and its
reduction.  SUITES has a row per suite: what it reads of a chunk
(SampleGrid.reads), its function (part, run) -> {entry: values}, and an
optional setup (run) -> fail reason or None, run once before any chunk.
A new entry is one row plus one function.  An entry that lacks a need
(_NEEDS: a frame ambient, a normal axis, an isothermal or closed chart,
chi, a flat ambient) or whose mask keeps no sample is reported as
skipped, never as a failure.
"""

from __future__ import annotations

import json
import math
import types
from typing import Callable, NamedTuple

import numpy as np

from . import expr, extrinsic, gaussmap, holo, scenes
from .errors import NonFiniteValue, RcsurfError
from .so3 import dot_exprs
from .surface import CURVATURE_PARTS, abs_max

__all__ = ["ENTRIES", "SUITES", "TIERS", "VerificationReport", "run_verification",
           "gauge_fields"]


# reductions: an entry's values -> (max_residual, mean_residual or None for the same)
def _max_mean(values, scene):
    return float(np.max(values)), float(np.mean(values))


def _gauss_bonnet(values, scene):
    return abs(float(np.sum(values)) - 2.0 * np.pi * scene.chi) / (4.0 * np.pi), None


def _degree(values, scene):
    d = scenes.degree_from(np.sum(values))
    wrong = scene.chi is not None and 2 * d["degree"] != scene.chi     # degree = chi / 2
    return (1.0 if wrong else d["residual"]), None


# suites: (chunk part, run) -> {entry: values at every sample of part}
def _ambient_sanity(part, run):
    # the torsion needs no check: surface.induced_metric forms
    # T = Gamma - Gamma^T by subtraction, so T + T^T is exactly 0
    base, curv = part.base, part.curvature
    parts = [base["compat"], curv["r4_skew"]]
    if run.scene.ambient.kind == "frame":
        parts.append(curv["r4_max"])                        # flatness
        F = base["frame"]
        gram = expr.contract("nai,nab,nbj->nij", F, base["g"], F)
        parts.append(abs_max(gram - np.eye(3)))
    return {"ambient_sanity": np.max(np.stack(parts), axis=0)}


def _egregium(part, run):
    dec = extrinsic.curvature_decomposition(part.ext, part.curvature, part.intrinsic_K)
    run.flat = run.flat and dec["ambient_flat"]
    return {"egregium": dec["egregium"], "sectional_split": dec["sectional_split"]}


def _divcurl(part, run):
    ext, n = part.ext, part.gauss["n"]
    dc = gaussmap.div_curl(part.gauss_dn, part.gauss_frames)
    return {"divcurl": np.max(np.stack([
        np.abs(dc["div_top"] + ext["H"]),
        np.abs(dc["div_cross"] - ext["star_tau"]),
        np.max(np.abs(dc["curl_top"] + ext["star_tau"][:, None] * n), axis=-1),
        np.max(np.abs(dc["curl_cross"] + ext["H"][:, None] * n), axis=-1),
    ]), axis=0)}


# gauge entry -> its residual (gauged ambient, gauge field, part) at each sample
_GAUGE_RESIDUALS = {
    "gauge_theorem": lambda gamb, gfld, part: gaussmap.gauge_theorem_residual(
        gamb, gfld, part.ext, part.gauss),
    "gauge_general": lambda gamb, gfld, part: gaussmap.general_gauge_residual(
        gamb, gfld, part.ext, part.gauss_frames),
}


def _gauge_setup(run):
    # once per run: each live gauge entry's residual and gauge fields (its
    # gauge_fields), each field with its gauged ambient, gauge_theorem's first
    gauges = {name: gauge_fields(run.scene, name) for name in _GAUGE_RESIDUALS
              if ENTRIES[name].unmet(run) is None}
    run.gauged = {name: (_GAUGE_RESIDUALS[name], [
        (gfld, gaussmap.apply_gauge(run.scene.ambient, gfld)) for gfld in gflds])
        for name, gflds in gauges.items()}


def _gauge(part, run):
    # at each sample, the max over the entry's gauge fields; each field's
    # tables are a program of its own, dropped once its residual is formed
    return {name: np.max([residual(gamb, gfld, part) for gfld, gamb in fields], axis=0)
            for name, (residual, fields) in run.gauged.items()}


def _closed(run):
    # once per run: the closed-chart probe; its error is the degree entry's fail reason
    try:
        scenes.require_closed(run.scene)
    except RcsurfError as err:
        return str(err)


def _conformality(part, run):
    tol = run.scene.tolerances.get("classify", extrinsic.CLASSIFY_TOL)
    conf = gaussmap.conformality_test(part.base, part.gauss_dn, tol=tol)
    cls = extrinsic.classify(part.ext, tol=tol)
    want = (~cls["geodesic_point"]) & (cls["minimal_point"] | cls["umbilic"])
    return {"conformality": conf["conformal"] != want}


# need -> (whether the run has it, the reason an entry that needs it is skipped
# without it).  Flatness is the one need a run learns as it goes (egregium's
# suite reads it off each chunk): it holds until a chunk is found curved
_NEEDS = {
    "frame": (lambda run: run.scene.ambient.kind == "frame", "ambient not frame-defined"),
    "axis": (lambda run: run.scene.normal_axis is not None, "no normal-axis field"),
    "isothermal": (lambda run: run.scene.surface.declared_isothermal, "chart not isothermal"),
    "closed": (lambda run: run.scene.closed_chart, "chart not closed"),
    "chi": (lambda run: run.scene.chi is not None, "no euler_characteristic"),
    "flat": (lambda run: run.flat, "ambient not flat"),
}


class _Entry(NamedTuple):
    suite: str                  # the suite that computes it
    budget: float               # its analytic tolerance
    needs: tuple = ()           # of _NEEDS; the first unmet one is its skip reason
    interior: bool = False      # checked at interior_mask samples only
    reduce: Callable = _max_mean

    def unmet(self, run):
        """Why the entry is skipped in this run (its first need unmet), or None."""
        return next((why for has, why in map(_NEEDS.get, self.needs) if not has(run)), None)


class _Suite(NamedTuple):
    reads: tuple                # of SampleGrid.reads: comp tables, curvature parts, compat
    values: Callable            # (part, run) -> {entry: values per sample}
    setup: Callable = None      # (run) -> fail reason or None, once before any chunk


# entry -> its row, in report order
ENTRIES = {
    "ambient_sanity": _Entry("ambient_sanity", 1e-7),
    "gauss_eq": _Entry("gauss_eq", 1e-5, interior=True),
    "egregium": _Entry("egregium", 1e-4, ("flat",), interior=True),
    "sectional_split": _Entry("egregium", 1e-4, interior=True),
    "divcurl": _Entry("divcurl", 1e-7, ("frame",), interior=True),
    "gauge_theorem": _Entry("gauge", 1e-6, ("frame", "axis")),
    "gauge_general": _Entry("gauge", 1e-5, ("frame",)),
    "psi_identity": _Entry("psi_identity", 1e-8, ("isothermal",)),
    "hopf_identity": _Entry("hopf_identity", 1e-5, ("isothermal",), interior=True),
    "conformality": _Entry("conformality", 1e-9, ("frame",), interior=True,
                           reduce=lambda values, scene: (float(np.mean(values)), None)),
    "gauss_bonnet": _Entry("gauss_bonnet", 1e-3, ("closed", "chi"), reduce=_gauss_bonnet),
    "degree": _Entry("degree", 1e-3, ("closed", "frame"), reduce=_degree),
}

# suite -> its row, in the order its entries are reported
SUITES = {
    "ambient_sanity": _Suite(("compat", "r4_skew", "r4_max"), _ambient_sanity),
    "gauss_eq": _Suite(("d_gammaS", "r_uvvu"), lambda part, run: {
        "gauss_eq": extrinsic.gauss_equation_residual(part.ext, part.curvature,
                                                      part.intrinsic_K)}),
    "egregium": _Suite(("d_gammaS", "r_uvvu", "r4_max"), _egregium),
    "divcurl": _Suite(("dn_du", "dn_dv"), _divcurl),
    "gauge": _Suite((), _gauge, _gauge_setup),
    "psi_identity": _Suite((), lambda part, run: {
        "psi_identity": part.holo["psi_identity_residual"]}),
    "hopf_identity": _Suite(("d_hopf", "r_uvcn"), lambda part, run: {
        "hopf_identity": holo.hopf_identity_residual(
            part.base, part.curvature, part.holo, part.take("d_hopf")["d_hopf"])}),
    "conformality": _Suite(("dn_du", "dn_dv"), _conformality),
    "gauss_bonnet": _Suite(("d_gammaS",), lambda part, run: {
        "gauss_bonnet": part.area_terms("K")}),
    "degree": _Suite(("dn_du", "dn_dv"), lambda part, run: {
        "degree": part.degree_terms()}, _closed),
}

TIERS = {
    "analytic": {name: row.budget for name, row in ENTRIES.items()},
    "strict": {name: row.budget / 10.0 for name, row in ENTRIES.items()},
}

# The gauge fields of the gauge entries, as expression text: the angles of
# gauge_theorem, each about the scene's normal_axis, and the angles and
# unnormalized axes of gauge_general.  They are fixed pseudo-random draws
# (tests/gauge_fields.py draws them again, from seeds 1234 and 4321).
GAUGE_THEOREM = (
    "(0.8581)*sin(0.662*x) + (-0.2156)*cos(0.719*y) + (0.7618)*sin(x + y)",
    "(-0.6874)*sin(1.364*x) + (-0.4648)*cos(0.664*y) + (-0.3266)*sin(x + y)",
)
GAUGE_GENERAL = (
    ("(-0.8945)*sin(0.523*x) + (0.5552)*cos(0.492*y) + (0.0594)*sin(x + y)",
     ("2.0 + (0.599)*sin(1.015*x)", "0.0 + (0.601)*sin(0.309*y)",
      "0.0 + (-0.38)*sin(0.389*z)")),
    ("(-0.1558)*sin(1.256*x) + (0.5205)*cos(0.565*y) + (-0.4768)*sin(x + y)",
     ("2.0 + (0.136)*sin(0.8320000000000001*x)", "0.0 + (0.594)*sin(0.704*y)",
      "0.0 + (-0.159)*sin(1.026*z)")),
)


class VerificationReport:
    """Per-suite residual statistics, machine-consumable and deterministic."""

    def __init__(self, scene_name, grid_shape, tier):
        self.scene_name = scene_name
        self.grid_shape = grid_shape
        self.tier = tier
        self.entries = []       # one dict per entry, in report order

    @property
    def passed(self):
        return all(e["status"] != "fail" for e in self.entries)

    def to_dict(self):
        return {
            "scene": self.scene_name,
            "grid": f"{self.grid_shape[0]}x{self.grid_shape[1]}",
            "tier": self.tier,
            "suites": self.entries,
            "pass": self.passed,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    def summary_lines(self):
        lines = []
        for e in self.entries:
            if e["status"] == "skip":
                lines.append(f"  {e['name']:<18} skip   ({e['reason']})")
            elif e["max_residual"] is None:
                lines.append(f"  {e['name']:<18} {e['status']:<6} ({e['reason']})")
            else:
                lines.append(
                    f"  {e['name']:<18} {e['status']:<6} "
                    f"max_residual={e['max_residual']:.3e} tol={e['tolerance']:.1e}")
        lines.append(f"overall: {'pass' if self.passed else 'FAIL'}")
        return lines


def gauge_fields(scene, entry):
    """The gauge fields of a gauge entry on a scene: GAUGE_THEOREM's angles
    about the scene's normal_axis (the path of their axis), or
    GAUGE_GENERAL's angles about their axes normalized, then the scene's
    own gauge if it has one."""
    vars3 = scenes.AMBIENT_VARS
    if entry == "gauge_theorem":
        return [gaussmap.GaugeField(expr.parse(theta, vars3), scene.normal_axis,
                                    "normal_axis")
                for theta in GAUGE_THEOREM]
    out = []
    for theta, axis in GAUGE_GENERAL:
        comps = [expr.parse(c, vars3) for c in axis]
        norm = expr.call("sqrt", dot_exprs(comps, comps))
        out.append(gaussmap.GaugeField(expr.parse(theta, vars3),
                                       tuple(expr.div(c, norm) for c in comps)))
    return out + ([scene.gauge] if scene.gauge is not None else [])


@np.errstate(all="ignore")     # as cli.main: see scenes.build_scene
def run_verification(scene, nu=32, nv=32, suites=None, tol="analytic"):
    """Run the selected suites on one scene at the given resolution.

    The grid is streamed (SampleGrid.chunks): every block is built for one
    chunk of samples and dropped before the next.  An entry keeps only its
    value per sample (SampleGrid.collect: 8 bytes a sample, 1 for
    conformality's bool verdict), and only the flatness verdict is carried
    from chunk to chunk.  Each max, mean and quadrature sum runs once over
    the values of every chunk in sample order, so the report does not
    depend on the chunk size.  A suite runs when one of its entries has
    every need; its row's setup, if any, runs once before any chunk, in
    table order (the gauge fields with their gauged ambients, the
    closed-chart probe), and a fail reason from it fails the suite's
    entries.  The grid reads what the remaining rows read, and with no
    such row no block is built.  A chunk builds base, then the curvature
    block (r4 reduced to what the rows read, and dropped) and the
    composition tables, before any suite runs in table order, whatever the
    order of suites: the two widest programs run over the fewest held
    blocks, and each gauge field's tables are then a program of their own.

    tol is a tier name or one finite positive number (or its text) applied
    to every suite entry; anything else raises ValueError.
    """
    if isinstance(tol, str) and tol in TIERS:
        tols, tier_name = dict(TIERS[tol]), tol
    else:
        try:
            value = float(tol)
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"tolerance must be a tier ({', '.join(TIERS)}) "
                             f"or a finite positive number, got {tol!r}")
        tols, tier_name = dict.fromkeys(ENTRIES, value), repr(value)
    tols.update(scene.tolerances)
    chosen = SUITES if suites is None else list(suites)
    for s in chosen:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(SUITES)}")

    grid = scenes.make_grid(scene, nu, nv)
    report = VerificationReport(scene.name, (grid.nu, grid.nv), tier_name)
    # what suites read besides the chunk; what runs depends on the scene
    # only, so a skipped suite builds nothing
    run = types.SimpleNamespace(scene=scene, flat=True)
    planned = {row.suite for row in ENTRIES.values()
               if row.suite in chosen and row.unmet(run) is None}
    failed = {}             # suite -> why its entries fail with no residual
    for suite, row in SUITES.items():
        why = row.setup(run) if suite in planned and row.setup else None
        if why is not None:
            failed[suite] = why
    rows = [row for suite, row in SUITES.items()
            if suite in planned and suite not in failed]
    grid.reads = reads = frozenset().union(*(row.reads for row in rows))

    def chunk(part):
        # the widest programs first, over the fewest held blocks: the curvature
        # block's dGamma (r4 reduced and dropped within it), then the composition
        mask = part.interior_mask
        if not reads.isdisjoint(CURVATURE_PARTS):
            part.curvature
        part.comp
        out = {}            # entry -> its values at the samples it checks
        for row in rows:
            for name, values in row.values(part, run).items():
                out[name] = values[mask] if ENTRIES[name].interior else values
        return out

    kept = grid.collect(chunk) if rows else {}

    def result(name, row):
        # the report fields of an entry whose suite was chosen
        why = row.unmet(run)
        if why is not None:
            return {"status": "skip", "reason": why}
        if row.suite in failed:
            return {"status": "fail", "reason": failed[row.suite]}
        values = kept[name]
        if not values.size:
            return {"status": "skip", "reason": "no interior sample"}
        try:
            residual, mean = row.reduce(values, scene)
        except RcsurfError as err:      # a degree integral off an integer
            return {"status": "fail", "reason": str(err)}
        if not (math.isfinite(residual) and (mean is None or math.isfinite(mean))):
            raise NonFiniteValue("non-finite residual", f"report.{name}")
        return {"status": "pass" if residual <= tols[name] else "fail",
                "max_residual": residual, "mean_residual": residual if mean is None else mean,
                "tolerance": tols[name], "samples": values.size}

    fields = ("status", "max_residual", "mean_residual", "tolerance", "samples", "reason")
    report.entries = [{"name": name, **dict.fromkeys(fields), **result(name, row)}
                      for name, row in ENTRIES.items() if row.suite in chosen]
    return report
