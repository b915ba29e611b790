"""Verification suites: each suite turns one family of identities into a
max-residual with a pass/fail verdict against a tolerance tier.

Every residual is built from exact expression derivatives, so on the
built-in scenes it sits at round-off (quadratures at their quadrature
error).  The budgets are set per suite entry: the Gauss equation, Theorema
Egregium, sectional split and Hopf-coefficient identity keep budgets of
1e-5 and 1e-4, wider than their residuals need.  "strict" is ten times
tighter everywhere.

Two tables hold what each suite does.  ENTRIES has a row per report
entry, in report order: its suite, budget, needs, whether it is checked at
interior samples only, and its reduction.  SUITES has a row per suite:
the composition tables and curvature-block parts it reads, and its
function (part, run) -> {entry: values}.  A new entry is one row plus one
function.  An entry that lacks a need (_NEEDS: a frame ambient, a normal
axis, an isothermal or closed chart, chi, a flat ambient) or whose mask
keeps no sample is reported as skipped, never as a failure.
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


def _gauge(part, run):
    # at each sample, the max over the entry's gauge fields (gauge_theorem's
    # rotate about the scene's normal_axis); each field's tables are a
    # program of its own, dropped once its residual is formed
    out = {}
    for name, fields in run.gauged.items():
        if name == "gauge_theorem":
            res = [gaussmap.gauge_theorem_residual(gamb, gfld, part.ext, part.gauss)
                   for gfld, gamb in fields]
        else:
            res = [gaussmap.general_gauge_residual(gamb, gfld, part.ext, part.gauss_frames)
                   for gfld, gamb in fields]
        out[name] = np.max(res, axis=0)
    return out


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
    composition: tuple          # the tables of SampleGrid.comp it reads
    curvature: tuple            # what it reads of the curvature block: r_uvvu, r4 reductions
    values: Callable            # (part, run) -> {entry: values per sample}


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
    "ambient_sanity": _Suite((), ("r4_skew", "r4_max"), _ambient_sanity),
    "gauss_eq": _Suite(("d_gammaS",), ("r_uvvu",), lambda part, run: {
        "gauss_eq": extrinsic.gauss_equation_residual(part.ext, part.curvature,
                                                      part.intrinsic_K)}),
    "egregium": _Suite(("d_gammaS",), ("r_uvvu", "r4_max"), _egregium),
    "divcurl": _Suite(("dn_du", "dn_dv"), (), _divcurl),
    "gauge": _Suite((), (), _gauge),
    "psi_identity": _Suite((), (), lambda part, run: {
        "psi_identity": part.holo["psi_identity_residual"]}),
    "hopf_identity": _Suite(("d_hopf",), ("r_uvcn",), lambda part, run: {
        "hopf_identity": holo.hopf_identity_residual(
            part.base, part.curvature, part.holo, part.take("d_hopf")["d_hopf"])}),
    "conformality": _Suite(("dn_du", "dn_dv"), (), _conformality),
    "gauss_bonnet": _Suite(("d_gammaS",), (), lambda part, run: {
        "gauss_bonnet": part.area_terms("K")}),
    "degree": _Suite(("dn_du", "dn_dv"), (), lambda part, run: {
        "degree": part.degree_terms()}),
}

# a chunk evaluates the composition tables that its suites read in one (u, v)
# program, in this order: on catenoid_frame_cylinder it holds at most 249
# live arrays, against 275 in the suites' order (d_gammaS first)
_COMPOSITION_ORDER = ("dn_du", "dn_dv", "d_hopf", "d_gammaS")

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
        self.entries = []

    def add(self, name, status, max_residual=None, tolerance=None,
            samples=None, reason=None, mean_residual=None):
        if mean_residual is None:
            mean_residual = max_residual
        self.entries.append({
            "name": name, "status": status,
            "max_residual": None if max_residual is None else float(max_residual),
            "mean_residual": None if mean_residual is None else float(mean_residual),
            "tolerance": None if tolerance is None else float(tolerance),
            "samples": samples, "reason": reason,
        })

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
    GAUGE_GENERAL's angles about their axes normalized."""
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
    return out


@np.errstate(all="ignore")     # as cli.main: see scenes.build_scene
def run_verification(scene, nu=32, nv=32, suites=None, tol="analytic"):
    """Run the selected suites on one scene at the given resolution.

    The grid is streamed (SampleGrid.chunks): every block is built for one
    chunk of samples and dropped before the next.  An entry keeps only its
    value per sample (SampleGrid.collect: 8 bytes a sample, 1 for
    conformality's bool verdict), and only the flatness verdict is carried
    from chunk to chunk.  Each max, mean and quadrature sum runs once over
    the values of every chunk in sample order, so the report does not
    depend on the chunk size.  A chunk builds base, then the curvature
    block (r4 reduced to what the planned suites read, and dropped) and the
    composition tables, before any suite runs in table order, whatever the
    order of suites: the two widest programs run over the fewest held
    blocks, and each gauge field's tables are then a program of their own.
    The symbolic setup (the gauge fields, each with its gauged ambient from
    gaussmap.apply_gauge) and the closed-chart probe run once per run.

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
    live = [name for name, row in ENTRIES.items()
            if row.suite in chosen and row.unmet(run) is None]
    planned = list(dict.fromkeys(ENTRIES[name].suite for name in live))

    gauges = {name: gauge_fields(scene, name) for name in live
              if ENTRIES[name].suite == "gauge"}
    if "gauge_general" in gauges and scene.gauge is not None:
        gauges["gauge_general"].append(scene.gauge)
    # entry -> its gauge fields with their gauged ambients, gauge_theorem's first
    run.gauged = {name: [(gfld, gaussmap.apply_gauge(scene.ambient, gfld)) for gfld in gflds]
                  for name, gflds in gauges.items()}
    failed = {}             # entry -> why it fails with no residual
    if "degree" in planned:
        try:
            scenes.require_closed(scene)
        except RcsurfError as err:
            failed["degree"] = str(err)
            planned.remove("degree")
    rows = [SUITES[suite] for suite in planned]
    wanted = {k for row in rows for k in row.composition}
    grid.composition = tuple(k for k in _COMPOSITION_ORDER if k in wanted)
    reduced = {k for row in rows for k in row.curvature}
    grid.curvature_parts = tuple(k for k in CURVATURE_PARTS if k in reduced)
    grid.with_compat = "ambient_sanity" in planned

    def chunk(part):
        # the widest programs first, over the fewest held blocks: the curvature
        # block's dGamma (r4 reduced and dropped within it), then the composition
        mask = part.interior_mask
        if reduced:
            part.curvature
        part.comp
        out = {}            # entry -> its values at the samples it checks
        for row in rows:
            for name, values in row.values(part, run).items():
                out[name] = values[mask] if ENTRIES[name].interior else values
        return out

    kept = grid.collect(chunk)

    def result(name, row):
        # the report fields of an entry whose suite was chosen
        why = row.unmet(run)
        if why is not None:
            return {"status": "skip", "reason": why}
        if name in failed:
            return {"status": "fail", "reason": failed[name]}
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
                "max_residual": residual, "mean_residual": mean,
                "tolerance": tols[name], "samples": values.size}

    for name, row in ENTRIES.items():
        if row.suite in chosen:
            report.add(name, **result(name, row))
    return report
