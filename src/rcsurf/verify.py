"""Verification suites: each suite turns one family of identities into a
max-residual with a pass/fail verdict against a tolerance tier.

Every residual is built from exact expression derivatives, so on the
built-in scenes it sits at round-off (quadratures at their quadrature
error).  The budgets are set per suite entry: the Gauss equation, Theorema
Egregium, sectional split and Hopf-coefficient identity keep budgets of
1e-5 and 1e-4, wider than their residuals need.  "strict" is ten times
tighter everywhere.

ENTRIES, the one table of report entries, gives each entry's suite and
analytic budget in report order; SUITES, TIERS and the names allowed under
a scene's "tolerances" derive from it.  Entries that do not apply (degree
on a non-closed chart, Gauss-map suites on coefficient-defined ambients,
holomorphic suites off charts not declared isothermal, egregium in a curved
ambient, a masked entry whose mask keeps no sample) are reported as
skipped, never as failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr, extrinsic, gaussmap, holo, scenes
from .errors import NonFiniteValue, RcsurfError
from .so3 import dot_exprs
from .surface import CURVATURE_PARTS, abs_max

__all__ = ["ENTRIES", "SUITES", "TIERS", "VerificationReport", "run_verification",
           "gauge_fields"]

# entry -> (suite that computes it, analytic budget), in report order
ENTRIES = {
    "ambient_sanity": ("ambient_sanity", 1e-7),
    "gauss_eq": ("gauss_eq", 1e-5),
    "egregium": ("egregium", 1e-4),
    "sectional_split": ("egregium", 1e-4),
    "divcurl": ("divcurl", 1e-7),
    "gauge_theorem": ("gauge", 1e-6),
    "gauge_general": ("gauge", 1e-5),
    "psi_identity": ("psi_identity", 1e-8),
    "hopf_identity": ("hopf_identity", 1e-5),
    "conformality": ("conformality", 1e-9),
    "gauss_bonnet": ("gauss_bonnet", 1e-3),
    "degree": ("degree", 1e-3),
}

SUITES = list(dict.fromkeys(suite for suite, _ in ENTRIES.values()))

TIERS = {
    "analytic": {name: budget for name, (_, budget) in ENTRIES.items()},
    "strict": {name: budget / 10.0 for name, (_, budget) in ENTRIES.items()},
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


# the surface-composition tables each suite reads (SampleGrid.comp); a chunk
# evaluates those of every suite that runs in one (u, v) program, in the order
# of _COMPOSITION_ORDER: on catenoid_frame_cylinder that program holds at most
# 249 live arrays, against 275 in the suites' order (d_gammaS first)
_COMPOSITION = {
    "gauss_eq": ("d_gammaS",),
    "egregium": ("d_gammaS",),
    "divcurl": ("dn_du", "dn_dv"),
    "hopf_identity": ("d_hopf",),
    "conformality": ("dn_du", "dn_dv"),
    "gauss_bonnet": ("d_gammaS",),
    "degree": ("dn_du", "dn_dv"),
}
_COMPOSITION_ORDER = ("dn_du", "dn_dv", "d_hopf", "d_gammaS")

# the suites that read the curvature block, each with the reductions of r4 it
# reads besides r_uvvu (Surface.curvature_fields; SampleGrid.curvature_parts)
_CURVATURE = {
    "ambient_sanity": ("r4_skew", "r4_max"),
    "gauss_eq": (),
    "egregium": ("r4_max",),
    "hopf_identity": ("r_uvcn",),
}


def _entries(suite):
    return [name for name, (owner, _) in ENTRIES.items() if owner == suite]


def _plan(scene, chosen):
    """The suites whose chunk work runs, and the reason for each entry that
    is skipped; both depend on the scene only, so a skipped suite builds
    nothing."""
    no_frame = None if scene.ambient.kind == "frame" else "ambient not frame-defined"
    no_iso = None if scene.surface.declared_isothermal else "chart not isothermal"
    no_axis = None if scene.normal_axis is not None else "no normal-axis field"
    not_closed = None if scene.closed_chart else "chart not closed"
    no_chi = None if scene.chi is not None else "no euler_characteristic"
    reasons = {
        "divcurl": no_frame,
        "gauge_theorem": no_frame or no_axis,
        "gauge_general": no_frame,
        "psi_identity": no_iso,
        "hopf_identity": no_iso,
        "conformality": no_frame,
        "gauss_bonnet": not_closed or no_chi,
        "degree": not_closed or no_frame,
    }
    skips = {name: why for name, why in reasons.items() if why}
    run = [s for s in chosen if any(e not in skips for e in _entries(s))]
    return run, skips


@np.errstate(all="ignore")     # as cli.main: see scenes.build_scene
def run_verification(scene, nu=32, nv=32, suites=None, tol="analytic"):
    """Run the selected suites on one scene at the given resolution.

    The grid is streamed (SampleGrid.chunks): every block is built for one
    chunk of samples and dropped before the next.  An entry keeps only its
    residual or quadrature term per sample (8 bytes a sample, gathered by
    SampleGrid.collect); a gauge entry's residual at a sample is the max
    over its gauge fields, and only the flatness verdict is carried from
    chunk to chunk.  Each max, mean and quadrature sum runs once over the
    values of every chunk in sample order, so the report does not depend
    on the chunk size.  A chunk builds base, then the curvature block
    (r4 reduced to what the planned suites read, and dropped) and the
    composition tables, before any suite runs: the two widest programs
    run over the fewest held blocks, and each gauge field's tables are
    then a program of their own.  The symbolic
    setup (the gauge fields, each with its gauged ambient from
    gaussmap.apply_gauge) and the closed-chart probe run once per run.

    tol is a tier name or one finite positive number (or its text) applied
    to every suite entry; anything else raises ValueError.
    """
    if isinstance(tol, str) and tol in TIERS:
        tols = dict(TIERS[tol])
        tier_name = tol
    else:
        try:
            value = float(tol)
        except (TypeError, ValueError):
            value = math.nan
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"tolerance must be a tier ({', '.join(TIERS)}) "
                             f"or a finite positive number, got {tol!r}")
        tols = {k: value for k in ENTRIES}
        tier_name = repr(value)
    tols.update(scene.tolerances)
    chosen = SUITES if suites is None else list(dict.fromkeys(suites))
    for s in chosen:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(SUITES)}")

    grid = scenes.make_grid(scene, nu, nv)
    report = VerificationReport(scene.name, (grid.nu, grid.nv), tier_name)
    amb = scene.ambient
    nsamples = int(grid.U.shape[0])
    run, skips = _plan(scene, chosen)

    gauges = {}             # entry -> its gauge fields
    if "gauge" in run:
        if "gauge_theorem" not in skips:
            gauges["gauge_theorem"] = gauge_fields(scene, "gauge_theorem")
        gauges["gauge_general"] = gauge_fields(scene, "gauge_general")
        if scene.gauge is not None:
            gauges["gauge_general"].append(scene.gauge)
    # (entry, gauge field, its gauged ambient), gauge_theorem's first
    gauged = [(name, gfld, gaussmap.apply_gauge(amb, gfld))
              for name, gflds in gauges.items() for gfld in gflds]
    degree_error = None
    if "degree" in run:
        try:
            scenes.require_closed(scene)
        except RcsurfError as err:
            degree_error = str(err)
            run.remove("degree")
    planned = {k for suite in run for k in _COMPOSITION.get(suite, ())}
    grid.composition = tuple(k for k in _COMPOSITION_ORDER if k in planned)
    curved = [suite for suite in run if suite in _CURVATURE]
    reduced = {k for suite in curved for k in _CURVATURE[suite]}
    grid.curvature_parts = tuple(k for k in CURVATURE_PARTS if k in reduced)
    grid.with_compat = "ambient_sanity" in run
    cls_tol = scene.tolerances.get("classify", extrinsic.CLASSIFY_TOL)

    flat = True             # max |r4| within AMBIENT_FLAT_TOL on every chunk

    def chunk(part):
        nonlocal flat
        # the widest programs first, while the chunk holds the fewest blocks:
        # the curvature block's dGamma (r4 is reduced and dropped within it)
        # over base alone, then the composition
        mask = part.interior_mask
        if curved:
            part.curvature
        part.comp
        out = {}            # entry -> its values at the samples it checks
        for suite in run:
            if suite == "ambient_sanity":
                base, curv = part.base, part.curvature
                # the torsion needs no check: surface.induced_metric forms
                # T = Gamma - Gamma^T by subtraction, so T + T^T is exactly 0
                parts = [base["compat"], curv["r4_skew"]]
                if amb.kind == "frame":
                    parts.append(curv["r4_max"])                        # flatness
                    F = base["frame"]
                    gram = expr.contract("nai,nab,nbj->nij", F, base["g"], F)
                    parts.append(abs_max(gram - np.eye(3)))
                out["ambient_sanity"] = np.max(np.stack(parts), axis=0)
            elif suite == "gauss_eq":
                res = extrinsic.gauss_equation_residual(part.ext, part.curvature,
                                                        part.intrinsic_K)
                out["gauss_eq"] = res[mask]
            elif suite == "egregium":
                dec = extrinsic.curvature_decomposition(part.ext, part.curvature,
                                                        part.intrinsic_K)
                flat = flat and dec["ambient_flat"]
                out["egregium"] = dec["egregium"][mask]
                out["sectional_split"] = dec["sectional_split"][mask]
            elif suite == "divcurl":
                ext, n = part.ext, part.gauss["n"]
                dc = gaussmap.div_curl(part.gauss_dn, part.gauss_frames)
                res = np.max(np.stack([
                    np.abs(dc["div_top"] + ext["H"]),
                    np.abs(dc["div_cross"] - ext["star_tau"]),
                    np.max(np.abs(dc["curl_top"] + ext["star_tau"][:, None] * n), axis=-1),
                    np.max(np.abs(dc["curl_cross"] + ext["H"][:, None] * n), axis=-1),
                ]), axis=0)
                out["divcurl"] = res[mask]
            elif suite == "gauge":
                # at each sample, the max over the entry's gauge fields; the
                # gauge_theorem fields rotate about the scene's normal_axis.
                # Each field's tables are a program of its own, dropped once
                # its residual is formed
                res = {name: [] for name in gauges}
                for name, gfld, gamb in gauged:
                    if name == "gauge_general":
                        res[name].append(gaussmap.general_gauge_residual(
                            gamb, gfld, part.ext, part.gauss_frames))
                    else:
                        res[name].append(gaussmap.gauge_theorem_residual(
                            gamb, gfld, part.ext, part.gauss))
                out.update({name: np.max(r, axis=0) for name, r in res.items()})
            elif suite == "psi_identity":
                out["psi_identity"] = part.holo["psi_identity_residual"]
            elif suite == "hopf_identity":
                res = holo.hopf_identity_residual(part.base, part.curvature, part.holo,
                                                  part.take("d_hopf")["d_hopf"])
                out["hopf_identity"] = res[mask]
            elif suite == "conformality":
                conf = gaussmap.conformality_test(part.base, part.gauss_dn, tol=cls_tol)
                cls = extrinsic.classify(part.ext, tol=cls_tol)
                want = (~cls["geodesic_point"]) & (cls["minimal_point"] | cls["umbilic"])
                out["conformality"] = conf["conformal"][mask] != want[mask]
            elif suite == "gauss_bonnet":
                out["gauss_bonnet"] = part.area_terms("K")
            elif suite == "degree":
                out["degree"] = part.degree_terms()
        return out

    kept = grid.collect(chunk)

    def entry(name, residual, samples=nsamples, mean=None):
        if not (math.isfinite(residual) and (mean is None or math.isfinite(mean))):
            raise NonFiniteValue("non-finite residual", f"report.{name}")
        t = tols[name]
        status = "pass" if residual <= t else "fail"
        report.add(name, status, residual, t, samples, mean_residual=mean)

    if not flat:
        skips["egregium"] = "ambient not flat"
    for suite in chosen:
        for name in _entries(suite):
            if name in skips:
                report.add(name, "skip", reason=skips[name])
            elif name == "gauss_bonnet":
                total = float(np.sum(kept[name]))
                entry(name, abs(total - 2.0 * np.pi * scene.chi) / (4.0 * np.pi))
            elif name == "degree":
                if degree_error is None:
                    try:
                        d = scenes.degree_from(np.sum(kept[name]))
                    except RcsurfError as err:
                        degree_error = str(err)
                if degree_error is not None:
                    report.add(name, "fail", reason=degree_error)
                    continue
                res = d["residual"]
                if scene.chi is not None and 2 * d["degree"] != scene.chi:
                    res = 1.0
                entry(name, res)
            elif not kept[name].size:
                report.add(name, "skip", reason="no interior sample")
            elif name == "conformality":        # the share of misclassified samples
                entry(name, float(np.mean(kept[name])), kept[name].size)
            else:
                res = kept[name]
                entry(name, float(np.max(res)), res.size, float(np.mean(res)))
    return report
