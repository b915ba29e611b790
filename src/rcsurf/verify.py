"""Verification suites: each suite turns one family of identities into a
max-residual with a pass/fail verdict against a tolerance tier.

Every residual is built from exact expression derivatives, so on the
built-in scenes it sits at round-off (quadratures at their quadrature
error).  The budgets are set per suite entry: the Gauss equation, Theorema
Egregium, sectional split and Hopf-coefficient identity keep budgets of
1e-5 and 1e-4, wider than their residuals need.  "strict" is ten times
tighter everywhere.

Suites not applicable to a scene (degree on a non-closed chart, Gauss-map
suites on coefficient-defined ambients, holomorphic suites off isothermal
charts) are reported as skipped, never as failures.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import expr, extrinsic, gaussmap, holo, scenes
from .errors import NonFiniteValue, RcsurfError

__all__ = ["SUITES", "TIERS", "VerificationReport", "run_verification",
           "random_gauge_fields"]

SUITES = [
    "ambient_sanity", "gauss_eq", "egregium", "divcurl", "gauge",
    "psi_identity", "hopf_identity", "conformality", "gauss_bonnet", "degree",
]

_ANALYTIC = {
    "ambient_sanity": 1e-7,
    "gauss_eq": 1e-5,
    "egregium": 1e-4,
    "sectional_split": 1e-4,
    "divcurl": 1e-7,
    "gauge_theorem": 1e-6,
    "gauge_general": 1e-5,
    "psi_identity": 1e-8,
    "hopf_identity": 1e-5,
    "conformality": 1e-9,
    "gauss_bonnet": 1e-3,
    "degree": 1e-3,
}

TIERS = {
    "analytic": _ANALYTIC,
    "strict": {k: v / 10.0 for k, v in _ANALYTIC.items()},
}

GAUGE_FIELDS = 2        # random gauge fields per gauge suite entry


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


def random_gauge_fields(scene, count, seed=1234, about_normal=True):
    """Deterministic pseudo-random gauge fields for a scene.

    about_normal=True rotates about the scene's Gauss-map axis (needs the
    scene to carry normal_axis expressions); otherwise both the angle and a
    normalized random smooth axis field are generated.
    """
    rng = np.random.default_rng(seed)
    vars3 = scenes.AMBIENT_VARS
    out = []
    for _ in range(count):
        a, b, c = (round(float(x), 4) for x in rng.uniform(-0.9, 0.9, size=3))
        fa, fb = (round(float(x), 3) for x in rng.uniform(0.4, 1.4, size=2))
        theta = expr.parse(
            f"({a})*sin({fa}*x) + ({b})*cos({fb}*y) + ({c})*sin(x + y)", vars3)
        if about_normal:
            if scene.normal_axis is None:
                raise RcsurfError(f"scene {scene.name} has no normal-axis field")
            out.append(gaussmap.GaugeField(theta, scene.normal_axis))
            continue
        comps = []
        for k, w in enumerate("xyz"):
            s, f = (round(float(x), 3) for x in rng.uniform(-0.8, 0.8, size=2))
            base = "2.0" if k == 0 else "0.0"
            comps.append(expr.parse(f"{base} + ({s})*sin({abs(f) + 0.3}*{w})", vars3))
        norm = expr.call("sqrt", expr.add(
            expr.add(expr.mul(comps[0], comps[0]), expr.mul(comps[1], comps[1])),
            expr.mul(comps[2], comps[2])))
        axis = tuple(expr.div(cc, norm) for cc in comps)
        out.append(gaussmap.GaugeField(theta, axis))
    return out


def _masked_max(values, mask):
    sel = values[mask] if mask is not None else values
    return float(np.max(sel)) if sel.size else 0.0


def _masked_mean(values, mask):
    sel = values[mask] if mask is not None else values
    return float(np.mean(sel)) if sel.size else 0.0


def run_verification(scene, nu=32, nv=32, suites=None, tol="analytic"):
    """Run the selected suites on one scene at the given resolution.

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
        tols = {k: value for k in _ANALYTIC}
        tier_name = repr(value)
    tols.update(scene.tolerances)
    chosen = SUITES if suites is None else list(suites)
    for s in chosen:
        if s not in SUITES:
            raise ValueError(f"unknown suite {s!r}; known: {', '.join(SUITES)}")

    grid = scenes.make_grid(scene, nu, nv)
    report = VerificationReport(scene.name, (grid.nu, grid.nv), tier_name)
    surf, amb = scene.surface, scene.ambient
    is_frame = amb.kind == "frame"
    mask = grid.interior_mask
    nsamples = int(grid.U.shape[0])

    def entry(name, residual, samples=None, mean=None):
        if not (math.isfinite(residual) and (mean is None or math.isfinite(mean))):
            raise NonFiniteValue(f"report.{name}", "non-finite residual")
        t = tols[name]
        status = "pass" if residual <= t else "fail"
        report.add(name, status, residual, t, samples or nsamples,
                   mean_residual=mean)

    for suite in chosen:
        if suite == "ambient_sanity":
            base = grid.base
            pb = amb.bindings(base["p"])
            parts = [amb.metric_compat_residual_at(pb)]
            T = base["torsion"]
            parts.append(np.max(np.abs(T + np.swapaxes(T, -2, -1)), axis=(1, 2, 3)))
            r4 = grid.curvature["r4"]
            parts.append(np.max(np.abs(r4 + np.swapaxes(r4, 1, 2)), axis=(1, 2, 3, 4)))
            parts.append(np.max(np.abs(r4 + np.swapaxes(r4, 3, 4)), axis=(1, 2, 3, 4)))
            if is_frame:
                parts.append(np.max(np.abs(r4), axis=(1, 2, 3, 4)))   # flatness
                F = expr.eval_table(amb.frame, pb)
                gram = np.einsum("nai,nab,nbj->nij", F, base["g"], F)
                parts.append(np.max(np.abs(gram - np.eye(3)), axis=(1, 2)))
            res = np.max(np.stack(parts), axis=0)
            entry("ambient_sanity", float(np.max(res)), mean=float(np.mean(res)))
        elif suite == "gauss_eq":
            res = extrinsic.gauss_equation_residual(grid.ext, grid.curvature,
                                                    grid.intrinsic_K)
            entry("gauss_eq", _masked_max(res, mask), int(mask.sum()),
                  _masked_mean(res, mask))
        elif suite == "egregium":
            dec = extrinsic.curvature_decomposition(grid.ext, grid.curvature,
                                                    grid.intrinsic_K)
            if dec["ambient_flat"]:
                entry("egregium", _masked_max(dec["egregium"], mask),
                      int(mask.sum()), _masked_mean(dec["egregium"], mask))
            else:
                report.add("egregium", "skip", reason="ambient not flat")
            entry("sectional_split", _masked_max(dec["sectional_split"], mask),
                  int(mask.sum()), _masked_mean(dec["sectional_split"], mask))
        elif suite == "divcurl":
            if not is_frame:
                report.add("divcurl", "skip", reason="ambient not frame-defined")
                continue
            ext, n = grid.ext, grid.gauss["n"]
            dc = gaussmap.div_curl(grid.gauss, grid.gauss_dn, grid.gauss_frames)
            res = np.max(np.stack([
                np.abs(dc["div_top"] + ext["H"]),
                np.abs(dc["div_cross"] - ext["star_tau"]),
                np.max(np.abs(dc["curl_top"] + ext["star_tau"][:, None] * n), axis=-1),
                np.max(np.abs(dc["curl_cross"] + ext["H"][:, None] * n), axis=-1),
            ]), axis=0)
            entry("divcurl", _masked_max(res, mask), int(mask.sum()),
                  _masked_mean(res, mask))
        elif suite == "gauge":
            if not is_frame:
                report.add("gauge_theorem", "skip", reason="ambient not frame-defined")
                report.add("gauge_general", "skip", reason="ambient not frame-defined")
                continue
            if scene.normal_axis is None:
                report.add("gauge_theorem", "skip", reason="no normal-axis field")
            else:
                res = 0.0
                for gfld in random_gauge_fields(scene, GAUGE_FIELDS, seed=1234):
                    res = max(res, gaussmap.gauge_theorem_residual(
                        surf, grid.base, gfld, grid.ext, grid.gauss))
                entry("gauge_theorem", res)
            res = 0.0
            fields = random_gauge_fields(scene, GAUGE_FIELDS, seed=4321,
                                         about_normal=False)
            if scene.gauge is not None:
                fields = fields + [scene.gauge]
            for gfld in fields:
                res = max(res, gaussmap.general_gauge_residual(
                    surf, grid.base, gfld, grid.ext, grid.gauss_frames))
            entry("gauge_general", res)
        elif suite == "psi_identity":
            if not surf.declared_isothermal:
                report.add("psi_identity", "skip", reason="chart not isothermal")
                continue
            res = grid.holo["psi_identity_residual"]
            entry("psi_identity", float(np.max(res)), mean=float(np.mean(res)))
        elif suite == "hopf_identity":
            if not surf.declared_isothermal:
                report.add("hopf_identity", "skip", reason="chart not isothermal")
                continue
            ext, hol = ({k: v[mask] for k, v in block.items()}
                        for block in (grid.ext, grid.holo))
            curv = {"r4": grid.curvature["r4"][mask]}       # all the residual reads
            res = holo.hopf_identity_residual(surf, ext, curv, ext, hol)
            entry("hopf_identity", float(np.max(res)), int(mask.sum()),
                  float(np.mean(res)))
        elif suite == "conformality":
            if not is_frame:
                report.add("conformality", "skip", reason="ambient not frame-defined")
                continue
            cls_tol = scene.tolerances.get("classify", 1e-7)
            conf = gaussmap.conformality_test(grid.base, grid.gauss_dn, tol=cls_tol)
            cls = extrinsic.classify(grid.ext, tol=cls_tol)
            want = (~cls["geodesic_point"]) & (cls["minimal_point"] | cls["umbilic"])
            frac = float(np.mean(conf["conformal"][mask] != want[mask]))
            entry("conformality", frac, int(mask.sum()))
        elif suite == "gauss_bonnet":
            if not scene.closed or scene.chi is None:
                report.add("gauss_bonnet", "skip", reason="chart not closed")
                continue
            total = scenes.integrate(grid, "K")
            res = abs(total - 2.0 * np.pi * scene.chi) / (4.0 * np.pi)
            entry("gauss_bonnet", res)
        elif suite == "degree":
            if not scene.closed:
                report.add("degree", "skip", reason="chart not closed")
                continue
            if not is_frame:
                report.add("degree", "skip", reason="ambient not frame-defined")
                continue
            try:
                d = scenes.gauss_degree(grid)
            except RcsurfError as err:
                report.add("degree", "fail", reason=str(err))
                continue
            res = d["residual"]
            if scene.chi is not None and 2 * d["degree"] != scene.chi:
                res = 1.0
            entry("degree", res)
    return report
