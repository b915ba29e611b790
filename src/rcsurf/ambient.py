"""Riemann-Cartan 3-manifolds on a coordinate chart of R^3.

An ambient manifold carries a metric and a metric-compatible connection in
chart components, built either from a global frame field (the flat
connection making the frame parallel, with the metric that declares the
frame orthonormal) or from explicit coefficients g_ij and Gamma^k_ij.

Index conventions, fixed here once for the whole package:

    nabla_{d_i} d_j = Gamma^k_ij d_k            gamma[k][i][j]
    T^k_ij  = Gamma^k_ij - Gamma^k_ji           torsion, antisym in (i,j)
    R(d_i, d_j) d_k = R^l_kij d_l               rm[l,k,i,j]
    R^l_kij = d_i Gamma^l_jk - d_j Gamma^l_ik
              + Gamma^l_im Gamma^m_jk - Gamma^l_jm Gamma^m_ik
    R4[i,j,k,m] = <R(d_i,d_j) d_k, d_m>         lowered curvature

All connection derivatives are exact (symbolic differentiation of the
coefficient expressions); finite differences appear only in test oracles.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import expr
from .so3 import det_exprs, inv_exprs, matmul_exprs
from .errors import EvalDomainError, IncompatibleConnection, OutsideChart, SingularFrame, named

__all__ = ["Ambient", "frame_ambient", "coefficient_ambient", "CHART_VARS"]

CHART_VARS = ("x", "y", "z")

FRAME_DET_TOL = 1e-9
COMPAT_HARD_TOL = 1e-6


class Ambient:
    """Immutable chart-level Riemann-Cartan structure.

    Use frame_ambient or coefficient_ambient to construct.  Evaluation
    bindings map 'x', 'y', 'z' to equally-shaped 1-D arrays (see bindings).
    fields_at and the methods built on it (christoffel_at, curvature_at)
    check the chart domain first, and the frame on the determinant their
    own program evaluates; riemann takes points that a base block already
    checked, and metric_compat_residual_at the tables fields_at gives.  A
    guard names its scene path and the first offending point by its index
    in the batch, and an expression error in a table or its lazy build the
    table's (paths).
    """

    def __init__(self, kind, g, gamma, frame=None, frame_inv=None,
                 frame_det=None, chart_domain=None):
        self.kind = kind                  # "frame" | "coefficients"
        self.g = g                        # g[i][j] Exprs
        self.gamma = gamma                # gamma[k][i][j] Exprs
        self.frame = frame                # frame[i][j]: coord i of frame vector j
        self.frame_inv = frame_inv
        self.frame_det = frame_det
        self.chart_domain = chart_domain  # optional {var: (lo, hi)}
        # the tables of a base block (Surface.base_fields), one program
        self.base_names = ("g", "gamma") + (
            ("frame", "frame_inv") if kind == "frame" else ())
        g_path, gamma_path = (("ambient.F",) * 2 if kind == "frame"
                              else ("ambient.g", "ambient.Gamma"))
        self.paths = {"g": g_path, "dg": g_path, "gamma": gamma_path,      # named by errors
                      "dgamma": gamma_path, "frame": "ambient.F", "frame_inv": "ambient.F"}

    # --- symbolic lazies ---------------------------------------------------

    @cached_property
    def dgamma(self):
        """dgamma[m][k][i][j] = d_m Gamma^k_ij (exact)."""
        return [[[[expr.diff(self.gamma[k][i][j], v) for j in range(3)]
                  for i in range(3)] for k in range(3)]
                for v in CHART_VARS]

    @cached_property
    def dg(self):
        """dg[m][a][b] = d_m g_ab (exact)."""
        return [[[expr.diff(self.g[a][b], v) for b in range(3)]
                 for a in range(3)] for v in CHART_VARS]

    # --- batch field evaluation ----------------------------------------------

    @staticmethod
    def bindings(points):
        """Chart bindings for stacked points (n, 3); one point is a batch
        of one."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return {"x": pts[:, 0], "y": pts[:, 1], "z": pts[:, 2]}

    def _check_inside(self, bindings):
        """Raise OutsideChart where a sample leaves the chart domain."""
        for name, (lo, hi) in (self.chart_domain or {}).items():
            vals = bindings[name]
            outside = ~((lo <= vals) & (vals <= hi))
            if np.any(outside):
                i = int(np.argmax(outside))
                raise OutsideChart(f"{name} = {float(vals[i])!r} outside [{lo}, {hi}]",
                                   f"ambient.chart_domain.{name}", i)

    def check_frame(self, det):
        """Raise SingularFrame (ambient.F) where det, a frame ambient's
        determinant at some samples, is near zero or negative."""
        for bad, what in ((np.abs(det) < FRAME_DET_TOL,
                           f"frame determinant within {FRAME_DET_TOL} of zero"),
                          (det < 0.0, "frame is negatively oriented")):
            if np.any(bad):
                raise SingularFrame(what, "ambient.F", int(np.argmax(bad)))

    def check_metric(self, g, where=""):
        """Raise IncompatibleConnection (ambient.g, or ambient.F in a frame
        ambient) at the first sample where g, the metric at some samples,
        is not symmetric to 1e-12; else at the first where it is not
        positive definite (a leading principal minor <= 0), that text
        ending in where.  A sample with a non-finite entry passes, for the
        finiteness checks to name."""
        finite = np.isfinite(g).all(axis=(-2, -1))
        (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = np.moveaxis(g, 0, -1)
        with np.errstate(invalid="ignore", over="ignore"):
            sym = np.max(np.abs([g01 - g10, g02 - g20, g12 - g21]), axis=0)
            minors = (g00, g00 * g11 - g01 * g10,
                      g00 * (g11 * g22 - g12 * g21) - g01 * (g10 * g22 - g12 * g20)
                      + g02 * (g10 * g21 - g11 * g20))
            indefinite = np.any([m <= 0.0 for m in minors], axis=0)
        for bad, text in ((sym > 1e-12, "metric not symmetric (deviation {:.3e})"),
                          (indefinite, "metric not positive definite" + where)):
            bad &= finite
            if np.any(bad):
                i = int(np.argmax(bad))
                raise IncompatibleConnection(text.format(sym[i]), self.paths["g"], i)

    def tables_at(self, bindings, tables, frames=None):
        """The group tables (Exprs over x, y, z) at batched points, as one
        program after the chart check.  The program also evaluates the
        frame_det of each frame ambient in frames (by default this one, if
        it is a frame ambient), a node of that ambient's g and Gamma, and
        returns them last, in order, for check_frame.  Every table built
        from an inverse frame divides by its determinant, so where the
        program meets a domain error a singular frame is reported first."""
        self._check_inside(bindings)
        if frames is None:
            frames = (self,) if self.kind == "frame" else ()
        try:
            return expr.eval_table(tables + tuple(f.frame_det for f in frames), bindings)
        except EvalDomainError:
            for f in frames:
                f.check_frame(expr.eval_table(f.frame_det, bindings))
            raise

    def fields_at(self, bindings, names):
        """The named tables ('g', 'gamma', 'dgamma', 'dg', and in a frame
        ambient 'frame', 'frame_inv') at batched points, evaluated as one
        program after the chart check, with the frame checked on its
        determinant from the same program (tables_at).  frame and
        frame_inv are nodes of g and Gamma: adding them to that group
        adds no op, and dg shares the derivatives of the frame's inverse
        with Gamma."""
        with named(*(self.paths[n] for n in names)):
            out = self.tables_at(bindings, tuple(getattr(self, n) for n in names))
        if self.kind == "frame":
            self.check_frame(out[-1])
            out = out[:-1]
        return out

    # no library code reads christoffel_at or curvature_at; bench/spans.py
    # wraps both by name for its layer trace
    def christoffel_at(self, bindings):
        return self.fields_at(bindings, ("gamma",))[0]

    def curvature_at(self, bindings):
        """rm and r4 (lowered) at batched points, as a dict."""
        g, G = self.fields_at(bindings, ("g", "gamma"))
        rm = self.riemann(G, bindings)
        return {"rm": rm, "r4": self.lower(rm, g)}

    def riemann(self, G, bindings):
        """rm at batched points that already passed the chart and frame
        checks (fields_at; a base block's p), from their stacked Gamma.
        dGamma is evaluated here and dropped before the quadratic terms are
        formed, and the Gamma^l_jm Gamma^m_ik term is the Gamma^l_im
        Gamma^m_jk term with (i, j) swapped, so at most two arrays of 81
        values per sample are alive at once.  rm is stored samples-last,
        as expr.contract lays it out, so lower reads it without a copy."""
        with named(self.paths["dgamma"]):
            D = expr.eval_table(self.dgamma, bindings)
        rm = np.moveaxis(np.empty(D.shape[1:] + D.shape[:1]), -1, 0)
        np.subtract(D.transpose(0, 2, 4, 1, 3), D.transpose(0, 2, 4, 3, 1), out=rm)
        del D
        quad = expr.contract("nlim,nmjk->nlkij", G, G)
        rm += quad
        rm -= np.swapaxes(quad, -1, -2)
        return rm

    @staticmethod
    def lower(rm, g):
        """r4 from rm and the metric g at the same samples."""
        return expr.contract("nlkij,nlm->nijkm", rm, g)

    def metric_compat_residual_at(self, g, gamma, dg):
        """max |d_m g_ab - Gamma^l_ma g_lb - Gamma^l_mb g_al| per sample,
        from the metric g, the connection gamma and dg at the same samples
        (fields_at, which evaluates dg in the program of g and Gamma)."""
        res = dg - expr.contract("nlma,nlb->nmab", gamma, g)
        res -= expr.contract("nlmb,nal->nmab", gamma, g)
        return np.max(np.abs(res, out=res), axis=(1, 2, 3))

    # --- validation ---------------------------------------------------------------

    def validate(self, points):
        """Run the construction-time guards at the given sample points, and
        return the base tables they read, a dict keyed by base_names.

        One program, the base group (base_names) with dg, feeds every
        guard: the program of a base block in a verify that runs
        ambient_sanity, so a scene build compiles no program that verify
        does not run again, and builds its base core from the returned
        tables.  A guard names ambient.g or ambient.Gamma, or ambient.F in
        a frame ambient."""
        bindings = self.bindings(points)
        names = self.base_names + ("dg",)
        tables = dict(zip(names, self.fields_at(bindings, names)))
        compat = self.metric_compat_residual_at(tables["g"], tables["gamma"], tables.pop("dg"))
        self.check_metric(tables["g"])
        bad = compat > COMPAT_HARD_TOL
        if np.any(bad):
            i = int(np.argmax(bad))
            raise IncompatibleConnection(f"metric compatibility residual {compat[i]:.3e} "
                                         f"exceeds {COMPAT_HARD_TOL}", self.paths["gamma"], i)
        return tables


def frame_ambient(F, chart_domain=None) -> Ambient:
    """Ambient defined by a global frame field.

    F is a 3x3 nested list of Exprs; column j holds the chart components of
    the j-th frame vector.  The metric makes the frame orthonormal,
    g = (F^-1)^T (F^-1), and the connection coefficients are
    Gamma^k_ij = sum_m F[k][m] d_i (F^-1)[m][j], the flat connection whose
    parallel fields have constant frame components.
    """
    det = det_exprs(F)
    Finv = inv_exprs(F, det)
    g = matmul_exprs(list(zip(*Finv)), Finv)
    # dgam[i] = F d_i(F^-1), the matrix Gamma^k_ij of (k, j)
    dgam = [matmul_exprs(F, [[expr.diff(c, w) for c in row] for row in Finv])
            for w in CHART_VARS]
    gamma = [[dgam[i][k] for i in range(3)] for k in range(3)]
    return Ambient("frame", g, gamma, frame=F, frame_inv=Finv,
                   frame_det=det, chart_domain=chart_domain)


def coefficient_ambient(g, gamma, chart_domain=None) -> Ambient:
    """Ambient defined directly by metric and connection coefficient Exprs;
    gamma is indexed gamma[k][i][j] with nabla_{d_i} d_j = Gamma^k_ij d_k."""
    return Ambient("coefficients", g, gamma, chart_domain=chart_domain)

