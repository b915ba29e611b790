"""Parameterized surfaces embedded in an ambient Riemann-Cartan 3-manifold.

A Surface is a closed-form map X(u, v) with exact partial derivatives.  The
batch entry point base_fields evaluates the first-order geometry at arrays
of parameter points: tangents, oriented unit normal, induced metric, the
ambient covariant derivatives of the tangents, the second fundamental form
and the torsion 2-form on the tangent pair; in a frame ambient also the
frame and its inverse.  Its ambient tables (g, Gamma and the frame, with
the frame determinant they divide by, and dg for ambient_sanity's
compatibility residual when verify runs it) are one program, and no later
reader evaluates them again.  The first-order core (first_order: E, F, G, area,
N, Ginv_S, the covariant derivatives, II and tau_uv) is written once;
base_fields adds T_S on top, and the gauge suites build a lean gauged
block from the core alone (gaussmap.gauged_mean_curvature) in the gauged
ambient that verify builds once per run.  Every other block is built from
base only where a reader asks: the induced connection inside
intrinsic_curvature, the ambient curvature in curvature_fields.

A block holds only what its readers read: the torsion tensor is dropped
once T(Xu, Xv) is formed, and the orthonormal tangent frame B and its
inverse Binv are formed by orthonormal_frame for their one reader,
extrinsic.weingarten_on.

Quantities that need (u, v) derivatives of these fields (intrinsic
curvature, the Hopf identity, the Gauss map) read them from one symbolic
composition of the ambient onto X(u, v), built once per surface by
gauss_exprs and differentiated exactly; composition_at evaluates any
group of its tables as one (u, v) program.  The readers take these tables
as arrays: a sample grid evaluates them (scenes.SampleGrid.take).

Every block is checked for inf and NaN as it is built (require_finite), so
an input that overflows the numeric layers stops with NonFiniteValue
naming the block and the field instead of reaching a residual or an export.
Every guard here names the first offending sample by its index in the
batch; the sample grid makes it the grid's and adds its (u, v).

Orientation: N = (X_u x_g X_v) / |.|, so (N, X_u, X_v) is positively
oriented in the chart and the surface orientation is the (X_u, X_v) order.
Index conventions for the induced connection mirror the ambient module.
"""

from __future__ import annotations

import numpy as np

from . import expr
from .errors import (
    DegenerateParameterization, NonFiniteValue, NotIsothermal, NotWeitzenboeck, named,
)
from .so3 import det_exprs, inv_exprs, matvec_exprs, sum_exprs

__all__ = ["Surface", "cross_metric_batch", "first_order", "induced_connection",
           "induced_metric", "isothermal_factor", "orthonormal_frame", "require_finite"]

AREA_DENSITY_TOL = 1e-9
ISOTHERMAL_TOL = 1e-8
JETS = ("p", "Xu", "Xv", "Xuu", "Xuv", "Xvv")     # X and its derivatives
# the base fields checked finite on return, in the order they are checked
_CHECKED_LAST = ("G_S", "Ginv_S", "area", "N", "cov", "II", "tau_uv", "T_S")


def cross_metric_batch(g, u, v):
    """Metric cross product for stacked points: g (n,3,3), u, v (n,3)."""
    det = np.linalg.det(g)
    w = np.sqrt(det)[..., None] * np.cross(u, v)
    return np.linalg.solve(g, w[..., None])[..., 0]


def require_finite(block, fields):
    """Return fields (a dict of per-sample arrays) when every value is
    finite; else raise NonFiniteValue naming block.key and the first
    offending sample."""
    for key, val in fields.items():
        ok = np.isfinite(val)
        if not ok.all():
            i = int(np.argmin(ok.reshape(len(ok), -1).all(axis=1)))
            raise NonFiniteValue("non-finite value", f"{block}.{key}", i)
    return fields


def induced_metric(block, jets, tables):
    """The first-order core up to its degenerate-chart guard: the JETS in
    jets (a JETS dict or any block that holds them), the ambient tables
    (g, gamma, ...) at the same samples, the torsion and E, F, G, checked
    finite under block (an overflow is not met as a degenerate chart or a
    singular frame B), and det2 = E G - F^2, the squared area density."""
    jets = {k: jets[k] for k in JETS}
    Xu, Xv = jets["Xu"], jets["Xv"]
    g, gamma = tables["g"], tables["gamma"]
    E = expr.contract("nab,na,nb->n", g, Xu, Xu)
    F = expr.contract("nab,na,nb->n", g, Xu, Xv)
    G = expr.contract("nab,na,nb->n", g, Xv, Xv)
    tor = gamma - np.swapaxes(gamma, -2, -1)
    out = require_finite(block, {**jets, **tables, "torsion": tor, "E": E, "F": F, "G": G})
    out["det2"] = E * G - F * F
    return out


def first_order(block, jets, tables):
    """The first-order core of a base block: induced_metric, the
    degenerate-chart guard, then area, N, G_S, Ginv_S, cov, II and tau_uv
    (unchecked), with TXuXv = T(Xu, Xv) for the T_S that
    Surface.base_fields adds.  The torsion tensor is dropped once TXuXv is
    formed: no reader of a base or gauged block reads it."""
    first = induced_metric(block, jets, tables)
    Xu, Xv, g, det2 = first["Xu"], first["Xv"], first["g"], first["det2"]
    E, F, G = first["E"], first["F"], first["G"]
    flat = det2 <= AREA_DENSITY_TOL ** 2
    if np.any(flat):
        raise DegenerateParameterization("tangents linearly dependent (area density "
                                         "below 1e-9)", "surface.X", int(np.argmax(flat)))
    area = np.sqrt(det2)
    N = cross_metric_batch(g, Xu, Xv) / area[:, None]

    # induced metric and its inverse
    G_S = np.empty(E.shape + (2, 2))
    G_S[:, 0, 0], G_S[:, 0, 1] = E, F
    G_S[:, 1, 0], G_S[:, 1, 1] = F, G
    Ginv = np.empty_like(G_S)
    Ginv[:, 0, 0] = G / det2
    Ginv[:, 0, 1] = Ginv[:, 1, 0] = -F / det2
    Ginv[:, 1, 1] = E / det2

    # ambient covariant derivatives of the tangent fields, and II
    tang = np.stack([Xu, Xv], axis=1)            # (n, 2, 3)
    second = np.empty(E.shape + (2, 2, 3))
    second[:, 0, 0] = first["Xuu"]
    second[:, 0, 1] = first["Xuv"]
    second[:, 1, 0] = first["Xuv"]
    second[:, 1, 1] = first["Xvv"]
    cov = second + expr.contract("nkij,nai,nbj->nabk", first["gamma"], tang, tang)
    II = expr.contract("nkl,nabk,nl->nab", g, cov, N)

    # torsion 2-form on the tangent pair
    TXuXv = expr.contract("nkij,ni,nj->nk", first.pop("torsion"), Xu, Xv)
    tau_uv = expr.contract("nkl,nk,nl->n", g, N, TXuXv)
    return first | {"G_S": G_S, "Ginv_S": Ginv, "area": area,
                    "N": N, "cov": cov, "II": II, "TXuXv": TXuXv, "tau_uv": tau_uv}


def orthonormal_frame(base):
    """B, the oriented orthonormal tangent frame (E1bar, E2bar) as columns
    of components in (Xu, Xv), and its inverse Binv in closed form, at the
    samples of base, checked finite under base, B first."""
    E, F, G = base["E"], base["F"], base["G"]
    sqrtE, s = np.sqrt(E), np.sqrt((E * G - F * F) / E)
    B = np.zeros_like(base["G_S"])
    B[:, 0, 0] = 1.0 / sqrtE
    B[:, 0, 1] = -F / (E * s)
    B[:, 1, 1] = 1.0 / s
    Binv = np.zeros_like(B)
    Binv[:, 0, 0] = sqrtE
    Binv[:, 0, 1] = F / sqrtE
    Binv[:, 1, 1] = s
    require_finite("base", {"B": B, "Binv": Binv})
    return B, Binv


def isothermal_factor(base):
    """sqrt(E) at the samples of base when the chart is isothermal there
    (E = G and F = 0 to ISOTHERMAL_TOL relative), else raises
    NotIsothermal at the first sample where it is not."""
    E, F, G = base["E"], base["F"], base["G"]
    tol = ISOTHERMAL_TOL * np.maximum(np.abs(E), np.abs(G))
    off = (np.abs(E - G) > tol) | (np.abs(F) > tol)
    if np.any(off):
        i = int(np.argmax(off))
        raise NotIsothermal(float(E[i]), float(F[i]), float(G[i]), i)
    return np.sqrt(E)


def induced_connection(base):
    """gammaS[c][a][b] at the samples of base (a base_fields dict): the
    tangential part of nabla_a X_b expanded in (X_u, X_v), so that
    nabla^S_a X_b = gammaS^c_ab X_c."""
    tang = np.stack([base["Xu"], base["Xv"]], axis=1)            # (n, 2, 3)
    N = base["N"]
    tangential = base["cov"] - base["II"][..., None] * N[:, None, None, :]
    rhs = expr.contract("nkl,nabk,ncl->nabc", base["g"], tangential, tang)  # last = (Xu,Xv)
    gammaS = np.linalg.solve(base["G_S"][:, None, None, :, :],
                             rhs[..., None])[..., 0]            # coords in (Xu, Xv)
    return expr.contract("nabc->ncab", gammaS)                  # gammaS[c][a][b]


class Surface:
    """Immutable parameterized surface.

    Parameters
    ----------
    amb : Ambient
    X : triple of Exprs in (u, v)
    domain : ((u0, u1), (v0, v1))
    periodic : (bool, bool)
    declared_isothermal : bool
    """

    def __init__(self, amb, X, domain, periodic=(False, False),
                 declared_isothermal=False):
        self.ambient = amb
        self.X = list(X)
        self.domain = tuple((float(a), float(b)) for a, b in domain)
        self.periodic = tuple(bool(p) for p in periodic)
        self.declared_isothermal = bool(declared_isothermal)
        self.Xu = [expr.diff(c, "u") for c in self.X]
        self.Xv = [expr.diff(c, "v") for c in self.X]
        self.Xuu = [expr.diff(c, "u") for c in self.Xu]
        self.Xuv = [expr.diff(c, "v") for c in self.Xu]
        self.Xvv = [expr.diff(c, "v") for c in self.Xv]
        self._comp = None

    # --- domain bookkeeping ---------------------------------------------------

    def extent(self, axis):
        lo, hi = self.domain[axis]
        return hi - lo

    # --- pointwise batch fields -------------------------------------------------

    def jets(self, U, V):
        """X and its first and second partial derivatives at flat arrays U,
        V, keyed by JETS, each (n, 3): the one program that evaluates the
        surface's own tables."""
        with named("surface.X"):
            return dict(zip(JETS, expr.eval_table(
                (self.X, self.Xu, self.Xv, self.Xuu, self.Xuv, self.Xvv),
                {"u": U, "v": V})))

    def base_fields(self, U, V, compat=False):
        """Evaluate the first-order geometry at flat arrays U, V.

        Returns a dict of stacked arrays keyed by field name.  Everything
        downstream (extrinsic forms, curvature, Gauss map, holomorphic
        layer) starts from this block.  In a frame ambient it holds frame
        and frame_inv, from the program that evaluates g and Gamma.  The
        metric is checked at every sample (Ambient.check_metric) before the
        chart, and the torsion tensor is not kept.  With compat, that
        program also evaluates dg, and the block holds the metric
        compatibility residual (Ambient.metric_compat_residual_at) under
        compat, unchecked, for ambient_sanity; dg is dropped once it is
        formed.
        """
        U = np.atleast_1d(np.asarray(U, dtype=float))
        V = np.atleast_1d(np.asarray(V, dtype=float))
        jets = self.jets(U, V)
        amb = self.ambient
        names = amb.base_names + (("dg",) if compat else ())
        tables = dict(zip(names, amb.fields_at(amb.bindings(jets["p"]), names)))
        taken = {}
        if compat:
            taken["compat"] = amb.metric_compat_residual_at(
                tables["g"], tables["gamma"], tables.pop("dg"))
        amb.check_metric(tables["g"], " on the surface")
        out = first_order("base", jets, tables)
        del out["det2"]
        TXuXv = out.pop("TXuXv")

        # tangential torsion
        out["T_S"] = TXuXv - out["tau_uv"][:, None] * out["N"]
        require_finite("base", {k: out[k] for k in _CHECKED_LAST})
        return out | taken

    # --- ambient curvature on the surface -----------------------------------------

    def curvature_fields(self, base):
        """Ambient curvature at the samples of base (a base_fields dict):
        the lowered r4 and r_uvvu = R(Xu, Xv, Xv, Xu), the one contraction
        the Gauss equation and the sectional split both read.  On the grid
        path only this block evaluates dGamma, straight at the points
        base_fields already passed through the chart and frame checks.
        rm is checked and dropped once lowered: no reader of the block
        reads it."""
        amb = self.ambient
        rm = amb.riemann(base["gamma"], amb.bindings(base["p"]))
        require_finite("curvature", {"rm": rm})
        r4 = amb.lower(rm, base["g"])
        del rm
        Xu, Xv = base["Xu"], base["Xv"]
        r_uvvu = expr.contract("nijkm,ni,nj,nk,nm->n", r4, Xu, Xv, Xv, Xu)
        return require_finite("curvature", {"r4": r4, "r_uvvu": r_uvvu})

    # --- intrinsic curvature ----------------------------------------------------

    def intrinsic_curvature(self, base, d_gammaS):
        """Gaussian curvature of the induced connection, K = Scal_S / 2, at
        the samples of base (a base_fields dict).

        d_gammaS holds the (u, v) derivatives of the induced coefficients
        it needs, d_u gammaS^c_vv and d_v gammaS^c_uv: the composition
        table of that name (see gauss_exprs) at these samples.  The induced
        connection itself is built here from base (induced_connection), its
        only library reader.
        """
        gS = induced_connection(base)
        # R_S(d_u, d_v) d_v = (d_u G^d_vv - d_v G^d_uv + G^d_um G^m_vv - G^d_vm G^m_uv) d_d
        vec = (d_gammaS[:, 0] - d_gammaS[:, 1]
               + expr.contract("ndm,nm->nd", gS[:, :, 0, :], gS[:, :, 1, 1])
               - expr.contract("ndm,nm->nd", gS[:, :, 1, :], gS[:, :, 0, 1]))
        lowered = expr.contract("nd,nd->n", vec, base["G_S"][:, :, 0])
        det2 = base["area"] ** 2
        return require_finite("intrinsic", {"K": lowered / det2})["K"]

    # --- the surface composition ---------------------------------------------------

    def composition_at(self, U, V, names):
        """The named tables of the surface composition (gauss_exprs) at
        flat arrays U, V, as a dict, evaluated as one (u, v) program; an
        expression error there, built or evaluated, names surface.X."""
        with named("surface.X"):
            comp = self.gauss_exprs()
            if not comp.keys() >= set(names):       # n, dn_du, dn_dv
                raise NotWeitzenboeck("operation needs a frame-defined ambient")
            return dict(zip(names, expr.eval_table(tuple(comp[k] for k in names),
                                                   {"u": U, "v": V})))

    def gauss_exprs(self):
        """The surface composition: exact (u, v)-expressions built once by
        composing the ambient metric and connection with X(u, v).

        From the composed fields come the induced connection
        gammaS^c_ab = Ginv_S^cd g(nabla_a X_b, X_d), the unit normal N, II,
        H and star_tau = (II_uv - II_vu) / area.  Only the derivatives the
        identities read are differentiated, because each one evaluated on
        a grid costs time in proportion to its expression size:

            d_gammaS  [[d_u gammaS^c_vv], [d_v gammaS^c_uv]] (c = u, v), for K
            d_hopf    [q][axis][part]: d_u / d_v of (Re phi, Im phi) and of
                      (H, star_tau), for the Hopf identity
            n, dn_du, dn_dv
                      frame components of the unit normal (the Gauss map)
                      and their derivatives; frame-defined ambients only
        """
        if self._comp is not None:
            return self._comp
        amb = self.ambient
        sub = {"x": self.X[0], "y": self.X[1], "z": self.X[2]}
        cmemo = {}
        g_uv = [[expr.compose(amb.g[a][b], sub, cmemo) for b in range(3)]
                for a in range(3)]
        gamma_uv = [[[expr.compose(amb.gamma[k][i][j], sub, cmemo) for j in range(3)]
                     for i in range(3)] for k in range(3)]
        Xu, Xv = self.Xu, self.Xv

        def dot(vec_a, vec_b):
            return sum_exprs([expr.mul(g_uv[a][b], expr.mul(vec_a[a], vec_b[b]))
                              for a in range(3) for b in range(3)])

        E = dot(Xu, Xu)
        F = dot(Xu, Xv)
        G = dot(Xv, Xv)
        det2 = expr.sub(expr.mul(E, G), expr.mul(F, F))
        area = expr.call("sqrt", det2)
        Ginv = [[expr.div(G, det2), expr.neg(expr.div(F, det2))],
                [expr.neg(expr.div(F, det2)), expr.div(E, det2)]]

        # covariant derivatives nabla_a X_b and the induced connection
        tang = (Xu, Xv)
        second = ((self.Xuu, self.Xuv), (self.Xuv, self.Xvv))
        cov = [[[expr.add(second[a][b][k], sum_exprs([
                    expr.mul(gamma_uv[k][i][j], expr.mul(tang[a][i], tang[b][j]))
                    for i in range(3) for j in range(3)])) for k in range(3)]
                for b in range(2)] for a in range(2)]

        def gammaS(c, a, b):
            return sum_exprs([expr.mul(Ginv[c][d], dot(cov[a][b], tang[d]))
                              for d in range(2)])

        # unit normal N = (X_u x_g X_v) / area
        detg = det_exprs(g_uv)
        ginv = inv_exprs(g_uv, detg)
        sq = expr.call("sqrt", detg)
        lowered = []
        for l in range(3):
            i, j = (l + 1) % 3, (l + 2) % 3
            lowered.append(expr.mul(sq, expr.sub(expr.mul(Xu[i], Xv[j]),
                                                 expr.mul(Xu[j], Xv[i]))))
        raised = matvec_exprs(ginv, lowered)
        N = [expr.div(r, area) for r in raised]

        II = [[dot(cov[a][b], N) for b in range(2)] for a in range(2)]
        H = sum_exprs([expr.mul(II[c][d], Ginv[d][c]) for c in range(2) for d in range(2)])
        star_tau = expr.div(expr.sub(II[0][1], II[1][0]), area)
        phi_re = expr.mul(expr.con(0.25), expr.sub(II[0][0], II[1][1]))
        phi_im = expr.mul(expr.con(-0.25), expr.add(II[0][1], II[1][0]))

        self._comp = {
            "d_gammaS": [[expr.diff(gammaS(c, 1, 1), "u") for c in range(2)],
                         [expr.diff(gammaS(c, 0, 1), "v") for c in range(2)]],
            "d_hopf": [[[expr.diff(q, w) for q in pair] for w in ("u", "v")]
                       for pair in ((phi_re, phi_im), (H, star_tau))],
        }
        if amb.kind == "frame":
            finv_uv = [[expr.compose(amb.frame_inv[i][j], sub, cmemo) for j in range(3)]
                       for i in range(3)]
            n = [expr.div(c, area) for c in matvec_exprs(finv_uv, raised)]
            self._comp.update({
                "n": n,
                "dn_du": [expr.diff(c, "u") for c in n],
                "dn_dv": [expr.diff(c, "v") for c in n],
            })
        return self._comp
