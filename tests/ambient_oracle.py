"""Pointwise ambient tensors and the L tensor, built on the library's
batched fields: the metric, torsion, Ricci and scalar curvature, sectional
curvature, the sufficient condition for L = 0, L itself and the
orthonormal tangent pair it is taken on.  No report or export reads them;
the tests check the ambient and the paper's hypothesis on them.

Conventions, on top of those of rcsurf.ambient:

    Ric_ij  = sum_l R^l_jli                     trace over the first slot
    Scal    = g^ij Ric_ij

Ric need not be symmetric when torsion is present.  Every function takes
an Ambient and its bindings (Ambient.bindings) and checks the chart and
frame as Ambient.fields_at does.
"""

import numpy as np

from rcsurf.errors import RcsurfError
from rcsurf.extrinsic import tangent_components
from rcsurf.surface import cross_metric_batch, orthonormal_frame


class DegeneratePlane(RcsurfError):
    pass


def metric_at(amb, bindings):
    return amb.fields_at(bindings, ("g",))[0]


def torsion_at(amb, bindings):
    G = amb.christoffel_at(bindings)
    return G - np.swapaxes(G, -2, -1)


def compat_residual_at(amb, bindings):
    """max |nabla g| per sample, with g, Gamma and dg evaluated here."""
    return amb.metric_compat_residual_at(*amb.fields_at(bindings, ("g", "gamma", "dg")))


def curvature_at(amb, bindings):
    """rm, r4 (Ambient.curvature_at), Ric and Scal at batched points."""
    cur = amb.curvature_at(bindings)
    ric = np.einsum("nljli->nij", cur["rm"])
    scal = np.einsum("nij,nij->n", np.linalg.inv(metric_at(amb, bindings)), ric)
    return cur | {"ric": ric, "scal": scal}


def sectional_at(amb, bindings, u, v):
    """Sectional curvature of span{u, v} at batched points:
    R(u,v,v,u) / gram determinant, with u, v of shape (3,) or (n, 3)."""
    u, v = (np.broadcast_to(np.asarray(w, dtype=float), (len(bindings["x"]), 3))
            for w in (u, v))
    r4 = amb.curvature_at(bindings)["r4"]
    g = metric_at(amb, bindings)
    guu, gvv, guv = (np.einsum("na,nab,nb->n", a, g, b)
                     for a, b in ((u, u), (v, v), (u, v)))
    den = guu * gvv - guv ** 2
    if np.any(den < 1e-12):
        raise DegeneratePlane(f"gram determinant {np.min(den)!r} below 1e-12")
    return np.einsum("nijkm,ni,nj,nk,nm->n", r4, u, v, v, u) / den


def sufficient_condition_at(amb, bindings, tol=1e-8):
    """Tests, per sample, Ric proportional to g and torsion proportional
    to the metric cross product, the hypothesis making the L tensor
    vanish.  Returns arrays over the batch."""
    cur = curvature_at(amb, bindings)
    g = metric_at(amb, bindings)
    T = torsion_at(amb, bindings)
    ric_dev = np.max(np.abs(cur["ric"] - (cur["scal"] / 3.0)[:, None, None] * g),
                     axis=(1, 2))
    # cross tensor C^k_ij = sqrt(det g) g^kl eps_lij
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    C = (np.sqrt(np.linalg.det(g))[:, None, None, None]
         * np.einsum("nkl,lij->nkij", np.linalg.inv(g), eps))
    cc = np.sum(C * C, axis=(1, 2, 3))
    kappa = np.sum(T * C, axis=(1, 2, 3)) / np.where(cc > 0, cc, 1.0)
    tor_dev = np.max(np.abs(T - kappa[:, None, None, None] * C), axis=(1, 2, 3))
    return {
        "ricci_proportional": ric_dev <= tol,
        "torsion_proportional": tor_dev <= tol,
        "ricci_deviation": ric_dev,
        "torsion_deviation": tor_dev,
        "kappa": kappa,
    }


def apply_weingarten(fields, comp):
    """Apply W to tangent vectors given by (u, v)-components (n, 2)."""
    return np.einsum("nrc,nc->nr", fields["W"], comp)


def tangent_frame(fields):
    """The orthonormal tangent pair (E1bar, E2bar) as chart-coordinate
    vectors, from a base block: the columns of B hold their components in
    (Xu, Xv)."""
    (B, _), Xu, Xv = orthonormal_frame(fields), fields["Xu"], fields["Xv"]
    return B[:, 0, 0, None] * Xu, B[:, 0, 1, None] * Xu + B[:, 1, 1, None] * Xv


def l_tensor(fields, amb):
    """L(E1bar, E2bar) = R(E1bar, E2bar) N - J W J T_S(E1bar, E2bar), as a
    chart-coordinate vector, from the extrinsic block fields and the
    curvature of the ambient amb at the same points (Ambient.curvature_at;
    the grid's curvature block keeps no rm).  Vanishing of L is the
    hypothesis tying holomorphicity of bold H to that of the Hopf
    differential."""
    g = fields["g"]
    (e1, e2), N = tangent_frame(fields), fields["N"]
    rm = amb.curvature_at(amb.bindings(fields["p"]))["rm"]
    # R(E1, E2) N: rm[l, k, i, j] with i <- E1, j <- E2, k <- N
    RN = np.einsum("nlkij,nk,ni,nj->nl", rm, N, e1, e2)
    # tangential torsion on the orthonormal pair = T_S(Xu, Xv) / area
    TS = fields["T_S"] / fields["area"][:, None]
    JT = cross_metric_batch(g, N, TS)
    WJT_comp = apply_weingarten(fields, tangent_components(fields, JT))
    WJT = WJT_comp[:, 0, None] * fields["Xu"] + WJT_comp[:, 1, None] * fields["Xv"]
    JWJT = cross_metric_batch(g, N, WJT)
    return RN - JWJT
