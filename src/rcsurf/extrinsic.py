"""Second/third fundamental forms, Weingarten map and the complex-valued
mean curvature H + i*tau, plus the Gauss-equation and curvature-splitting
residuals and the pointwise classifiers.

II is stored unsymmetrized throughout: its antisymmetric part carries the
normal component of the ambient torsion, which is the whole point.  The
matrix convention is II[a, b] = <N, cov. derivative of X_b along X_a> and
W[r, c] gives W(X_c) = sum_r W[r, c] X_r.
"""

from __future__ import annotations

import numpy as np

from . import expr, surface
from .surface import require_finite

__all__ = [
    "mean_curvature", "extrinsic_fields", "weingarten_on", "third_form",
    "gauss_equation_residual", "curvature_decomposition", "classify",
]

AMBIENT_FLAT_TOL = 1e-9
CLASSIFY_TOL = 1e-7         # default of the pointwise classifiers and conformality


def mean_curvature(base, block="ext"):
    """W, H, star_tau and bold_H = H + i*star_tau at the samples of base
    (a base_fields dict, or a block that holds II, Ginv_S, tau_uv and
    area), checked finite under block: the part of extrinsic_fields
    a gauged recomputation reads.  star_tau is the torsion 2-form on the
    oriented orthonormal pair."""
    W = np.swapaxes(base["II"] @ base["Ginv_S"], -2, -1)  # W[r, c]: W(X_c) = W[r,c] X_r
    H = np.trace(W, axis1=-2, axis2=-1)
    star_tau = base["tau_uv"] / base["area"]
    return require_finite(block, {
        "W": W, "H": H, "star_tau": star_tau, "bold_H": H + 1j * star_tau,
    })


def extrinsic_fields(base):
    """Extend a base block with the extrinsic quantities: mean_curvature
    (W, H, star_tau, bold_H) and K_e.  W_on and III are formed by their
    one reader each (weingarten_on in classify, third_form in
    holo.holo_fields), so a run whose suites read neither never forms
    them."""
    out = {**base, **mean_curvature(base)}
    W = out["W"]
    out.update(require_finite("ext", {
        "K_e": W[:, 0, 0] * W[:, 1, 1] - W[:, 0, 1] * W[:, 1, 0],
    }))
    return out


def weingarten_on(ext):
    """W_on, W in the oriented orthonormal basis (surface.orthonormal_frame),
    at the samples of the extrinsic block ext, checked finite under ext."""
    B, Binv = surface.orthonormal_frame(ext)
    return require_finite("ext", {"W_on": Binv @ ext["W"] @ B})["W_on"]


def third_form(ext):
    """III(X_a, X_b) = <W X_a, W X_b> at the samples of the extrinsic block
    ext, checked finite under ext."""
    W = ext["W"]
    # np.einsum, not expr.contract: the report bits follow its loop order
    return require_finite("ext", {
        "III": np.einsum("nra,nrs,nsb->nab", W, ext["G_S"], W)})["III"]


def gauss_equation_residual(fields, curv, K):
    """|ambient R4(Xu,Xv,Xv,Xu) - [R_S - II(u,u)II(v,v) + II(u,v)II(v,u)]|,
    with R_S(Xu,Xv,Xv,Xu) = K area^2 from the intrinsic curvature K and the
    ambient term from the curvature block curv, at the same samples."""
    II = fields["II"]
    rs = K * fields["area"] ** 2
    rhs = rs - II[:, 0, 0] * II[:, 1, 1] + II[:, 0, 1] * II[:, 1, 0]
    return np.abs(curv["r_uvvu"] - rhs)


def curvature_decomposition(fields, curv, K):
    """Theorema-Egregium and sectional-splitting residuals for the
    intrinsic curvature K and the curvature block curv at the same samples.

    egregium = |K_e - K| (meaningful when the ambient is flat; the caller
    masks by flatness), sectional_split = |sec~ - (K - K_e)|.
    """
    sec_tilde = curv["r_uvvu"] / fields["area"] ** 2
    ambient_flat = float(np.max(np.abs(curv["r4"]))) <= AMBIENT_FLAT_TOL
    return {
        "K_intrinsic": K,
        "egregium": np.abs(fields["K_e"] - K),
        "sectional_split": np.abs(sec_tilde - (K - fields["K_e"])),
        "ambient_flat": ambient_flat,
        "sec_tilde": sec_tilde,
    }


def classify(fields, tol=CLASSIFY_TOL):
    """Pointwise classifiers: umbilic, minimal_point, geodesic_point.

    Umbilic compares W in the oriented orthonormal basis against the matrix
    form (1/2) [[H, -tau], [tau, H]]; the test is basis-dependent otherwise.
    """
    W_on, H, st = weingarten_on(fields), fields["H"], fields["star_tau"]
    model = np.empty_like(W_on)
    model[:, 0, 0] = model[:, 1, 1] = 0.5 * H
    model[:, 0, 1] = -0.5 * st
    model[:, 1, 0] = 0.5 * st
    umbilic = np.max(np.abs(W_on - model), axis=(-2, -1)) <= tol
    minimal = np.abs(fields["bold_H"]) <= tol
    geodesic = np.max(np.abs(fields["II"]), axis=(-2, -1)) <= tol
    return {"umbilic": umbilic, "minimal_point": minimal, "geodesic_point": geodesic}


def tangent_components(fields, vec):
    """(u, v)-components (n, ..., 2) of tangent coordinate vectors vec
    (n, ..., 3), any number of them per sample."""
    g = fields["g"]
    rhs = np.stack([
        expr.contract("nkl,n...k,nl->n...", g, vec, fields["Xu"]),
        expr.contract("nkl,n...k,nl->n...", g, vec, fields["Xv"]),
    ], axis=-1)
    G_S = np.expand_dims(fields["G_S"], tuple(range(1, vec.ndim - 1)))
    return np.linalg.solve(G_S, rhs[..., None])[..., 0]
