"""Complex-analytic layer on isothermal charts: Hopf differential phi,
quadratic differential psi built from the third fundamental form, the
exact d/dzbar of phi and bold_H, and the curvature identity tying them.

The chart identification is z = u + i v; with the package's normal
convention (N from X_u x X_v) an isothermal chart is automatically
positively oriented, so J(d/du) = d/dv.  All tensors are extended
complex-bilinearly, never sesquilinearly.
"""

from __future__ import annotations

import numpy as np

from . import expr, extrinsic
from .surface import cross_metric_batch, isothermal_factor, require_finite

__all__ = ["holo_fields", "dbar", "hopf_identity_residual"]


def holo_fields(ext):
    """phi and psi coefficients, the isothermal factor, and the residual of
    psi = bold_H * phi at each sample, from the extrinsic block of the
    samples and its III (extrinsic.third_form).  Raises NotIsothermal off
    isothermal charts."""
    lam = isothermal_factor(ext)
    II, III = ext["II"], extrinsic.third_form(ext)
    phi = 0.25 * ((II[:, 0, 0] - II[:, 1, 1]) - 1j * (II[:, 0, 1] + II[:, 1, 0]))
    psi = 0.25 * ((III[:, 0, 0] - III[:, 1, 1]) - 2j * III[:, 0, 1])
    return require_finite("holo", {
        "lam": lam,
        "phi": phi,
        "psi": psi,
        "psi_identity_residual": np.abs(psi - ext["bold_H"] * phi),
    })


def dbar(d_hopf):
    """(dbar phi, dbar bold_H) with d/dzbar = (d/du + i d/dv) / 2, from the
    exact (u, v) derivatives of the surface composition
    (Surface.gauss_exprs): its table d_hopf at the samples."""
    d = d_hopf[..., 0] + 1j * d_hopf[..., 1]    # d[:, q, axis]: q = phi, bold_H
    out = 0.5 * (d[:, :, 0] + 1j * d[:, :, 1])
    return out[:, 0], out[:, 1]


def hopf_identity_residual(base, curv, holo, d_hopf):
    """Residual of the curvature identity for the Hopf coefficient:

        dbar II(dz, dz) = (lam^2/4) conj(dbar bold_H)
                          - (i/2) R(Xu, Xv, dz, N) - (1/2) II(J T_S(Xu,Xv), dz)

    with dz = (Xu - i Xv)/2 extended complex-bilinearly.  Both d/dzbar
    terms come from dbar of d_hopf (exact derivatives of the surface
    composition); everything else is assembled pointwise from the same
    samples, so the residual is round-off.  base, curv and holo are the
    base, curvature and holomorphic blocks of the same samples; only r4
    and lam are read from the latter two.
    """
    lhs, dbar_H = dbar(d_hopf)
    lam2 = holo["lam"] ** 2

    r4, Xu, Xv, N = curv["r4"], base["Xu"], base["Xv"], base["N"]
    tang = np.stack([Xu, Xv], axis=1)                       # X_c, c = u, v
    r = expr.contract("nijkm,ni,nj,nck,nm->nc", r4, Xu, Xv, tang, N)
    r_term = 0.5 * (r[:, 0] - 1j * r[:, 1])

    II = base["II"]
    # J T_S(Xu, Xv): tangential torsion rotated by the complex structure
    JT = cross_metric_batch(base["g"], N, base["T_S"])
    comp = extrinsic.tangent_components(base, JT)
    ii = comp[:, 0, None] * II[:, 0] + comp[:, 1, None] * II[:, 1]    # II(J T_S, X_c)
    ii_term = 0.5 * (ii[:, 0] - 1j * ii[:, 1])

    rhs = 0.25 * lam2 * np.conj(dbar_H) - 0.5j * r_term - 0.5 * ii_term
    return np.abs(lhs - rhs)
