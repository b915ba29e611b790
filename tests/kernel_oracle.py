"""Per-component forms of the Gauss-map and Hopf kernels, as an oracle.

These are the loop and callback forms that the library's whole-tensor
kernels replaced: projected frames built one frame vector at a time,
divergence and curl from a derivative callback deriv(i, j), directional
derivatives through along, the cyclic-sum degree integrand, the Hopf
residual with one contraction per curvature term, and conformality with a
2x2 solve.  test_gaussmap checks the library's arrays against them bit for
bit (and conformality verdict for verdict).
"""

import numpy as np

from rcsurf import expr, extrinsic, holo
from rcsurf.gaussmap import _gauge_at, gauged_mean_curvature
from rcsurf.surface import cross_metric_batch


def projected_frames(fields, gauss):
    F = fields["frame"]
    N, g, n = fields["N"], fields["g"], gauss["n"]
    e_top = np.empty(F.shape)
    e_cross = np.empty(F.shape)
    for i in range(3):
        Ei = F[:, :, i]
        e_top[:, :, i] = Ei - n[:, i, None] * N
        e_cross[:, :, i] = cross_metric_batch(g, N, Ei)
    top_comp = np.stack([extrinsic.tangent_components(fields, e_top[:, :, i])
                         for i in range(3)], axis=-1)
    cross_comp = np.stack([extrinsic.tangent_components(fields, e_cross[:, :, i])
                           for i in range(3)], axis=-1)
    return {"e_top": e_top, "e_cross": e_cross,
            "top_comp": top_comp, "cross_comp": cross_comp}


def _div_curl(deriv):
    D = [[deriv(i, j) for j in range(3)] for i in range(3)]
    div = D[0][0] + D[1][1] + D[2][2]
    curl = np.stack([D[1][2] - D[2][1], D[2][0] - D[0][2], D[0][1] - D[1][0]],
                    axis=-1)
    return div, curl


def div_curl(dn, frames):
    du, dv = dn["dn_du"], dn["dn_dv"]
    out = {}
    for which in ("top", "cross"):
        comp = frames[f"{which}_comp"]
        out[f"div_{which}"], out[f"curl_{which}"] = _div_curl(
            lambda i, j: comp[:, 0, i] * du[:, j] + comp[:, 1, i] * dv[:, j])
    return out


def general_gauge_residual(gamb, gauge, ext, frames):
    (ax, theta, dtheta, dax), tables = _gauge_at(gamb, gauge, ext, gradients=True)
    ax, dtheta, dax = (np.ascontiguousarray(a) for a in (ax, dtheta, dax))

    def along(vec_coords, grad_chart):
        return np.einsum("nc,nc->n", grad_chart, vec_coords)

    out = {}
    for which in ("top", "cross"):
        E = frames[f"e_{which}"]
        grad_theta = np.stack([along(E[:, :, i], dtheta) for i in range(3)], axis=-1)
        div_e, curl_e = _div_curl(lambda i, j: along(E[:, :, i], dax[:, j, :]))
        out[which] = (
            np.einsum("ni,ni->n", ax, grad_theta)
            + np.sin(theta) * div_e
            - (1.0 - np.cos(theta)) * np.einsum("ni,ni->n", curl_e, ax)
        )

    H_pred = ext["H"] - out["cross"]
    st_pred = ext["star_tau"] - out["top"]
    gauged = gauged_mean_curvature(ext, tables)
    return np.maximum(np.abs(gauged["H"] - H_pred),
                      np.abs(gauged["star_tau"] - st_pred))


def degree_integrand(gauss, dn):
    n, du, dv = gauss["n"], dn["dn_du"], dn["dn_dv"]
    out = np.zeros(n.shape[0])
    for (i, j, k) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        out += n[:, i] * (du[:, j] * dv[:, k] - dv[:, j] * du[:, k])
    return out


def hopf_identity_residual(base, r4, holo_block, d_hopf):
    """The Hopf identity residual from the whole lowered curvature r4 at
    the samples of base (Ambient.curvature_at), contracted one X_c at a
    time."""
    lhs, dbar_H = holo.dbar(d_hopf)
    lam2 = holo_block["lam"] ** 2

    Xu, Xv, N = base["Xu"], base["Xv"], base["N"]
    r_u = expr.contract("nijkm,ni,nj,nk,nm->n", r4, Xu, Xv, Xu, N)
    r_v = expr.contract("nijkm,ni,nj,nk,nm->n", r4, Xu, Xv, Xv, N)
    r_term = 0.5 * (r_u - 1j * r_v)

    II = base["II"]
    JT = cross_metric_batch(base["g"], N, base["T_S"])
    comp = extrinsic.tangent_components(base, JT)
    ii_u = comp[:, 0] * II[:, 0, 0] + comp[:, 1] * II[:, 1, 0]
    ii_v = comp[:, 0] * II[:, 0, 1] + comp[:, 1] * II[:, 1, 1]
    ii_term = 0.5 * (ii_u - 1j * ii_v)

    rhs = 0.25 * lam2 * np.conj(dbar_H) - 0.5j * r_term - 0.5 * ii_term
    return np.abs(lhs - rhs)


def conformal(fields, dn, tol=extrinsic.CLASSIFY_TOL):
    """The conformality verdicts, with k from a 2x2 solve."""
    du, dv = dn["dn_du"], dn["dn_dv"]
    G_n = np.empty(fields["G_S"].shape)
    G_n[:, 0, 0] = np.einsum("ni,ni->n", du, du)
    G_n[:, 0, 1] = G_n[:, 1, 0] = np.einsum("ni,ni->n", du, dv)
    G_n[:, 1, 1] = np.einsum("ni,ni->n", dv, dv)
    k = 0.5 * np.trace(np.linalg.solve(fields["G_S"], G_n), axis1=-2, axis2=-1)
    scale = np.max(np.abs(G_n), axis=(-2, -1))
    defect = np.max(np.abs(G_n - k[:, None, None] * fields["G_S"]), axis=(-2, -1))
    return (defect <= tol * np.maximum(scale, 1e-300)) & (k > tol)
