"""Gauss map of surfaces in frame-defined (Weitzenboeck) ambients: frame
projections, the divergence/curl description of H and *tau, gauge
transformations of the global frame, conformality, and mapping degree.

The Gauss map n collects the frame components of the unit normal.  Its
data come in three blocks, each built only for its readers:

    gauss_field        n                        export, gauge theorem, degree
    dn_du, dn_dv       exact derivatives of n   div/curl, conformality, degree
    projected_frames   e_top, e_cross and their (u, v) components
                                                div/curl, general gauge law

The frame and its inverse come from the base block.  The parameter
derivatives are tables of the surface composition, passed in as arrays
(scenes.SampleGrid.gauss_dn), so the divergence/curl
ladder holds to round-off rather than stencil accuracy.
One kernel (_div_curl) forms every divergence and curl along a projected
frame from the whole array D[:, i, j] = E_i(e^j); no kernel loops over a
frame or component index.  The derivatives of n stay on the surface: the
frame vectors are expanded in (X_u, X_v) and applied to the (u, v)-dependence
through the chain rule.

A gauge residual takes its gauged ambient (apply_gauge; verify builds one
per gauge field and run) and evaluates the gauge's tables at the samples
as one program of their own (_gauge_at): the gauge field (axis, angle
and, for the general law, their gradients) and that ambient's g, Gamma and
frame determinant.  It checks them and recomputes H, star_tau and bold_H
from a lean gauged block: the first-order core of a base block
(surface.first_order) on the jets in ext.  It returns its error at each
sample, as every other residual does.  An axis that is not unit
or not finite raises NonUnitAxis (check_axis, which a scene build runs on
the scene's own axes too), named by the gauge field's path, as is an
expression error in its program or its gauged ambient's build (ambient.F
for a field with no path); other non-finite gauge values are named
gauge.<field>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr, extrinsic
from .ambient import CHART_VARS, frame_ambient
from .errors import AxisNotNormal, NonUnitAxis, NotWeitzenboeck, named
from .so3 import matmul_exprs, rodrigues_exprs
from .surface import cross_metric_batch, first_order, require_finite

__all__ = [
    "GaugeField", "gauss_field", "projected_frames", "div_curl",
    "apply_gauge", "check_axis",
    "gauged_mean_curvature", "gauge_theorem_residual", "general_gauge_residual",
    "conformality_test", "degree_integrand",
]


@dataclass(frozen=True)
class GaugeField:
    """Pointwise rotation of the global frame: angle theta about the axis e,
    both given as chart expressions (the axis in frame components, unit
    wherever it is evaluated).  path is the scene entry the axis comes
    from, which an axis error names (None for a drawn axis)."""
    theta: object
    axis: tuple
    path: str = None


def gauss_field(base):
    """The Gauss map block {n}: frame components n = F^-1 N of the unit
    normal at the samples of base (a base_fields dict, which holds
    frame_inv exactly when the ambient is frame-defined)."""
    if "frame_inv" not in base:
        raise NotWeitzenboeck("operation needs a frame-defined ambient")
    # np.einsum on C-contiguous samples-first operands: the bits follow its loop order
    n = np.einsum("nij,nj->ni", np.ascontiguousarray(base["frame_inv"]), base["N"])
    return require_finite("gauss", {"n": n})


def projected_frames(fields, gauss):
    """The projected frame directions E_i^T = E_i - n^i N (tangential part)
    and E_i^x = N x E_i (normal cross frame vector), as chart vectors
    e_top, e_cross (n, 3 chart, 3 frame index) and as (u, v)-components
    top_comp, cross_comp (n, 2, 3), all six vectors at once.  gauss is
    gauss_field at the samples of fields."""
    F = fields["frame"]                 # E_i = F[:, :, i]
    N, g, n = fields["N"], fields["g"], gauss["n"]
    # C-contiguous: general_gauge_residual's np.einsum reads their columns
    e_top = np.ascontiguousarray(F - n[:, None, :] * N[:, :, None])
    e_cross = np.ascontiguousarray(np.swapaxes(cross_metric_batch(
        g[:, None], N[:, None, :], np.swapaxes(F, 1, 2)), 1, 2))
    comp = extrinsic.tangent_components(
        fields, np.swapaxes(np.stack([e_top, e_cross], axis=1), 2, 3))
    top_comp, cross_comp = comp.transpose(1, 0, 3, 2)
    return require_finite("gauss_frames", {
        "e_top": e_top, "e_cross": e_cross,
        "top_comp": top_comp, "cross_comp": cross_comp,
    })


def _div_curl(D):
    """Divergence and curl, along one projected frame E_1, E_2, E_3, of a
    field e in frame components, from D[:, i, j] = E_i(e^j) (n, 3, 3):
    Div = sum_i E_i(e^i) and Curl^k = E_i(e^j) - E_j(e^i) for cyclic
    (i, j, k)."""
    div = D[:, 0, 0] + D[:, 1, 1] + D[:, 2, 2]
    A = D - np.swapaxes(D, 1, 2)
    # C-contiguous: general_gauge_residual's np.einsum reads the curl
    return div, np.ascontiguousarray(A[:, (1, 2, 0), (2, 0, 1)])


def div_curl(dn, frames):
    """Divergence and curl of the Gauss map n along each projected frame.

    Identities they satisfy: Div_top = -H, Div_cross = *tau,
    Curl_top = -*tau n, Curl_cross = -H n.  Returns div_top, div_cross
    and the curl vectors curl_top, curl_cross.  dn and frames are the
    gauss_dn and gauss_frames blocks of the same samples.
    """
    du, dv = dn["dn_du"][:, None, :], dn["dn_dv"][:, None, :]
    out = {}
    for which in ("top", "cross"):
        # E_i(n^j) = comp_u^i dn^j/du + comp_v^i dn^j/dv
        comp = frames[f"{which}_comp"][..., None]
        out[f"div_{which}"], out[f"curl_{which}"] = _div_curl(
            comp[:, 0] * du + comp[:, 1] * dv)
    return out


# --- gauge transformations ---------------------------------------------------


def apply_gauge(amb, gauge: GaugeField):
    """New frame-defined ambient with frame F' = F . rodrigues(axis, theta),
    composed at the expression level."""
    if amb.kind != "frame":
        raise NotWeitzenboeck("gauge transformations act on frame-defined ambients")
    with named(gauge.path or "ambient.F"):
        R = rodrigues_exprs(gauge.theta, gauge.axis)
        return frame_ambient(matmul_exprs(amb.frame, R), chart_domain=amb.chart_domain)


def check_axis(ax, normal=None, path=None):
    """Raise NonUnitAxis unless ax (n, 3), a gauge axis at some samples, is
    unit to 1e-9, and AxisNotNormal when normal, the Gauss map at the same
    samples, is given and ax differs from it beyond 1e-8; either names
    path, the scene entry of the axis, and the first offending sample."""
    off = ~(np.abs(np.linalg.norm(ax, axis=-1) - 1.0) <= 1e-9)  # a NaN norm fails too
    if np.any(off):
        raise NonUnitAxis("gauge axis is not unit on the surface", path, int(np.argmax(off)))
    if normal is not None:
        off = np.linalg.norm(ax - normal, axis=-1) > 1e-8
        if np.any(off):
            raise AxisNotNormal("gauge axis differs from the Gauss map on S", path,
                                int(np.argmax(off)))


def _gauge_at(gamb, gauge, fields, normal=None, gradients=False):
    """The gauge at the samples of fields, from one program of its own: its
    axis (n, 3) and theta, with the chart gradients of theta (n, 3 chart)
    and of the axis components (n, 3 comp, 3 chart) when gradients, and
    the gauged ambient gamb's g, Gamma and frame determinant.  The axis is
    checked first (check_axis, against the Gauss map normal when given,
    named by the gauge's path), then theta and the gradients, then the
    gauged frame on its determinant.  An expression error in the program
    names the gauge's path (ambient.F for a field with none), and where it
    meets a domain error a singular gauged frame is reported first
    (Ambient.tables_at).  Returns the gauge's values (axis, theta and the
    gradients) and gamb's g and Gamma for gauged_mean_curvature."""
    tables = (list(gauge.axis), gauge.theta)
    if gradients:
        tables += ([expr.diff(gauge.theta, w) for w in CHART_VARS],
                   [[expr.diff(c, w) for w in CHART_VARS] for c in gauge.axis])
    with named(gauge.path or "ambient.F"):
        *out, g, gamma, det = gamb.tables_at(gamb.bindings(fields["p"]),
                                             tables + (gamb.g, gamb.gamma))
    check_axis(out[0], normal, gauge.path)
    require_finite("gauge", dict(zip(("theta", "dtheta", "daxis"), out[1:])))
    gamb.check_frame(det)
    return out, {"g": g, "gamma": gamma}


def gauged_mean_curvature(fields, tables):
    """H, star_tau and bold_H of the surface seen through a gauged frame,
    at the samples of fields (a base or extrinsic block): a recomputation
    from a lean gauged block, the first-order core (surface.first_order) of
    the gauged ambient on the jets of fields, and only the part of the
    extrinsic block it reads (extrinsic.mean_curvature).  tables holds the
    gauged g and Gamma at these samples (_gauge_at)."""
    block = first_order("gauge", fields, tables)
    return extrinsic.mean_curvature(block, "gauge")


def gauge_theorem_residual(gamb, gauge: GaugeField, ext, gauss):
    """|bold_H(s.g) - bold_H(s) e^{i theta}| at each sample, for a gauge
    rotating about the Gauss-map axis (gamb: apply_gauge of it).

    Raises AxisNotNormal when the gauge axis differs from the Gauss map on
    the surface beyond 1e-8.  ext and gauss are the extrinsic and
    gauss_field blocks of the same samples.
    """
    (_, theta), tables = _gauge_at(gamb, gauge, ext, gauss["n"])
    gauged = gauged_mean_curvature(ext, tables)
    predicted = ext["bold_H"] * np.exp(1j * theta)
    return np.abs(gauged["bold_H"] - predicted)


def general_gauge_residual(gamb, gauge: GaugeField, ext, frames):
    """Residual of the arbitrary-rotation gauge formulas.

    H'  = H  - e.Grad_x(theta) - sin(theta) Div_x(e) + (1-cos) Curl_x(e).e
    t'  = t  - e.Grad_T(theta) - sin(theta) Div_T(e) + (1-cos) Curl_T(e).e

    with Grad/Div/Curl taken along the projected frames and e given in
    frame components.  Both predicted scalars are compared against a full
    recomputation in the gauged frame gamb (apply_gauge of the gauge), and
    the larger of the two errors is returned at each sample.  ext and
    frames are the extrinsic and projected_frames blocks of the same
    samples.
    """
    (ax, theta, dtheta, dax), tables = _gauge_at(gamb, gauge, ext, gradients=True)
    ax, dtheta, dax = (np.ascontiguousarray(a) for a in (ax, dtheta, dax))
    out = {}
    for which in ("top", "cross"):
        E = frames[f"e_{which}"]              # (n, 3 chart, 3 frame index)
        # np.einsum on C-contiguous samples-first operands: the bits follow its loop order
        grad_theta = np.einsum("nc,nci->ni", dtheta, E)
        div_e, curl_e = _div_curl(np.einsum("njc,nci->nij", dax, E))
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


# --- conformality and degree ---------------------------------------------------


def conformality_test(fields, dn, tol=extrinsic.CLASSIFY_TOL):
    """Pullback-metric conformality of the Gauss map at each sample.

    G_n is the Gram matrix of (dn/du, dn/dv) in the round-sphere (ambient
    R^3) inner product; the verdict is |G_n - k G_S| <= tol |G_n| with
    k = tr(G_S^-1 G_n) / 2, and k must exceed tol.  dn is
    the gauss_dn block at the samples of fields.
    """
    du, dv = dn["dn_du"], dn["dn_dv"]
    G_n = np.empty(fields["G_S"].shape)     # three dots: no 2x3 matmul per sample
    G_n[:, 0, 0] = np.einsum("ni,ni->n", du, du)
    G_n[:, 0, 1] = G_n[:, 1, 0] = np.einsum("ni,ni->n", du, dv)
    G_n[:, 1, 1] = np.einsum("ni,ni->n", dv, dv)
    # tr(G_S^-1 G_n) = sum_ab Ginv_S[a, b] G_n[a, b]: Ginv_S is symmetric
    k = 0.5 * np.sum(fields["Ginv_S"] * G_n, axis=(-2, -1))
    scale = np.max(np.abs(G_n), axis=(-2, -1))
    defect = np.max(np.abs(G_n - k[:, None, None] * fields["G_S"]), axis=(-2, -1))
    conformal = (defect <= tol * np.maximum(scale, 1e-300)) & (k > tol)
    return {"conformal": conformal, "k": k, "defect": defect, "G_n": G_n}


def degree_integrand(gauss, dn):
    """Pullback of the unit-sphere area form through the Gauss map, as a
    density against du dv: n . (d_u n x d_v n).
    gauss and dn are the gauss_field and gauss_dn blocks of the same
    samples."""
    return np.sum(gauss["n"] * np.cross(dn["dn_du"], dn["dn_dv"]), axis=-1)
