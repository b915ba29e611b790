"""Finite-difference oracles for the exact derivative paths of the library.

Each oracle differentiates base_fields (or a caller-supplied function)
numerically at shifted (u, v), independently of the symbolic surface
composition, so agreement with the exact path checks both.  Stencils shrink
near non-periodic edges and refuse samples on the edge itself.
"""

import numpy as np

from rcsurf import extrinsic
from rcsurf.surface import induced_connection


def fd_steps(surface, U, axis, h):
    """Central-difference abscissae along one axis, shrinking h near
    non-periodic edges; raises when a point sits on the edge itself."""
    lo, hi = surface.domain[axis]
    if surface.periodic[axis]:
        return np.full_like(U, h)
    dist = np.minimum(U - lo, hi - U)
    if np.any(dist < 0):
        raise ValueError("sample outside the non-periodic domain")
    if np.any(dist == 0.0):
        raise ValueError("stencil for a boundary sample of a non-periodic axis")
    return np.minimum(h, dist / 2.0)


def intrinsic_curvature(surface, U, V, h_scale=1e-3, base=None):
    """K = Scal_S / 2 with the (u, v) derivatives of the induced connection
    taken by central differences (step h_scale * extent) and one Richardson
    extrapolation."""
    U = np.atleast_1d(np.asarray(U, dtype=float))
    V = np.atleast_1d(np.asarray(V, dtype=float))
    if base is None:
        base = surface.base_fields(U, V)
    hu = fd_steps(surface, U, 0, h_scale * surface.extent(0))
    hv = fd_steps(surface, V, 1, h_scale * surface.extent(1))

    def d_gamma(axis, hs):
        def probe(sign, scale):
            if axis == 0:
                return induced_connection(surface.base_fields(U + sign * scale * hs, V))
            return induced_connection(surface.base_fields(U, V + sign * scale * hs))
        d_h = (probe(+1, 1.0) - probe(-1, 1.0)) / (2.0 * hs)[:, None, None, None]
        d_h2 = (probe(+1, 0.5) - probe(-1, 0.5)) / hs[:, None, None, None]
        return (4.0 * d_h2 - d_h) / 3.0

    dG_u = d_gamma(0, hu)      # d/du gammaS[c][a][b]
    dG_v = d_gamma(1, hv)
    gS = induced_connection(base)
    vec = (dG_u[:, :, 1, 1] - dG_v[:, :, 0, 1]
           + np.einsum("ndm,nm->nd", gS[:, :, 0, :], gS[:, :, 1, 1])
           - np.einsum("ndm,nm->nd", gS[:, :, 1, :], gS[:, :, 0, 1]))
    lowered = np.einsum("nd,nd->n", vec, base["G_S"][:, :, 0])
    return lowered / base["area"] ** 2


def phi_at(surface, U, V):
    """Hopf-differential coefficient as a pointwise function of (u, v)."""
    II = surface.base_fields(U, V)["II"]
    return 0.25 * ((II[:, 0, 0] - II[:, 1, 1]) - 1j * (II[:, 0, 1] + II[:, 1, 0]))


def bold_h_at(surface, U, V):
    return extrinsic.extrinsic_fields(surface.base_fields(U, V))["bold_H"]


def dbar(surface, U, V, func, h_scale=1.0 / 64.0):
    """d/dzbar = (d/du + i d/dv) / 2 of func by 4th-order central
    differences; func maps (U, V) arrays to a complex array."""
    U = np.atleast_1d(np.asarray(U, dtype=float))
    V = np.atleast_1d(np.asarray(V, dtype=float))
    hu = fd_steps(surface, U, 0, 0.5 * h_scale * surface.extent(0))
    hv = fd_steps(surface, V, 1, 0.5 * h_scale * surface.extent(1))

    def d4(axis, hs):
        if axis == 0:
            f = lambda s: func(U + s * hs, V)
        else:
            f = lambda s: func(U, V + s * hs)
        return (-f(2.0) + 8.0 * f(1.0) - 8.0 * f(-1.0) + f(-2.0)) / (12.0 * hs)

    return 0.5 * (d4(0, hu) + 1j * d4(1, hv))


def cr_residual(surface, U, V, func, h_scale=1.0 / 64.0):
    """|d func / d zbar|: the pointwise holomorphicity defect."""
    return np.abs(dbar(surface, U, V, func, h_scale))


def weingarten_cross_check(surface, U, V, fields, h_scale=1e-5):
    """Residual between the algebraic Weingarten map (II times the inverse
    induced metric) and the covariant derivative of the normal,
    W(X_a) = -(d_a N^k + Gamma^k_ij X_a^i N^j) d_k, with d_a N by a central
    stencil; adds the magnitude of the normal component of the covariant
    path, which must vanish.  fields is a block at the samples U, V."""
    hu = fd_steps(surface, U, 0, h_scale * surface.extent(0))
    hv = fd_steps(surface, V, 1, h_scale * surface.extent(1))
    N = lambda uu, vv: surface.base_fields(uu, vv)["N"]
    dN_u = (N(U + hu, V) - N(U - hu, V)) / (2 * hu)[:, None]
    dN_v = (N(U, V + hv) - N(U, V - hv)) / (2 * hv)[:, None]
    g, gamma, Nf = fields["g"], fields["gamma"], fields["N"]
    out = np.zeros(U.shape)
    for a, (Xa, dNa) in enumerate(((fields["Xu"], dN_u), (fields["Xv"], dN_v))):
        path2 = -(dNa + np.einsum("nkij,ni,nj->nk", gamma, Xa, Nf))
        path1 = (fields["W"][:, 0, a, None] * fields["Xu"]
                 + fields["W"][:, 1, a, None] * fields["Xv"])
        out = np.maximum(out, np.max(np.abs(path1 - path2), axis=-1))
        out = out + np.abs(np.einsum("nkl,nk,nl->n", g, path2, Nf))
    return out
