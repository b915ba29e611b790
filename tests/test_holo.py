import numpy as np
import pytest

from rcsurf import extrinsic, holo, scenes
from rcsurf.errors import NotIsothermal

import fd_oracles
from ambient_oracle import l_tensor

ISOTHERMAL_BUILTINS = ["euclidean_plane", "rotated_frame_plane",
                       "catenoid_frame_plane", "catenoid_frame_cylinder"]


def grid_all(name, n=12, m=12, **params):
    sc = scenes.builtin(name, **params)
    g = scenes.make_grid(sc, n, m)
    return sc, g


def interior_fields(g, block):
    sel = g.interior_mask
    return {k: v[sel] for k, v in block.items()}


def dbar_at(surf, U, V):
    """holo.dbar at flat arrays U, V, from the composition table d_hopf
    evaluated there."""
    return holo.dbar(surf.composition_at(U, V, ("d_hopf",))["d_hopf"])


def test_phi_rotated_frame_plane_closed_form():
    sc, g = grid_all("rotated_frame_plane")      # theta = x*y, e = (-1,0,0)
    hol = g.holo
    want = -(g.U + 1j * g.V) / 4.0
    assert np.max(np.abs(hol["phi"] - want)) <= 1e-12
    re = sc.golden("phi_re")(g.U, g.V)
    im = sc.golden("phi_im")(g.U, g.V)
    assert np.max(np.abs(hol["phi"] - (re + 1j * im))) <= 1e-12


def test_phi_catenoid_frame_plane():
    sc, g = grid_all("catenoid_frame_plane")
    hol = g.holo
    assert np.max(np.abs(hol["phi"] + 0.5 / np.cosh(g.V))) <= 1e-12


def test_phi_vanishes_exactly_at_umbilic_points():
    sc, g = grid_all("euclidean_plane")          # W = 0: umbilic everywhere
    assert np.max(np.abs(g.holo["phi"])) == 0.0


def test_phi_zero_iff_umbilic_classifier():
    tol = 1e-7
    for name in ("euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
                 "catenoid_frame_cylinder"):
        sc, g = grid_all(name)
        cls = extrinsic.classify(g.ext, tol=tol)
        lam2 = g.holo["lam"] ** 2
        phi_zero = np.abs(g.holo["phi"]) <= 0.5 * tol * lam2
        assert np.array_equal(phi_zero, cls["umbilic"]), name


def test_psi_identity_all_isothermal_builtins():
    for name in ("euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
                 "catenoid_frame_cylinder"):
        sc, g = grid_all(name)
        assert np.max(g.holo["psi_identity_residual"]) <= 1e-8, name


def test_psi_vanishes_on_minimal_catenoid_scene():
    # bold_H = 0 makes psi = 0 even though phi never vanishes
    sc, g = grid_all("catenoid_frame_plane")
    assert np.max(np.abs(g.holo["psi"])) <= 1e-12
    assert np.min(np.abs(g.holo["phi"])) > 0.0


def test_minimal_or_umbilic_dichotomy_on_connected_scene():
    # psi == 0 with II nowhere zero forces bold_H == 0 or phi == 0 throughout
    sc, g = grid_all("catenoid_frame_plane")
    cls = extrinsic.classify(g.ext)
    assert not cls["geodesic_point"].any()
    assert np.max(np.abs(g.holo["psi"])) <= 1e-12
    minimal_everywhere = np.max(np.abs(g.ext["bold_H"])) <= 1e-10
    umbilic_everywhere = np.max(np.abs(g.holo["phi"])) <= 1e-10
    assert minimal_everywhere or umbilic_everywhere


def test_bold_h_isothermal_matches_extrinsic():
    # on an isothermal chart bold_H = (II_uu + II_vv + i (II_uv - II_vu)) / lam^2
    for name in ("rotated_frame_plane", "catenoid_frame_cylinder"):
        sc, g = grid_all(name)
        II, lam = g.ext["II"], g.holo["lam"]
        iso = ((II[:, 0, 0] + II[:, 1, 1]) + 1j * (II[:, 0, 1] - II[:, 1, 0])) / lam ** 2
        assert np.max(np.abs(iso - g.ext["bold_H"])) <= 1e-9, name


def test_not_isothermal_raises():
    sc, g = grid_all("round_sphere_standard")
    with pytest.raises(NotIsothermal):
        holo.holo_fields(g.ext)


def test_cr_residual_constant_and_antiholomorphic():
    # self-test of the finite-difference d/dzbar oracle
    sc, g = grid_all("rotated_frame_plane", 10, 10)
    surf = sc.surface
    U, V = g.U[g.interior_mask], g.V[g.interior_mask]
    const = fd_oracles.cr_residual(
        surf, U, V, lambda u, v: np.full(u.shape, 2.5 + 0j, dtype=complex))
    assert np.max(const) <= 1e-12
    zbar = fd_oracles.cr_residual(surf, U, V, lambda u, v: u - 1j * v)
    assert np.max(np.abs(zbar - 1.0)) <= 1e-10


def test_cr_residual_of_holomorphic_bold_h():
    sc, g = grid_all("rotated_frame_plane", 10, 10)   # bold_H = z
    U, V = g.U[g.interior_mask], g.V[g.interior_mask]
    _, dbar_h = dbar_at(sc.surface, U, V)
    assert np.max(np.abs(dbar_h)) <= 1e-7


def test_dbar_at_boundary_sample():
    # u = -2 is the edge of a non-periodic axis: the exact derivatives need
    # no stencil; bold_H = z and phi = -z/4 are holomorphic
    sc, g = grid_all("rotated_frame_plane", 8, 8)
    dbar_phi, dbar_h = dbar_at(sc.surface, np.array([-2.0]), np.array([0.0]))
    assert abs(dbar_phi[0]) <= 1e-15 and abs(dbar_h[0]) <= 1e-15


@pytest.mark.parametrize("name", ISOTHERMAL_BUILTINS)
def test_dbar_matches_fd_oracle(name):
    sc, g = grid_all(name)
    surf = sc.surface
    U, V = g.U[g.interior_mask], g.V[g.interior_mask]
    dbar_phi, dbar_h = dbar_at(surf, U, V)
    fd_phi = fd_oracles.dbar(surf, U, V, lambda u, v: fd_oracles.phi_at(surf, u, v))
    fd_h = fd_oracles.dbar(surf, U, V, lambda u, v: fd_oracles.bold_h_at(surf, u, v))
    assert np.max(np.abs(dbar_phi - fd_phi)) <= 1e-6
    assert np.max(np.abs(dbar_h - fd_h)) <= 1e-6


def test_hopf_identity_residual_on_isothermal_builtins():
    for name in ISOTHERMAL_BUILTINS:
        sc, g = grid_all(name, 10, 10)
        ext = interior_fields(g, g.ext)
        res = holo.hopf_identity_residual(
            ext, interior_fields(g, g.curvature), interior_fields(g, g.holo),
            g.take("d_hopf")["d_hopf"][g.interior_mask])
        assert np.max(res) <= 1e-5, name


def test_cor_equivalence_cr_of_h_and_phi():
    # with L == 0 the holomorphicity defects of bold_H and phi are tied:
    # dbar phi = (lam^2 / 4) conj(dbar bold_H) when curvature and torsion
    # terms drop out; a non-harmonic angle makes both defects positive
    sc, g = grid_all("rotated_frame_plane", 10, 10, theta="x^2*y", e=(-1.0, 0.0, 0.0))
    assert np.max(np.abs(l_tensor(g.ext, sc.ambient))) <= 1e-12
    U, V = g.U[g.interior_mask], g.V[g.interior_mask]
    cr_phi, cr_h = np.abs(dbar_at(sc.surface, U, V))
    lam2 = g.holo["lam"][g.interior_mask] ** 2
    assert np.max(np.abs(cr_phi - 0.25 * lam2 * cr_h)) <= 1e-6
    generic = np.abs(V) > 0.3
    assert np.all(cr_h[generic] > 1e-3) and np.all(cr_phi[generic] > 1e-4)

    # harmonic angle: both defects vanish
    sc2, g2 = grid_all("rotated_frame_plane", 10, 10, theta="x*y", e=(-1.0, 0.0, 0.0))
    U2, V2 = g2.U[g2.interior_mask], g2.V[g2.interior_mask]
    cr_phi2, cr_h2 = np.abs(dbar_at(sc2.surface, U2, V2))
    assert np.max(cr_h2) <= 1e-7 and np.max(cr_phi2) <= 1e-7


def test_conformality_matches_classifier_equivalence():
    # Gauss map conformal <=> II != 0 and (minimal or umbilic), pointwise
    from rcsurf import gaussmap
    for name in ("euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
                 "catenoid_frame_cylinder", "round_sphere_standard", "torus_standard"):
        sc, g = grid_all(name)
        conf = gaussmap.conformality_test(g.base, g.gauss_dn)
        cls = extrinsic.classify(g.ext)
        want = (~cls["geodesic_point"]) & (cls["minimal_point"] | cls["umbilic"])
        m = g.interior_mask
        assert np.array_equal(conf["conformal"][m], want[m]), name
