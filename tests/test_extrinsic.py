import numpy as np

from rcsurf import expr, extrinsic, scenes
from rcsurf.surface import Surface, orthonormal_frame

import fd_oracles
from ambient_oracle import l_tensor, sufficient_condition_at
from test_ambient import random_metric_compatible_ambient


def grid_ext(name, n=12, m=12, **params):
    sc = scenes.builtin(name, **params)
    g = scenes.make_grid(sc, n, m)
    return sc, g, g.ext


def test_plane_is_totally_geodesic():
    _, _, ext = grid_ext("euclidean_plane")
    assert np.max(np.abs(ext["II"])) == 0.0
    assert np.max(np.abs(ext["W"])) == 0.0


def test_cartan_schouten_sphere_forms():
    lam = 0.3
    sc, g, ext = grid_ext("cartan_schouten_sphere", lam=lam)
    # II in the oriented orthonormal basis: [[-1, lam], [-lam, -1]]
    B, _ = orthonormal_frame(g.base)
    II_on = np.einsum("nia,nij,njb->nab", B, ext["II"], B)
    want = np.array([[-1.0, lam], [-lam, -1.0]])
    assert np.max(np.abs(II_on - want)) <= 1e-12
    W_on = extrinsic.weingarten_on(ext)
    assert np.max(np.abs(W_on - np.array([[-1, -lam], [lam, -1]]))) <= 1e-12
    assert np.max(np.abs(ext["bold_H"] - (-2 + 2j * lam))) <= 1e-12
    assert np.max(np.abs(ext["K_e"] - (1 + lam ** 2))) <= 1e-12


def test_catenoid_frame_plane_forms():
    sc, g, ext = grid_ext("catenoid_frame_plane")
    sech = 1 / np.cosh(g.V)
    assert np.max(np.abs(ext["II"][:, 0, 0] + sech)) <= 1e-12
    assert np.max(np.abs(ext["II"][:, 1, 1] - sech)) <= 1e-12
    assert np.max(np.abs(ext["II"][:, 0, 1])) <= 1e-12
    assert np.max(np.abs(ext["II"][:, 1, 0])) <= 1e-12
    assert np.max(np.abs(ext["bold_H"])) <= 1e-12
    assert np.max(np.abs(ext["K_e"] + sech ** 2)) <= 1e-12


def test_rotated_frame_plane_weingarten_closed_form():
    theta = "0.5*x^2*y + 0.3*y"
    e = (0.0, 0.6, 0.8)
    sc, g, ext = grid_ext("rotated_frame_plane", theta=theta, e=e)
    x, y = g.U, g.V
    th_x = 0.5 * 2 * x * y
    th_y = 0.5 * x ** 2 + 0.3
    W = ext["W"]
    assert np.max(np.abs(W[:, 0, 0] - th_x * e[1])) <= 1e-12
    assert np.max(np.abs(W[:, 0, 1] - th_y * e[1])) <= 1e-12
    assert np.max(np.abs(W[:, 1, 0] + th_x * e[0])) <= 1e-12
    assert np.max(np.abs(W[:, 1, 1] + th_y * e[0])) <= 1e-12
    bold = (-th_y * e[0] + th_x * e[1]) + 1j * (-th_x * e[0] - th_y * e[1])
    assert np.max(np.abs(ext["bold_H"] - bold)) <= 1e-12


def test_catenoid_frame_cylinder_weingarten():
    sc, g, ext = grid_ext("catenoid_frame_cylinder")
    sech = 1 / np.cosh(g.V)
    W_on = extrinsic.weingarten_on(ext)
    assert np.max(np.abs(W_on[:, 0, 0] + sech)) <= 1e-12
    assert np.max(np.abs(W_on[:, 1, 1] - sech)) <= 1e-12
    assert np.max(np.abs(W_on[:, 0, 1])) <= 1e-12


def test_weingarten_two_paths_agree():
    for name in ("catenoid_frame_plane", "cartan_schouten_sphere",
                 "torus_standard", "rotated_frame_plane"):
        sc, g, ext = grid_ext(name, 10, 10)
        sel = g.interior_mask
        sub = {k: (v[sel] if isinstance(v, np.ndarray)
                   and v.shape[:1] == g.U.shape else v) for k, v in ext.items()}
        res = fd_oracles.weingarten_cross_check(sc.surface, g.U[sel], g.V[sel], sub)
        assert np.max(res) <= 1e-6, name


def test_star_tau_two_paths_agree():
    for name in ("catenoid_frame_plane", "cartan_schouten_sphere", "torus_standard"):
        _, _, ext = grid_ext(name)
        # star_tau from the Weingarten matrix in the orthonormal basis
        W_on = extrinsic.weingarten_on(ext)
        star_tau_w = W_on[:, 1, 0] - W_on[:, 0, 1]
        assert np.max(np.abs(ext["star_tau"] - star_tau_w)) <= 1e-8, name


def test_ii_antisymmetric_part_is_torsion_form():
    for name in ("cartan_schouten_sphere", "catenoid_frame_plane", "rotated_frame_plane"):
        _, g, ext = grid_ext(name)
        lhs = ext["II"][:, 0, 1] - ext["II"][:, 1, 0]
        assert np.max(np.abs(lhs - g.base["tau_uv"])) <= 1e-8, name


def test_third_fundamental_form():
    _, g, ext = grid_ext("cartan_schouten_sphere", lam=0.5)
    III = extrinsic.third_form(ext)
    assert np.max(np.abs(III - np.swapaxes(III, -2, -1))) <= 1e-12
    # III(X, Y) = <W X, W Y>
    b = g.base
    WXu = ext["W"][:, 0, 0, None] * b["Xu"] + ext["W"][:, 1, 0, None] * b["Xv"]
    want = np.einsum("nab,na,nb->n", b["g"], WXu, WXu)
    assert np.max(np.abs(III[:, 0, 0] - want)) <= 1e-10


def test_orientation_flip_negates_h_and_tau():
    sc = scenes.builtin("catenoid_frame_cylinder")
    surf = sc.surface
    # swap the roles of u and v: X'(u, v) = X(v, u)
    swap = {"u": expr.var("v"), "v": expr.var("u")}
    Xs = [expr.compose(c, swap) for c in surf.X]
    flipped = Surface(sc.ambient, Xs,
                      (surf.domain[1], surf.domain[0]),
                      (surf.periodic[1], surf.periodic[0]))
    g = scenes.make_grid(sc, 10, 10)
    e1 = g.ext
    e2 = extrinsic.extrinsic_fields(flipped.base_fields(g.V, g.U))
    assert np.max(np.abs(e1["H"] + e2["H"])) <= 1e-12
    assert np.max(np.abs(e1["star_tau"] + e2["star_tau"])) <= 1e-12
    assert np.max(np.abs(e1["K_e"] - e2["K_e"])) <= 1e-12


def test_gauss_equation_residual_small():
    for name, tol in (("euclidean_plane", 1e-14),
                      ("catenoid_frame_plane", 1e-5),
                      ("cartan_schouten_sphere", 1e-5)):
        sc, g, ext = grid_ext(name)
        res = extrinsic.gauss_equation_residual(ext, g.curvature, g.intrinsic_K)
        assert np.max(res[g.interior_mask]) <= tol, name


def test_egregium_on_flat_ambients():
    for name in ("catenoid_frame_plane", "rotated_frame_plane",
                 "torus_standard", "round_sphere_standard"):
        sc, g, ext = grid_ext(name)
        dec = extrinsic.curvature_decomposition(ext, g.curvature, g.intrinsic_K)
        assert dec["ambient_flat"], name
        assert np.max(dec["egregium"][g.interior_mask]) <= 1e-4, name


def test_sectional_split_cartan_schouten():
    lam = 1.0
    sc, g, ext = grid_ext("cartan_schouten_sphere", lam=lam)
    dec = extrinsic.curvature_decomposition(ext, g.curvature, g.intrinsic_K)
    assert not dec["ambient_flat"]
    assert np.max(dec["sectional_split"][g.interior_mask]) <= 1e-4
    # sec~ = -lam^2, K = 1, K_e = 1 + lam^2
    assert np.max(np.abs(dec["sec_tilde"] + lam ** 2)) <= 1e-10
    assert np.max(np.abs(dec["K_intrinsic"][g.interior_mask] - 1.0)) <= 1e-4


def test_classification():
    _, _, ext = grid_ext("cartan_schouten_sphere", lam=0.7)
    cls = extrinsic.classify(ext)
    assert cls["umbilic"].all()
    assert not cls["minimal_point"].any()
    assert not cls["geodesic_point"].any()

    _, _, ext = grid_ext("catenoid_frame_plane")
    cls = extrinsic.classify(ext)
    assert cls["minimal_point"].all()
    assert not cls["umbilic"].any()
    assert not cls["geodesic_point"].any()

    _, _, ext = grid_ext("euclidean_plane")
    cls = extrinsic.classify(ext)
    assert cls["umbilic"].all() and cls["minimal_point"].all() and cls["geodesic_point"].all()


def test_l_tensor_vanishes_for_rotated_frame_plane(rng):
    for theta, e in (("x*y", (-1.0, 0.0, 0.0)),
                     ("0.7*sin(x)+0.2*y^2", (0.0, 0.6, 0.8)),
                     ("x + y", (0.36, 0.48, 0.8))):
        _, g, ext = grid_ext("rotated_frame_plane", theta=theta, e=e)
        assert np.max(np.abs(l_tensor(ext, g.scene.ambient))) <= 1e-12


def test_l_tensor_vanishes_in_cartan_schouten(rng):
    # the sufficient condition (Ric ~ g, T ~ cross) kills L for any surface
    _, g, ext = grid_ext("cartan_schouten_sphere", lam=0.8)
    assert np.max(np.abs(l_tensor(ext, g.scene.ambient))) <= 1e-10


def test_l_tensor_nonzero_when_condition_fails(rng):
    amb = random_metric_compatible_ambient()
    chk = sufficient_condition_at(amb, amb.bindings((0.3, 0.2, 0.1)), tol=1e-6)
    assert not (chk["ricci_proportional"][0] and chk["torsion_proportional"][0])
    X = [expr.parse(t, {"u", "v"}) for t in ("u", "v", "0.3*sin(u+v)")]
    surf = Surface(amb, X, ((-0.8, 0.8), (-0.8, 0.8)))
    g_uv = np.linspace(-0.5, 0.5, 5)
    U, V = [a.ravel() for a in np.meshgrid(g_uv, g_uv, indexing="ij")]
    base = surf.base_fields(U, V)
    ext = extrinsic.extrinsic_fields(base)
    assert np.max(np.abs(l_tensor(ext, amb))) > 1e-3
