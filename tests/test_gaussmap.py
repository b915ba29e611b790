import math

import numpy as np
import pytest

from rcsurf import expr, extrinsic, gaussmap, holo, scenes, verify
from rcsurf.errors import AxisNotNormal, NotClosed, NotWeitzenboeck
from rcsurf.surface import Surface, orthonormal_frame

import kernel_oracle
from gauge_fields import random_gauge_fields

V3 = {"x", "y", "z"}


def grid_all(name, n=12, m=12, **params):
    sc = scenes.builtin(name, **params)
    g = scenes.make_grid(sc, n, m)
    return sc, g


def gauged_surface(surf, gauge):
    """The oracle for a gauged block: surf's X and domain in the gauged
    ambient, whose base_fields evaluates the full gauged base block."""
    return Surface(gaussmap.apply_gauge(surf.ambient, gauge), surf.X, surf.domain)


def weingarten_from_gauss_map(amb, fields, dn):
    """W = -sum_i dN^i (x) E_i expressed in the (X_u, X_v) basis; agrees
    with the algebraic Weingarten map on frame-defined ambients."""
    F = expr.eval_table(amb.frame, amb.bindings(fields["p"]))   # E_i = F[:, :, i]
    W = np.empty((F.shape[0], 2, 2))
    for a, d in enumerate((dn["dn_du"], dn["dn_dv"])):
        vec = -np.einsum("nji,ni->nj", F, d)                  # -sum_i dn^i E_i
        W[:, :, a] = extrinsic.tangent_components(fields, vec)
    return W


def area_form_pullback_residual(fields, ext, gauss, dn):
    """|K_e sqrt(det G_S) - degree integrand| pointwise (area-form pullback)."""
    return np.abs(ext["K_e"] * fields["area"] - gaussmap.degree_integrand(gauss, dn))


def test_gauss_map_catenoid_frame_plane():
    sc, g = grid_all("catenoid_frame_plane")
    n = g.gauss["n"]
    want = np.stack([np.cos(g.U) / np.cosh(g.V),
                     np.sin(g.U) / np.cosh(g.V),
                     -np.tanh(g.V)], axis=-1)
    assert np.max(np.abs(n - want)) <= 1e-12
    n_exact = expr.eval_table(sc.surface.gauss_exprs()["n"], {"u": g.U, "v": g.V})
    assert np.max(np.abs(n_exact - want)) <= 1e-12


def test_gauss_map_trivial_scenes():
    sc, g = grid_all("euclidean_plane")
    assert np.max(np.abs(g.gauss["n"] - np.array([0.0, 0.0, 1.0]))) <= 1e-14
    sc, g = grid_all("round_sphere_standard")
    assert np.max(np.abs(g.gauss["n"] - g.base["p"])) <= 1e-12


def test_gauss_map_requires_frame_ambient():
    sc, g = grid_all("cartan_schouten_sphere")
    with pytest.raises(NotWeitzenboeck):
        gaussmap.gauss_field(g.base)
    with pytest.raises(NotWeitzenboeck):
        g.gauss_dn                  # the grid asks for dn_du, dn_dv first


def test_gauss_field_invariants():
    sc, g = grid_all("torus_standard")
    n, e_top = g.gauss["n"], g.gauss_frames["e_top"]
    assert np.max(np.abs(np.linalg.norm(n, axis=-1) - 1.0)) <= 1e-10
    base = g.base
    for i in range(3):
        dot = np.einsum("nab,na,nb->n", base["g"], e_top[:, :, i], base["N"])
        assert np.max(np.abs(dot)) <= 1e-10
    # sum_i n^i E_i^T = 0
    s = np.einsum("ni,nci->nc", n, e_top)
    assert np.max(np.abs(s)) <= 1e-10


def test_div_curl_values_rotated_plane():
    sc, g = grid_all("rotated_frame_plane")      # theta = x*y, e = (-1,0,0)
    dc = gaussmap.div_curl(g.gauss_dn, g.gauss_frames)
    # H = u, *tau = v here
    assert np.max(np.abs(dc["div_top"] + g.U)) <= 1e-12
    assert np.max(np.abs(dc["div_cross"] - g.V)) <= 1e-12


def test_div_curl_ladder_all_frame_builtins():
    for name in ("euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
                 "catenoid_frame_cylinder", "round_sphere_standard", "torus_standard"):
        sc, g = grid_all(name)
        ext, n = g.ext, g.gauss["n"]
        dc = gaussmap.div_curl(g.gauss_dn, g.gauss_frames)
        m = g.interior_mask
        assert np.max(np.abs(dc["div_top"] + ext["H"])[m]) <= 1e-7, name
        assert np.max(np.abs(dc["div_cross"] - ext["star_tau"])[m]) <= 1e-7, name
        assert np.max(np.abs(dc["curl_top"] + ext["star_tau"][:, None] * n)[m]) <= 1e-7, name
        assert np.max(np.abs(dc["curl_cross"] + ext["H"][:, None] * n)[m]) <= 1e-7, name


def test_weingarten_via_gauss_map():
    for name in ("catenoid_frame_plane", "round_sphere_standard", "torus_standard"):
        sc, g = grid_all(name)
        W_gm = weingarten_from_gauss_map(sc.ambient, g.base, g.gauss_dn)
        assert np.max(np.abs(W_gm - g.ext["W"])) <= 1e-7, name


def test_area_form_pullback_identity():
    for name in ("catenoid_frame_plane", "round_sphere_standard", "torus_standard"):
        sc, g = grid_all(name)
        res = area_form_pullback_residual(g.base, g.ext, g.gauss, g.gauss_dn)
        assert np.max(res) <= 1e-7, name


@pytest.mark.parametrize("name", [n for n in scenes.builtin_names()
                                  if scenes.builtin(n).ambient.kind == "frame"])
def test_gauged_mean_curvature_matches_full_path(name):
    # the gauge suites read H, star_tau, bold_H of the gauged surface from
    # a lean gauged block (the first-order core, no frame, B or T_S), with
    # the gauged tables from the residuals' one gauge program; the full
    # gauged base block is the oracle, bit for bit
    sc, g = grid_all(name)
    gauges = random_gauge_fields(sc, 2, seed=31, about_normal=False)
    if sc.normal_axis is not None:
        gauges += random_gauge_fields(sc, 2, seed=32)
    for gauge in gauges:
        gsurf = gauged_surface(sc.surface, gauge)
        full = extrinsic.mean_curvature(gsurf.base_fields(g.U, g.V))
        _, tables = gaussmap._gauge_at(gsurf.ambient, gauge, g.base, gradients=True)
        got = gaussmap.gauged_mean_curvature(g.base, tables)
        for key in ("H", "star_tau", "bold_H"):
            assert got[key].tobytes() == full[key].tobytes(), (name, key)


def test_apply_gauge_zero_angle_is_identity():
    sc, g = grid_all("catenoid_frame_plane", 6, 6)
    gauge = gaussmap.GaugeField(expr.con(0.0), sc.normal_axis)
    amb2 = gaussmap.apply_gauge(sc.ambient, gauge)
    pts = g.base["p"]
    b = sc.ambient.bindings(pts)
    F1 = expr.eval_table(sc.ambient.frame, b)
    F2 = expr.eval_table(amb2.frame, b)
    assert np.max(np.abs(F1 - F2)) <= 1e-15


def test_constant_gauge_preserves_extrinsic_scalars():
    sc, g = grid_all("catenoid_frame_cylinder", 8, 8)
    axis = tuple(expr.con(c) for c in (0.0, 0.6, 0.8))
    gauge = gaussmap.GaugeField(expr.con(0.9), axis)
    gsurf = gauged_surface(sc.surface, gauge)
    e1 = g.ext
    e2 = extrinsic.extrinsic_fields(gsurf.base_fields(g.U, g.V))
    for key in ("H", "star_tau", "K_e"):
        assert np.max(np.abs(e1[key] - e2[key])) <= 1e-10, key


def test_gauging_standard_frame_reproduces_rotated_plane():
    # Ex of the rotated frame: standard frame gauged by theta about e
    theta_text, e = "0.4*x*y + 0.1*y^2", (0.0, 0.6, 0.8)
    plane = scenes.builtin("euclidean_plane")
    gauge = gaussmap.GaugeField(expr.parse(theta_text, V3),
                                tuple(expr.con(c) for c in e))
    gsurf = gauged_surface(plane.surface, gauge)
    U = np.linspace(0.05, 0.95, 7)
    UU, VV = [a.ravel() for a in np.meshgrid(U, U, indexing="ij")]
    ext = extrinsic.extrinsic_fields(gsurf.base_fields(UU, VV))
    th_x = 0.4 * VV
    th_y = 0.4 * UU + 0.2 * VV
    W = ext["W"]
    assert np.max(np.abs(W[:, 0, 0] - th_x * e[1])) <= 1e-12
    assert np.max(np.abs(W[:, 0, 1] - th_y * e[1])) <= 1e-12
    assert np.max(np.abs(W[:, 1, 0] + th_x * e[0])) <= 1e-12
    assert np.max(np.abs(W[:, 1, 1] + th_y * e[0])) <= 1e-12


def test_gauge_theorem_quarter_turn_multiplies_by_i():
    sc, g = grid_all("rotated_frame_plane", 8, 8)
    gauge = gaussmap.GaugeField(expr.con(np.pi / 2), sc.normal_axis)
    gamb = gaussmap.apply_gauge(sc.ambient, gauge)
    res = np.max(gaussmap.gauge_theorem_residual(gamb, gauge, g.ext, g.gauss))
    assert res <= 1e-7
    gsurf = gauged_surface(sc.surface, gauge)
    ext_g = extrinsic.extrinsic_fields(gsurf.base_fields(g.U, g.V))
    assert np.max(np.abs(ext_g["bold_H"] - 1j * g.ext["bold_H"])) <= 1e-12


def test_gauge_theorem_random_fields():
    for name in ("catenoid_frame_plane", "torus_standard"):
        sc, g = grid_all(name, 8, 8)
        for gauge in random_gauge_fields(sc, 3, seed=99):
            gamb = gaussmap.apply_gauge(sc.ambient, gauge)
            res = np.max(gaussmap.gauge_theorem_residual(gamb, gauge, g.ext, g.gauss))
            assert res <= 1e-6, name


def test_gauge_theorem_rejects_wrong_axis():
    sc, g = grid_all("catenoid_frame_plane", 6, 6)
    gauge = gaussmap.GaugeField(expr.con(0.5), tuple(expr.con(c) for c in (0, 0, 1)))
    with pytest.raises(AxisNotNormal):
        gaussmap.gauge_theorem_residual(gaussmap.apply_gauge(sc.ambient, gauge), gauge,
                                        g.ext, g.gauss)


def test_general_gauge_random_fields():
    for name in ("rotated_frame_plane", "catenoid_frame_cylinder"):
        sc, g = grid_all(name, 8, 8)
        for gauge in random_gauge_fields(sc, 3, seed=7, about_normal=False):
            gamb = gaussmap.apply_gauge(sc.ambient, gauge)
            res = np.max(gaussmap.general_gauge_residual(gamb, gauge, g.ext,
                                                         g.gauss_frames))
            assert res <= 1e-5, name


def test_general_gauge_specializes_to_theorem():
    sc, g = grid_all("catenoid_frame_plane", 8, 8)
    gauge = random_gauge_fields(sc, 1, seed=5)[0]     # axis = Gauss map
    gamb = gaussmap.apply_gauge(sc.ambient, gauge)
    r_general = np.max(gaussmap.general_gauge_residual(gamb, gauge, g.ext, g.gauss_frames))
    r_theorem = np.max(gaussmap.gauge_theorem_residual(gamb, gauge, g.ext, g.gauss))
    assert abs(r_general - r_theorem) <= 1e-9


def test_same_gauss_map_frames_share_abs_bold_h():
    # normal-axis gauges keep the Gauss map, so |bold_H| must match
    sc, g = grid_all("torus_standard", 8, 8)
    gauge = random_gauge_fields(sc, 1, seed=11)[0]
    gsurf = gauged_surface(sc.surface, gauge)
    ext_g = extrinsic.extrinsic_fields(gsurf.base_fields(g.U, g.V))
    gf_g = gaussmap.gauss_field(gsurf.base_fields(g.U, g.V))
    assert np.max(np.abs(gf_g["n"] - g.gauss["n"])) <= 1e-8
    assert np.max(np.abs(np.abs(ext_g["bold_H"]) - np.abs(g.ext["bold_H"]))) <= 1e-8


def test_conformality_catenoid_everywhere():
    sc, g = grid_all("catenoid_frame_plane")
    conf = gaussmap.conformality_test(g.base, g.gauss_dn)
    assert conf["conformal"].all()
    assert np.max(np.abs(conf["k"] - 1 / np.cosh(g.V) ** 2)) <= 1e-7


def test_conformality_trivial_cases():
    sc, g = grid_all("euclidean_plane")
    conf = gaussmap.conformality_test(g.base, g.gauss_dn)
    assert not conf["conformal"].any()          # dn = 0: geodesic plane
    sc, g = grid_all("round_sphere_standard")
    conf = gaussmap.conformality_test(g.base, g.gauss_dn)
    assert conf["conformal"].all()              # totally umbilic, never geodesic


def test_degree_round_sphere_and_torus():
    sc, g = grid_all("round_sphere_standard", 24, 48)
    d = scenes.gauss_degree(g)
    assert d["degree"] == 1 and d["residual"] <= 1e-3
    assert 2 * d["degree"] == sc.chi
    sc, g = grid_all("torus_standard", 24, 24)
    d = scenes.gauss_degree(g)
    assert d["degree"] == 0 and d["residual"] <= 1e-3


def test_degree_requires_closed_chart():
    sc, g = grid_all("catenoid_frame_plane")
    with pytest.raises(NotClosed):
        scenes.gauss_degree(g)


def test_degree_requires_vanishing_density_at_every_edge():
    """The upper hemisphere declared closed: its density vanishes at the
    pole u = 0 only, so the one probe of both edges finds the open edge at
    u = pi/2."""
    doc = scenes.builtin("round_sphere_standard").to_dict()
    doc["surface"]["domain"][0] = [0.0, math.pi / 2]
    del doc["euler_characteristic"]
    sc = scenes.build_scene(doc)
    why = "non-periodic axis without vanishing density at its edge"
    with pytest.raises(NotClosed, match=why):
        scenes.gauss_degree(scenes.make_grid(sc, 12, 12))
    report = verify.run_verification(sc, 12, 12)
    degree = {e["name"]: e for e in report.entries}["degree"]
    assert (degree["status"], degree["reason"]) == ("fail", why)


def _closed_chart(X=None, F22=None):
    """round_sphere_standard's document, declared closed, with surface.X
    or the frame entry F[2][2] replaced and no normal_axis."""
    doc = scenes.builtin("round_sphere_standard").to_dict()
    del doc["normal_axis"]
    if X is not None:
        doc["surface"]["X"] = X
        doc["surface"]["domain"][0] = [0.0, 1.0]
    if F22 is not None:
        doc["ambient"]["F"][2][2] = F22
    return scenes.build_scene(doc)


def test_degree_probe_reads_the_density_before_the_chart_guard():
    """X = (u^2 cos v, u^2 sin v, u) on [0, 1] x [0, 2 pi]: its density
    vanishes at u = 0, faster than linearly (the degenerate-chart guard
    would stop the probe there), and not at u = 1, so the chart is not
    closed."""
    sc = _closed_chart(X=["u^2*cos(v)", "u^2*sin(v)", "u"])
    why = "non-periodic axis without vanishing density at its edge"
    with pytest.raises(NotClosed, match=why):
        scenes.require_closed(sc)
    report = verify.run_verification(sc, 8, 8, suites=["degree"])
    degree = {e["name"]: e for e in report.entries}["degree"]
    assert (degree["status"], degree["reason"]) == ("fail", why)


def test_degree_probe_error_names_its_point():
    """A frame that leaves its domain only within 1e-6 of the pole z = -1
    passes the build and the grid's samples, and fails at the closed-chart
    probe of the edge u = pi: the degree entry names ambient.F and the
    probe's (u, v)."""
    sc = _closed_chart(F22="1 + sqrt(z + 0.999999)")
    u, v = math.pi + -1e-7 * math.pi, 0.5 * (0.0 + 2.0 * math.pi)
    report = verify.run_verification(sc, 8, 8, suites=["degree"])
    degree = {e["name"]: e for e in report.entries}["degree"]
    assert degree["status"] == "fail"
    assert degree["reason"].startswith("ambient.F: sqrt evaluated outside its domain "
                                       "(argument -"), degree["reason"]
    assert degree["reason"].endswith(f") at (u={u!r}, v={v!r})"), degree["reason"]


@pytest.mark.parametrize("name", [n for n in scenes.builtin_names()
                                  if scenes.builtin(n).ambient.kind == "frame"])
def test_verify_gauge_fields_are_the_seeded_draws(name):
    """verify's gauge fields, written out as expression text, are the
    generator's draws (seeds 1234 and 4321, two each): the same interned
    expressions, so the same programs and report bytes."""
    sc = scenes.builtin(name)
    draws = {"gauge_general": random_gauge_fields(sc, 2, seed=4321, about_normal=False)}
    if sc.normal_axis is not None:
        draws["gauge_theorem"] = random_gauge_fields(sc, 2, seed=1234)
    for entry, want in draws.items():
        got = verify.gauge_fields(sc, entry)
        assert len(got) == len(want) == 2
        for a, b in zip(got, want):
            assert a.theta is b.theta
            assert len(a.axis) == len(b.axis) == 3
            assert all(x is y for x, y in zip(a.axis, b.axis))


FRAME_BUILTINS = [n for n in scenes.builtin_names()
                  if scenes.builtin(n).ambient.kind == "frame"]


@pytest.mark.parametrize("name", FRAME_BUILTINS)
def test_whole_tensor_kernels_match_per_component_forms(name):
    """The whole-tensor Gauss-map and Hopf kernels give the bits of their
    per-component forms (kernel_oracle), with verify's gauge fields for the
    general gauge law; e_top and e_cross stay C-contiguous, the layout the
    gauge law's np.einsum reads."""
    sc, g = grid_all(name)
    frames, want = g.gauss_frames, kernel_oracle.projected_frames(g.base, g.gauss)
    for key in want:
        assert frames[key].tobytes() == want[key].tobytes(), (name, key)
    assert frames["e_top"].flags.c_contiguous and frames["e_cross"].flags.c_contiguous
    got, want = (mod.div_curl(g.gauss_dn, frames) for mod in (gaussmap, kernel_oracle))
    for key in want:
        assert got[key].tobytes() == want[key].tobytes(), (name, key)
    got, want = (mod.degree_integrand(g.gauss, g.gauss_dn) for mod in (gaussmap, kernel_oracle))
    assert got.tobytes() == want.tobytes(), name
    gauges = verify.gauge_fields(sc, "gauge_general") + ([sc.gauge] if sc.gauge else [])
    for gauge in gauges:
        gamb = gaussmap.apply_gauge(sc.ambient, gauge)
        got, want = (mod.general_gauge_residual(gamb, gauge, g.ext, frames)
                     for mod in (gaussmap, kernel_oracle))
        assert got.tobytes() == want.tobytes(), name
    if sc.surface.declared_isothermal:
        d_hopf = g.take("d_hopf")["d_hopf"]
        got, want = (mod.hopf_identity_residual(g.base, g.curvature, g.holo, d_hopf)
                     for mod in (holo, kernel_oracle))
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_closed_form_binv_and_conformality_without_solve(name):
    """Binv, written in closed form, inverts B to round-off, and the
    conformality verdicts with k from Ginv_S are those with a 2x2 solve."""
    sc, g = grid_all(name)
    B, Binv = orthonormal_frame(g.base)
    assert np.max(np.abs(Binv @ B - np.eye(2))) <= 1e-14, name
    if sc.ambient.kind == "frame":
        got = gaussmap.conformality_test(g.base, g.gauss_dn)["conformal"]
        assert np.array_equal(got, kernel_oracle.conformal(g.base, g.gauss_dn)), name
