"""Acceptance criteria, one test per criterion, each at its stated
tolerance.  Every test prints one PASS line when its assertions hold (run
with -s or read the -v test listing)."""

import json
import time

import numpy as np
import pytest

from rcsurf import cli, expr, extrinsic, gaussmap, holo, scenes, verify

import so3_numeric as so3
from ambient_oracle import l_tensor
from gauge_fields import random_gauge_fields
from test_holo import dbar_at

WEITZENBOECK_BUILTINS = [
    "euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
    "catenoid_frame_cylinder", "round_sphere_standard", "torus_standard",
]
ISOTHERMAL_BUILTINS = [
    "euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
    "catenoid_frame_cylinder",
]
ALL_BUILTINS = WEITZENBOECK_BUILTINS + ["cartan_schouten_sphere"]


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_01_catenoid_frame_plane():
    t0 = time.monotonic()
    sc = scenes.builtin("catenoid_frame_plane")
    assert sc.surface.domain == ((0.0, 2 * np.pi), (-2.0, 2.0))
    g = scenes.make_grid(sc, 64, 64)
    ext = g.ext
    sech = 1.0 / np.cosh(g.V)
    assert np.max(np.abs(ext["bold_H"])) <= 1e-9
    assert np.max(np.abs(ext["K_e"] + sech ** 2)) <= 1e-9
    W_on = extrinsic.weingarten_on(ext)
    assert np.max(np.abs(W_on[:, 0, 0] + sech)) <= 1e-9
    assert np.max(np.abs(W_on[:, 1, 1] - sech)) <= 1e-9
    assert np.max(np.abs(W_on[:, 0, 1])) <= 1e-9
    assert np.max(np.abs(W_on[:, 1, 0])) <= 1e-9
    conf = gaussmap.conformality_test(g.base, g.gauss_dn)
    m = g.interior_mask
    assert conf["conformal"][m].all()
    assert np.max(np.abs(conf["k"] - sech ** 2)[m]) <= 1e-7
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    _report(1, f"catenoid-frame plane at 64x64 in {elapsed:.2f}s "
               "(bold_H, K_e, W, conformal factor)")


@pytest.mark.parametrize("lam", [0.0, 0.3, 1.0])
def test_criterion_02_cartan_schouten_sphere(lam):
    sc = scenes.builtin("cartan_schouten_sphere", lam=lam)
    g = scenes.make_grid(sc, 48, 96)
    ext = g.ext
    want_W = np.array([[-1.0, -lam], [lam, -1.0]])
    assert np.max(np.abs(extrinsic.weingarten_on(ext) - want_W)) <= 1e-8
    assert np.max(np.abs(ext["bold_H"] - (-2 + 2j * lam))) <= 1e-8
    m = g.interior_mask
    assert np.max(np.abs(g.intrinsic_K[m] - 1.0)) <= 1e-4
    big = scenes.make_grid(sc, 96, 192)
    total = scenes.integrate(big, "K")
    assert abs(total - 4 * np.pi) <= 1e-3 * 4 * np.pi
    _report(2, f"Cartan-Schouten sphere lambda={lam} "
               "(W_on, bold_H, K=1, Gauss-Bonnet at 96x192)")


def test_criterion_03_rotated_frame_plane():
    sc = scenes.builtin("rotated_frame_plane", theta="x*y", e=(-1.0, 0.0, 0.0))
    g = scenes.make_grid(sc, 48, 48)
    ext = g.ext
    z = g.U + 1j * g.V
    assert np.max(np.abs(ext["bold_H"] - z)) <= 1e-8
    m = g.interior_mask
    _, dbar_h = dbar_at(sc.surface, g.U[m], g.V[m])
    assert np.max(np.abs(dbar_h)) <= 1e-6
    assert np.max(np.abs(g.holo["phi"] + z / 4.0)) <= 1e-8
    assert np.max(np.abs(l_tensor(g.ext, sc.ambient))) <= 1e-8
    curv, sub, hol = ({k: v[m] for k, v in block.items()}
                      for block in (g.curvature, g.ext, g.holo))
    res = holo.hopf_identity_residual(sub, curv, hol, g.take("d_hopf")["d_hopf"][m])
    assert np.max(res) <= 1e-5
    _report(3, "rotated-frame plane theta=xy (bold_H=u+iv, CR, phi, L=0, "
               "Hopf-coefficient identity)")


def test_criterion_04_gauge_theorem_all_weitzenboeck_builtins():
    worst_theorem = 0.0
    worst_general = 0.0
    for name in WEITZENBOECK_BUILTINS:
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 10, 10)
        for gauge in random_gauge_fields(sc, 5, seed=2024):
            gamb = gaussmap.apply_gauge(sc.ambient, gauge)
            r = np.max(gaussmap.gauge_theorem_residual(gamb, gauge, g.ext, g.gauss))
            worst_theorem = max(worst_theorem, r)
        for gauge in random_gauge_fields(sc, 5, seed=4048, about_normal=False):
            gamb = gaussmap.apply_gauge(sc.ambient, gauge)
            r = np.max(gaussmap.general_gauge_residual(gamb, gauge, g.ext,
                                                       g.gauss_frames))
            worst_general = max(worst_general, r)
    assert worst_theorem <= 1e-6
    assert worst_general <= 1e-5
    _report(4, f"gauge theorem over 6 scenes x 5 fields "
               f"(normal-axis {worst_theorem:.2e}, general {worst_general:.2e})")


def test_criterion_05_divergence_curl_ladder():
    worst = 0.0
    for name in WEITZENBOECK_BUILTINS:
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 24, 24)
        ext, n = g.ext, g.gauss["n"]
        dc = gaussmap.div_curl(g.gauss_dn, g.gauss_frames)
        m = g.interior_mask
        worst = max(
            worst,
            np.max(np.abs(dc["div_top"] + ext["H"])[m]),
            np.max(np.abs(dc["div_cross"] - ext["star_tau"])[m]),
            np.max(np.abs(dc["curl_top"] + ext["star_tau"][:, None] * n)[m]),
            np.max(np.abs(dc["curl_cross"] + ext["H"][:, None] * n)[m]),
        )
    assert worst <= 1e-7
    _report(5, f"divergence/curl ladder on all frame builtins (worst {worst:.2e})")


def test_criterion_06_gauss_equation_and_egregium():
    worst_ge = worst_eg = 0.0
    for name in ALL_BUILTINS:
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 16, 16)
        m = g.interior_mask
        worst_ge = max(worst_ge,
                       np.max(extrinsic.gauss_equation_residual(g.ext, g.curvature, g.intrinsic_K)[m]))
        dec = extrinsic.curvature_decomposition(g.ext, g.curvature, g.intrinsic_K)
        if dec["ambient_flat"]:
            worst_eg = max(worst_eg, np.max(dec["egregium"][m]))
    assert worst_ge <= 1e-5
    assert worst_eg <= 1e-4
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.7)
    g = scenes.make_grid(sc, 16, 16)
    dec = extrinsic.curvature_decomposition(g.ext, g.curvature, g.intrinsic_K)
    split = np.max(dec["sectional_split"][g.interior_mask])
    assert split <= 1e-4
    _report(6, f"Gauss equation {worst_ge:.2e}, Egregium {worst_eg:.2e}, "
               f"sectional split {split:.2e}")


def test_criterion_07_psi_identity_and_umbilic_classifier():
    tol = 1e-7
    worst = 0.0
    for name in ISOTHERMAL_BUILTINS:
        sc = scenes.builtin(name)
        g = scenes.make_grid(sc, 16, 16)
        hol = g.holo
        worst = max(worst, np.max(hol["psi_identity_residual"]))
        cls = extrinsic.classify(g.ext, tol=tol)
        phi_zero = np.abs(hol["phi"]) <= 0.5 * tol * hol["lam"] ** 2
        assert np.array_equal(phi_zero, cls["umbilic"]), name
    assert worst <= 1e-8
    _report(7, f"psi = bold_H phi (worst {worst:.2e}) and umbilic <=> phi=0 "
               "agreement at 100% of samples")


def test_criterion_08_gauss_map_degree():
    sc = scenes.builtin("round_sphere_standard")
    d = scenes.gauss_degree(scenes.make_grid(sc, 48, 96))
    assert d["degree"] == 1 and d["residual"] <= 1e-3
    assert 2 * d["degree"] == sc.chi
    sc = scenes.builtin("torus_standard")
    d0 = scenes.gauss_degree(scenes.make_grid(sc, 32, 32))
    assert d0["degree"] == 0 and d0["residual"] <= 1e-3
    assert 2 * d0["degree"] == sc.chi
    _report(8, "Gauss-map degree (sphere 1, torus 0) with 2 deg = chi")


def test_criterion_09_kit_properties_thousand_instances():
    rng = np.random.default_rng(90125)
    worst_alg = 0.0
    for _ in range(1000):
        a, b = rng.normal(size=3), rng.normal(size=3)
        worst_alg = max(
            worst_alg,
            np.max(np.abs(so3.hat(a) @ b + so3.hat(b) @ a)),
            np.max(np.abs(so3.hat(a) @ so3.hat(b) @ so3.hat(a)
                          + np.dot(a, b) * so3.hat(a))),
            abs(np.dot(a, b) + 0.5 * np.trace(so3.hat(a) @ so3.hat(b))),
            np.max(np.abs(so3.hat(np.cross(a, b))
                          - (so3.hat(a) @ so3.hat(b) - so3.hat(b) @ so3.hat(a)))),
        )
        e = a / np.linalg.norm(a)
        A = so3.rodrigues(e, float(rng.uniform(-np.pi, np.pi)))
        worst_alg = max(worst_alg,
                        np.max(np.abs(so3.hat(A @ b) - A @ so3.hat(b) @ A.T)))
        S = so3.hat(b)
        worst_alg = max(worst_alg,
                        np.max(np.abs(so3.hat(S @ a) - (S @ so3.hat(a) - so3.hat(a) @ S))))
    assert worst_alg <= 1e-10

    # Maurer-Cartan pullback against a finite-difference oracle on the
    # rotation field, >= 1000 instances across random points/directions
    vars3 = {"x", "y", "z"}
    theta = expr.parse("0.9*sin(x) + 0.4*cos(y)*sin(z) + 0.2*x*y", vars3)
    raw = [expr.parse("2 + sin(0.6*x)", vars3),
           expr.parse("0.7*cos(y - 0.3*z)", vars3),
           expr.parse("0.5*sin(z + x)", vars3)]
    norm = expr.call("sqrt", expr.add(expr.add(
        expr.mul(raw[0], raw[0]), expr.mul(raw[1], raw[1])),
        expr.mul(raw[2], raw[2])))
    e_field = tuple(expr.div(c, norm) for c in raw)

    def rot(q):
        ev = np.array([expr.evaluate(c, q) for c in e_field])
        return so3.rodrigues(ev / np.linalg.norm(ev), expr.evaluate(theta, q))

    h = 1e-6
    worst_fd = 0.0
    count = 0
    for _ in range(340):
        p = {k: float(rng.uniform(-1, 1)) for k in ("x", "y", "z")}
        for k, name in enumerate(("x", "y", "z")):
            up, dn = dict(p), dict(p)
            up[name] += h
            dn[name] -= h
            oracle = np.linalg.inv(rot(p)) @ ((rot(up) - rot(dn)) / (2 * h))
            M = so3.maurer_cartan_pullback(theta, e_field, k, p)
            worst_fd = max(worst_fd, np.max(np.abs(M - oracle)))
            count += 1
    assert count >= 1000
    assert worst_fd <= 1e-6
    _report(9, f"kit identities over 1000+ instances "
               f"(algebraic {worst_alg:.2e}, FD oracle {worst_fd:.2e})")


def test_criterion_10_determinism(tmp_path):
    reports, exports = [], []
    for run in ("a", "b"):
        rep = tmp_path / f"rep_{run}.json"
        exp = tmp_path / f"exp_{run}.csv"
        assert cli.main(["verify", "--builtin", "catenoid_frame_plane",
                         "--grid", "12x12", "--out", str(rep)]) == 0
        assert cli.main(["fields", "--builtin", "catenoid_frame_plane",
                         "--grid", "12x12", "--out", str(exp)]) == 0
        reports.append(rep.read_bytes())
        exports.append(exp.read_bytes())
    assert reports[0] == reports[1]
    assert exports[0] == exports[1]
    json.loads(reports[0])
    _report(10, "byte-identical verify reports and field exports across runs")
