"""Two test scenes that exercise terms no built-in exercises.

Every built-in chart is orthogonal (max |F| at most 1.4e-16), so no suite
reads the off-diagonal of Ginv_S; and every isothermal built-in sits in a
flat frame ambient with a holomorphic or vanishing bold_H, so the curvature
and bold_H terms of the Hopf identity are round-off there.  The scenes
below close both gaps.  They are test scenes, not built-ins: `list`, the
CI loops and the benchmark do not change."""

import types

import numpy as np

from rcsurf import extrinsic, holo, scenes, surface, verify

GRID = 24


def sheared_chart():
    """rotated_frame_plane's frame (theta = x*y about -x) on the sheared
    chart X = (u, v + 0.3 u, 0): not isothermal, no normal_axis."""
    doc = scenes.builtin("rotated_frame_plane").to_dict()
    for key in ("normal_axis", "goldens"):
        del doc[key]
    doc["name"] = "sheared_chart"
    doc["surface"].update(X=["u", "v + 0.3*u", "0"], isothermal=False)
    return scenes.build_scene(doc)


def mercator_chart():
    """g = I and Gamma^k_ij = lam eps_ijk with lam = 0.5 + 0.3 x + 0.2 y z,
    metric-compatible since the contorsion is totally antisymmetric, on the
    isothermal Mercator chart of the unit sphere, v in [-2, 2]."""
    lam = "(0.5 + 0.3*x + 0.2*y*z)"
    eps = {(0, 1, 2): "", (1, 2, 0): "", (2, 0, 1): "",
           (0, 2, 1): "-", (2, 1, 0): "-", (1, 0, 2): "-"}
    gamma = [[[f"{eps[i, j, k]}{lam}" if (i, j, k) in eps else "0"
               for j in range(3)] for i in range(3)] for k in range(3)]
    doc = scenes.builtin("cartan_schouten_sphere").to_dict()
    for key in ("closed", "euler_characteristic", "goldens"):
        del doc[key]
    doc["name"] = "mercator_chart"
    doc["ambient"]["Gamma"] = gamma
    doc["surface"].update(X=["sech(v)*cos(u)", "sech(v)*sin(u)", "tanh(v)"],
                          domain=[[0.0, 2 * np.pi], [-2.0, 2.0]],
                          periodic=[True, False], isothermal=True)
    return scenes.build_scene(doc)


def _ran(report):
    """{entry: max_residual} of the entries that ran."""
    return {e["name"]: e["max_residual"] for e in report.entries if e["status"] != "skip"}


def test_sheared_chart_reads_the_off_diagonal_metric():
    scene = sheared_chart()
    base = scenes.make_grid(scene, GRID, GRID).base
    assert np.max(np.abs(base["F"])) >= 0.1
    report = verify.run_verification(scene, GRID, GRID)
    ran = _ran(report)
    assert report.passed, report.summary_lines()
    assert {"divcurl", "gauge_general", "gauss_eq", "conformality"} <= set(ran)
    assert max(ran.values()) <= 1e-13, ran


def test_mercator_chart_exercises_every_hopf_term():
    """The bold_H term (lam^2/4) conj(dbar bold_H) and the curvature term
    (i/2) R(Xu, Xv, dz, N) of the Hopf identity reach 1e-2 on the masked
    samples, and the identity holds to round-off."""
    scene = mercator_chart()
    grid = scenes.make_grid(scene, GRID, GRID)
    m = grid.interior_mask
    _, dbar_H = holo.dbar(grid.take("d_hopf")["d_hopf"])
    bold_h_term = 0.25 * grid.holo["lam"] ** 2 * np.conj(dbar_H)
    r = grid.curvature["r_uvcn"]        # R(Xu, Xv, X_c, N)
    curvature_term = 0.25j * (r[:, 0] - 1j * r[:, 1])
    assert np.max(np.abs(bold_h_term[m])) >= 1e-2
    assert np.max(np.abs(curvature_term[m])) >= 1e-2
    report = verify.run_verification(scene, GRID, GRID)
    ran = _ran(report)
    assert report.passed, report.summary_lines()
    assert {"hopf_identity", "psi_identity", "gauss_eq"} <= set(ran)
    assert max(ran.values()) <= 1e-13, ran


def _terms(scene):
    """{(entry, term): max |term|} over the interior samples of scene at
    GRID x GRID, for the terms of each multi-term identity whose entry has
    every need there (flatness aside)."""
    grid = scenes.make_grid(scene, GRID, GRID)
    m = grid.interior_mask
    run = types.SimpleNamespace(scene=scene, flat=True)
    runs = {entry for entry, row in verify.ENTRIES.items() if row.unmet(run) is None}
    base, ext = grid.base, grid.ext
    II = base["II"]
    terms = {("gauss_eq", "r_uvvu"): grid.curvature["r_uvvu"],
             ("gauss_eq", "K*area^2"): grid.intrinsic_K * base["area"] ** 2,
             ("gauss_eq", "II_uu*II_vv"): II[:, 0, 0] * II[:, 1, 1],
             ("gauss_eq", "II_uv*II_vu"): II[:, 0, 1] * II[:, 1, 0]}
    if "divcurl" in runs:
        terms.update({("divcurl", "H"): ext["H"], ("divcurl", "star_tau"): ext["star_tau"]})
    if "psi_identity" in runs:
        hol = grid.holo
        terms.update({("psi_identity", "psi"): hol["psi"],
                      ("psi_identity", "bold_H*phi"): ext["bold_H"] * hol["phi"]})
    if "hopf_identity" in runs:
        # the four terms of holo.hopf_identity_residual, formed as it forms them
        lhs, dbar_H = holo.dbar(grid.take("d_hopf")["d_hopf"])
        r = grid.curvature["r_uvcn"]
        JT = surface.cross_metric_batch(base["g"], base["N"], base["T_S"])
        comp = extrinsic.tangent_components(base, JT)
        ii = comp[:, 0, None] * II[:, 0] + comp[:, 1, None] * II[:, 1]
        terms.update({
            ("hopf_identity", "left side"): lhs,
            ("hopf_identity", "bold_H"): 0.25 * grid.holo["lam"] ** 2 * np.conj(dbar_H),
            ("hopf_identity", "curvature"): 0.25j * (r[:, 0] - 1j * r[:, 1]),
            ("hopf_identity", "II"): 0.25 * (ii[:, 0] - 1j * ii[:, 1])})
    return {key: float(np.max(np.abs(values[m]))) for key, values in terms.items()}


TERMS = {("gauss_eq", t) for t in ("r_uvvu", "K*area^2", "II_uu*II_vv", "II_uv*II_vu")} | {
    ("hopf_identity", t) for t in ("left side", "bold_H", "curvature", "II")} | {
    ("psi_identity", "psi"), ("psi_identity", "bold_H*phi"),
    ("divcurl", "H"), ("divcurl", "star_tau")}


def test_every_term_of_every_identity_is_exercised():
    """Each term of a multi-term identity reaches 1e-3 at an interior sample
    of some built-in or test scene where its entry runs: a term that is
    round-off on every input would let a fault in it go unseen.  The Hopf
    bold_H and curvature terms do so only on the Mercator chart."""
    reach = {}          # term -> the inputs where it reaches 1e-3
    inputs = [scenes.builtin(name) for name in scenes.builtin_names()]
    for scene in inputs + [sheared_chart(), mercator_chart()]:
        for key, size in _terms(scene).items():
            reach.setdefault(key, set())
            if size >= 1e-3:
                reach[key].add(scene.name)
    assert set(reach) == TERMS
    assert {key for key, names in reach.items() if not names} == set()
    assert reach["hopf_identity", "bold_H"] == {"mercator_chart"}
    assert reach["hopf_identity", "curvature"] == {"mercator_chart"}
