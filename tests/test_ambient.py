import numpy as np
import pytest

from rcsurf import ambient, expr, so3
from rcsurf.errors import IncompatibleConnection, OutsideChart, SingularFrame

import so3_numeric
from ambient_oracle import (
    DegeneratePlane, compat_residual_at, curvature_at, metric_at, sectional_at,
    sufficient_condition_at, torsion_at,
)

VARS3 = {"x", "y", "z"}


def E(text):
    return expr.parse(text, VARS3)


def identity_frame():
    return [[E("1") if i == j else E("0") for j in range(3)] for i in range(3)]


def cartan_schouten(lam):
    """Euclidean metric, Gamma^k_ij = lam * eps_ijk."""
    g = [[E("1") if i == j else E("0") for j in range(3)] for i in range(3)]
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1.0
    eps[0, 2, 1] = eps[2, 1, 0] = eps[1, 0, 2] = -1.0
    gamma = [[[expr.con(lam * eps[i, j, k]) for j in range(3)]
              for i in range(3)] for k in range(3)]
    return ambient.coefficient_ambient(g, gamma)


def catenoid_G():
    """The orthonormal frame matrix of the catenoid, as chart Exprs."""
    return [
        [E("-sin(x)"), E("tanh(y)*cos(x)"), E("sech(y)*cos(x)")],
        [E("cos(x)"), E("tanh(y)*sin(x)"), E("sech(y)*sin(x)")],
        [E("0"), E("sech(y)"), E("-tanh(y)")],
    ]


def catenoid_frame_ambient():
    G = catenoid_G()
    # frame matrix is G^T (inverse of the SO(3)-valued G)
    F = [[G[j][i] for j in range(3)] for i in range(3)]
    return ambient.frame_ambient(F)


def rotated_frame_ambient(theta_text="x*y", e=(-1.0, 0.0, 0.0)):
    theta = E(theta_text)
    R = so3.rodrigues_exprs(theta, tuple(expr.con(c) for c in e))
    return ambient.frame_ambient(R)


def test_standard_frame_has_zero_connection(rng):
    amb = ambient.frame_ambient(identity_frame())
    p = rng.uniform(-1, 1, size=3)
    b = amb.bindings(p)
    assert np.max(np.abs(amb.christoffel_at(b)[0])) == 0.0
    assert np.allclose(metric_at(amb, b)[0], np.eye(3))


def test_cartan_schouten_connection_and_torsion(rng):
    lam = 0.7
    amb = cartan_schouten(lam)
    p = rng.uniform(-1, 1, size=3)
    G = amb.christoffel_at(amb.bindings(p))[0]
    # nabla_{d_i} d_j = lam d_i x d_j
    for i in range(3):
        for j in range(3):
            ei, ej = np.eye(3)[i], np.eye(3)[j]
            assert np.allclose(G[:, i, j], lam * np.cross(ei, ej), atol=1e-15)
    T = torsion_at(amb, amb.bindings(p))[0]
    for i in range(3):
        for j in range(3):
            assert np.allclose(T[:, i, j], 2 * lam * np.cross(np.eye(3)[i], np.eye(3)[j]), atol=1e-15)


def test_cartan_schouten_curvature(rng):
    lam = 0.7
    amb = cartan_schouten(lam)
    p = rng.uniform(-1, 1, size=3)
    cur = {k: v[0] for k, v in curvature_at(amb, amb.bindings(p)).items()}
    # R(X,Y)Z = lam^2 (X x Y) x Z
    for i in range(3):
        for j in range(3):
            for k in range(3):
                want = lam ** 2 * np.cross(np.cross(np.eye(3)[i], np.eye(3)[j]), np.eye(3)[k])
                assert np.allclose(cur["rm"][:, k, i, j], want, atol=1e-14)
    assert np.allclose(cur["ric"], -2 * lam ** 2 * np.eye(3), atol=1e-14)
    assert cur["scal"] == pytest.approx(-6 * lam ** 2, rel=1e-13)


def test_cartan_schouten_sectional_constant(rng):
    amb = cartan_schouten(0.7)
    for _ in range(10):
        p = rng.uniform(-1, 1, size=3)
        u, v = rng.normal(size=3), rng.normal(size=3)
        assert sectional_at(amb, amb.bindings(p), u, v)[0] == pytest.approx(-0.49, abs=1e-10)


def test_sectional_basis_invariance(rng):
    amb = catenoid_frame_ambient()
    p = np.array([0.3, 0.4, 0.0])
    u, v = rng.normal(size=3), rng.normal(size=3)
    b = amb.bindings(p)
    s1 = sectional_at(amb, b, u, v)[0]
    s2 = sectional_at(amb, b, u + v, 2 * v)[0]
    assert s1 == pytest.approx(s2, abs=1e-10)


def test_euclidean_sectional_zero(rng):
    amb = ambient.frame_ambient(identity_frame())
    assert sectional_at(amb, amb.bindings(rng.uniform(-1, 1, 3)),
                        [1, 0, 0], [0, 1, 0])[0] == 0.0


def test_catenoid_frame_torsion_matches_paper():
    # T(d_1, d_2) = tanh(y) d_1
    amb = catenoid_frame_ambient()
    for (x, y) in [(0.2, -0.7), (1.1, 0.4), (3.0, 1.5)]:
        T = torsion_at(amb, amb.bindings((x, y, 0.0)))[0]
        assert np.allclose(T[:, 0, 1], [np.tanh(y), 0.0, 0.0], atol=1e-12)
        assert np.allclose(T[:, 1, 0], [-np.tanh(y), 0.0, 0.0], atol=1e-12)


def test_frame_defined_is_flat():
    for amb in (catenoid_frame_ambient(), rotated_frame_ambient()):
        pts = np.array([[0.3, -0.2, 0.1], [1.0, 0.5, -0.4], [2.2, 1.4, 0.0]])
        cur = amb.curvature_at(amb.bindings(pts))
        assert np.max(np.abs(cur["rm"])) <= 1e-10


def test_frame_metric_is_orthonormalizing(rng):
    amb = catenoid_frame_ambient()
    p = np.array([0.7, -0.3, 0.2])
    b = amb.bindings(p)
    g = metric_at(amb, b)[0]
    F = expr.eval_table(amb.frame, b)[0]
    # <E_i, E_j>_g = delta_ij
    gram = F.T @ g @ F
    assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
    Finv = expr.eval_table(amb.frame_inv, b)[0]
    assert np.max(np.abs(g - Finv.T @ Finv)) <= 1e-13


def test_weitzenboeck_torsion_equals_minus_bracket(rng):
    """T(E_i, E_j) = -[E_i, E_j], brackets expanded by exact differentiation."""
    amb = rotated_frame_ambient("0.4*sin(x) + 0.3*y*z", (0.0, 0.6, 0.8))
    F = amb.frame
    p = rng.uniform(-1, 1, size=3)
    b = amb.bindings(p)
    Fv = expr.eval_table(F, b)[0]
    T = torsion_at(amb, b)[0]
    vars3 = ("x", "y", "z")
    for i in range(3):
        for j in range(3):
            # [E_i, E_j]^k = E_i^m d_m E_j^k - E_j^m d_m E_i^k
            bracket = np.zeros(3)
            for k in range(3):
                for m in range(3):
                    dEj = expr.evaluate(expr.diff(F[k][j], vars3[m]), b)[0]
                    dEi = expr.evaluate(expr.diff(F[k][i], vars3[m]), b)[0]
                    bracket[k] += Fv[m, i] * dEj - Fv[m, j] * dEi
            lhs = np.einsum("kab,a,b->k", T, Fv[:, i], Fv[:, j])
            assert np.allclose(lhs, -bracket, atol=1e-11)


def test_metric_compat_cartan_schouten_exact(rng):
    amb = cartan_schouten(1.3)
    assert compat_residual_at(amb, amb.bindings(rng.uniform(-1, 1, 3)))[0] <= 1e-12


def test_metric_compat_frame_defined(rng):
    amb = catenoid_frame_ambient()
    assert compat_residual_at(amb, amb.bindings((0.4, 0.8, 0.0)))[0] <= 1e-9


def test_metric_compat_detects_corruption(rng):
    lam = 0.5
    amb = cartan_schouten(lam)
    bad_gamma = [[[amb.gamma[k][i][j] for j in range(3)] for i in range(3)] for k in range(3)]
    bad_gamma[1][0][0] = expr.add(bad_gamma[1][0][0], expr.con(0.1))
    bad = ambient.coefficient_ambient(amb.g, bad_gamma)
    assert compat_residual_at(bad, bad.bindings(rng.uniform(-1, 1, 3)))[0] >= 0.05
    with pytest.raises(IncompatibleConnection, match="^ambient.Gamma: metric compatibility"):
        bad.validate([[0.0, 0.0, 0.0]])


def test_frame_ambient_guards_name_the_frame():
    # a frame ambient's g and Gamma come from its frame, so its guards
    # name ambient.F
    amb = ambient.frame_ambient(identity_frame())
    bad_gamma = [[[amb.gamma[k][i][j] for j in range(3)] for i in range(3)] for k in range(3)]
    bad_gamma[1][0][0] = expr.add(bad_gamma[1][0][0], expr.con(0.1))
    bad = ambient.Ambient("frame", amb.g, bad_gamma, frame=amb.frame,
                          frame_inv=amb.frame_inv, frame_det=amb.frame_det)
    with pytest.raises(IncompatibleConnection, match="^ambient.F: metric compatibility"):
        bad.validate([[0.0, 0.0, 0.0]])


def levi_civita_gamma(g):
    """Symbolic Levi-Civita coefficients of a symbolic metric (test oracle)."""
    det = so3.det_exprs(g)
    ginv = so3.inv_exprs(g, det)
    vars3 = ("x", "y", "z")
    half = expr.con(0.5)
    gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for k in range(3):
        for i in range(3):
            for j in range(3):
                acc = expr.con(0.0)
                for l in range(3):
                    t = expr.add(expr.diff(g[j][l], vars3[i]),
                                 expr.diff(g[i][l], vars3[j]))
                    t = expr.sub(t, expr.diff(g[i][j], vars3[l]))
                    acc = expr.add(acc, expr.mul(ginv[k][l], t))
                gamma[k][i][j] = expr.mul(half, acc)
    return gamma


def random_metric_compatible_ambient(seed=7):
    """Random SPD metric with Levi-Civita plus a random contortion that
    preserves metric compatibility."""
    rng = np.random.default_rng(seed)
    bump = ["0.2*sin(x)*cos(y)", "0.15*sin(y+z)", "0.1*cos(x - z)"]
    g = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            if i == j:
                g[i][j] = E(f"1.5 + {bump[i]}")
            else:
                g[i][j] = E(f"0.1*sin({'xyz'[i]})*cos({'xyz'[j]})")
                g[j][i] = g[i][j]
    lc = levi_civita_gamma(g)
    det = so3.det_exprs(g)
    ginv = so3.inv_exprs(g, det)
    # contortion: A[i][j][k] antisymmetric in (j,k); delta Gamma^l_ij = g^lk A_ijk
    texts = ["0.3*sin(x)", "0.2*cos(y)", "0.25*sin(z)*cos(x)"]
    A = [[[expr.con(0.0)] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        a = E(texts[i])
        A[i][1][2] = a
        A[i][2][1] = expr.neg(a)
        b = E(f"0.1*cos({'xyz'[i]})")
        A[i][0][2] = b
        A[i][2][0] = expr.neg(b)
    gamma = [[[None] * 3 for _ in range(3)] for _ in range(3)]
    for l in range(3):
        for i in range(3):
            for j in range(3):
                acc = lc[l][i][j]
                for k in range(3):
                    acc = expr.add(acc, expr.mul(ginv[l][k], A[i][j][k]))
                gamma[l][i][j] = acc
    return ambient.coefficient_ambient(g, gamma)


def test_random_coefficient_scene_is_metric_compatible(rng):
    amb = random_metric_compatible_ambient()
    pts = rng.uniform(-1, 1, size=(8, 3))
    res = compat_residual_at(amb, amb.bindings(pts))
    assert np.max(res) <= 1e-10
    amb.validate(pts)


def test_lowered_curvature_antisymmetry(rng):
    amb = random_metric_compatible_ambient()
    pts = rng.uniform(-1, 1, size=(8, 3))
    cur = amb.curvature_at(amb.bindings(pts))
    r4 = cur["r4"]
    assert np.max(np.abs(r4 + np.swapaxes(r4, 1, 2))) <= 1e-9   # first pair
    assert np.max(np.abs(r4 + np.swapaxes(r4, 3, 4))) <= 1e-9   # last pair


def test_torsion_antisymmetry_everywhere(rng):
    for amb in (catenoid_frame_ambient(), random_metric_compatible_ambient()):
        pts = rng.uniform(-1, 1, size=(6, 3))
        T = torsion_at(amb, amb.bindings(pts))
        assert np.max(np.abs(T + np.swapaxes(T, -2, -1))) <= 1e-12


def test_constant_rotation_gauge_covariance(rng):
    """Frames differing by a constant rotation give identical tensors."""
    amb1 = catenoid_frame_ambient()
    R = so3_numeric.rodrigues(np.array([0.0, 0.6, 0.8]), 0.9)
    F1 = amb1.frame
    F2 = [[None] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(3):
            acc = expr.con(0.0)
            for m in range(3):
                acc = expr.add(acc, expr.mul(F1[i][m], expr.con(R[m, j])))
            F2[i][j] = acc
    amb2 = ambient.frame_ambient(F2)
    pts = rng.uniform(-1, 1, size=(5, 3))
    b = amb1.bindings(pts)
    assert np.max(np.abs(metric_at(amb1, b) - metric_at(amb2, b))) <= 1e-10
    assert np.max(np.abs(amb1.christoffel_at(b) - amb2.christoffel_at(b))) <= 1e-10
    assert np.max(np.abs(torsion_at(amb1, b) - torsion_at(amb2, b))) <= 1e-10


def test_sufficient_condition_cartan_schouten(rng):
    amb = cartan_schouten(0.8)
    out = sufficient_condition_at(amb, amb.bindings(rng.uniform(-1, 1, 3)), tol=1e-9)
    assert out["ricci_proportional"][0] and out["torsion_proportional"][0]
    assert out["kappa"][0] == pytest.approx(2 * 0.8, rel=1e-10)


def test_sufficient_condition_euclidean(rng):
    amb = ambient.frame_ambient(identity_frame())
    out = sufficient_condition_at(amb, amb.bindings(rng.uniform(-1, 1, 3)), tol=1e-12)
    assert out["ricci_proportional"][0] and out["torsion_proportional"][0]
    assert out["kappa"][0] == pytest.approx(0.0, abs=1e-14)


def test_sufficient_condition_rotated_frame_generic_point():
    amb = rotated_frame_ambient("x*y", (-1.0, 0.0, 0.0))
    out = sufficient_condition_at(amb, amb.bindings((0.7, 0.4, 0.0)), tol=1e-8)
    assert out["ricci_proportional"][0]          # flat, Ric = 0
    assert not out["torsion_proportional"][0]


def test_outside_chart_raises():
    amb = ambient.frame_ambient(identity_frame(), chart_domain={"x": (-1.0, 1.0)})
    with pytest.raises(OutsideChart):
        amb.christoffel_at(amb.bindings((2.0, 0.0, 0.0)))


def test_singular_frame_raises():
    F = identity_frame()
    F[2][2] = E("z")
    amb = ambient.frame_ambient(F)
    with pytest.raises(SingularFrame):
        amb.christoffel_at(amb.bindings((0.0, 0.0, 0.0)))
    with pytest.raises(SingularFrame):
        amb.validate([[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])


def test_degenerate_plane_raises(rng):
    amb = cartan_schouten(0.3)
    u = rng.normal(size=3)
    with pytest.raises(DegeneratePlane):
        sectional_at(amb, amb.bindings(rng.uniform(-1, 1, 3)), u, 2.0 * u)
