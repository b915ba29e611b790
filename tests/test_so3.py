import numpy as np
import pytest

from rcsurf import expr
from rcsurf.errors import NonUnitAxis

import so3_numeric as so3
from so3_numeric import SingularMetric


def expm_series(A, squarings=12):
    """Scaling-and-squaring series exponential, independent of rodrigues."""
    A = np.asarray(A, dtype=float) / (2.0 ** squarings)
    term = np.eye(3)
    out = np.eye(3)
    for k in range(1, 24):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def random_unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def random_spd(rng):
    A = rng.normal(size=(3, 3))
    return A @ A.T + 3.0 * np.eye(3)


def test_hat_basis():
    L1 = np.array([[0, 0, 0], [0, 0, -1], [0, 1, 0]], dtype=float)
    assert np.array_equal(so3.hat([1, 0, 0]), L1)
    assert np.array_equal(so3.hat([0, 0, 0]), np.zeros((3, 3)))


def test_hat_acts_as_cross_product(rng):
    for _ in range(100):
        a, x = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(so3.hat(a) @ x, np.cross(a, x), atol=1e-14)


def test_unhat_roundtrip(rng):
    for _ in range(50):
        a = rng.normal(size=3)
        assert np.array_equal(so3.unhat(so3.hat(a)), a)


def test_hat_commutator_is_cross(rng):
    # unhat([hat a, hat b]) = a x b
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        C = so3.hat(a) @ so3.hat(b) - so3.hat(b) @ so3.hat(a)
        assert np.allclose(so3.unhat(C), np.cross(a, b), atol=1e-13)


def test_hat_antisymmetric_pairing(rng):
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.max(np.abs(so3.hat(a) @ b + so3.hat(b) @ a)) <= 1e-14


def test_hat_triple_product_rule(rng):
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        lhs = so3.hat(a) @ so3.hat(b) @ so3.hat(a)
        rhs = -np.dot(a, b) * so3.hat(a)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12
    e = random_unit(rng)
    K = so3.hat(e)
    assert np.max(np.abs(K @ K @ K + K)) <= 1e-14


def test_hat_conjugation_by_rotation(rng):
    for _ in range(100):
        b = rng.normal(size=3)
        A = so3.rodrigues(random_unit(rng), rng.uniform(-np.pi, np.pi))
        assert np.max(np.abs(so3.hat(A @ b) - A @ so3.hat(b) @ A.T)) <= 1e-12


def test_hat_adjoint_bracket(rng):
    # hat(A b) = A hat(b) - hat(b) A for skew A
    for _ in range(100):
        b = rng.normal(size=3)
        A = so3.hat(rng.normal(size=3))
        assert np.max(np.abs(so3.hat(A @ b) - (A @ so3.hat(b) - so3.hat(b) @ A))) <= 1e-13


def test_trace_pairing(rng):
    for _ in range(100):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert np.dot(a, b) == pytest.approx(-0.5 * np.trace(so3.hat(a) @ so3.hat(b)), rel=1e-12, abs=1e-12)


def test_rodrigues_half_turn_about_z():
    R = so3.rodrigues([0, 0, 1], np.pi)
    assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-15)


def test_rodrigues_zero_angle_is_identity(rng):
    for _ in range(20):
        assert np.allclose(so3.rodrigues(random_unit(rng), 0.0), np.eye(3), atol=1e-15)


def test_rodrigues_fixes_axis(rng):
    for _ in range(50):
        e = random_unit(rng)
        R = so3.rodrigues(e, rng.uniform(-np.pi, np.pi))
        assert np.allclose(R @ e, e, atol=1e-13)


def test_rodrigues_matches_matrix_exponential(rng):
    for _ in range(100):
        e = random_unit(rng)
        th = rng.uniform(-np.pi, np.pi)
        assert np.max(np.abs(so3.rodrigues(e, th) - expm_series(th * so3.hat(e)))) <= 1e-10


def test_rodrigues_angle_addition(rng):
    for _ in range(50):
        e = random_unit(rng)
        t1, t2 = rng.uniform(-2, 2, size=2)
        lhs = so3.rodrigues(e, t1) @ so3.rodrigues(e, t2)
        assert np.max(np.abs(lhs - so3.rodrigues(e, t1 + t2))) <= 1e-12


def test_rodrigues_rejects_non_unit_axis():
    with pytest.raises(NonUnitAxis):
        so3.rodrigues([1.0, 1.0, 0.0], 0.3)


def test_rotation_from_matrix_reorthonormalizes(rng):
    R = so3.rodrigues(random_unit(rng), 0.7)
    dirty = R + 1e-9 * rng.normal(size=(3, 3))
    clean = so3.rotation_from_matrix(dirty)
    assert so3.is_rotation(clean, tol=1e-10)
    with pytest.raises(NonUnitAxis):
        so3.rotation_from_matrix(np.diag([2.0, 1.0, 1.0]))


def test_cross_metric_euclidean():
    w = so3.cross_metric(np.eye(3), [1, 0, 0], [0, 1, 0])
    assert np.allclose(w, [0, 0, 1], atol=1e-15)


def test_cross_metric_parallel_vanishes(rng):
    g = random_spd(rng)
    u = rng.normal(size=3)
    assert np.max(np.abs(so3.cross_metric(g, u, 2.5 * u))) <= 1e-12


def test_cross_metric_orthogonality_and_norm(rng):
    for _ in range(100):
        g = random_spd(rng)
        u, v = rng.normal(size=3), rng.normal(size=3)
        w = so3.cross_metric(g, u, v)
        assert abs(w @ g @ u) <= 1e-10
        assert abs(w @ g @ v) <= 1e-10
        area2 = (u @ g @ u) * (v @ g @ v) - (u @ g @ v) ** 2
        assert w @ g @ w == pytest.approx(area2, rel=1e-10, abs=1e-10)


def test_cross_metric_rejects_singular():
    with pytest.raises(SingularMetric):
        so3.cross_metric(np.diag([1.0, 1.0, 0.0]), [1, 0, 0], [0, 1, 0])


def test_maurer_cartan_constant_field_is_zero():
    theta = expr.con(0.7)
    e = (expr.con(0.0), expr.con(0.0), expr.con(1.0))
    for k in range(3):
        M = so3.maurer_cartan_pullback(theta, e, k, {"x": 0.1, "y": -0.4, "z": 2.0})
        assert np.max(np.abs(M)) == 0.0


def test_maurer_cartan_linear_angle_gives_generator():
    theta = expr.var("x")
    e = (expr.con(0.0), expr.con(0.0), expr.con(1.0))
    L3 = so3.hat([0, 0, 1])
    M = so3.maurer_cartan_pullback(theta, e, 0, {"x": 0.2, "y": 0.0, "z": 0.0})
    assert np.allclose(M, L3, atol=1e-15)


def test_maurer_cartan_rejects_non_unit_axis():
    theta = expr.var("x")
    e = (expr.var("x"), expr.con(0.0), expr.con(1.0))
    with pytest.raises(NonUnitAxis):
        so3.maurer_cartan_pullback(theta, e, 0, {"x": 0.5, "y": 0.0, "z": 0.0})


def _random_smooth_gauge(rng):
    """Random smooth (theta, e) field over the chart; e is unit by construction."""
    vars3 = ["x", "y", "z"]
    theta = expr.parse("0.8*sin(x) + 0.5*cos(y)*sin(z) + 0.3*x*y", set(vars3))
    # unit axis from normalizing a nowhere-zero smooth vector field
    raw = [expr.parse("2 + sin(0.7*x + 0.3*y)", set(vars3)),
           expr.parse("0.5*cos(y - z)", set(vars3)),
           expr.parse("0.4*sin(z)*cos(x)", set(vars3))]
    norm = expr.call("sqrt", expr.add(expr.add(
        expr.mul(raw[0], raw[0]), expr.mul(raw[1], raw[1])), expr.mul(raw[2], raw[2])))
    e = tuple(expr.div(c, norm) for c in raw)
    return theta, e


def test_maurer_cartan_matches_finite_difference_of_rotation_field(rng):
    # oracle: g(p)^-1 d/dx g(p) by central differences on the rotation field
    theta, e = _random_smooth_gauge(rng)
    h = 1e-6
    for _ in range(25):
        p = {"x": float(rng.uniform(-1, 1)), "y": float(rng.uniform(-1, 1)),
             "z": float(rng.uniform(-1, 1))}
        for k, name in enumerate(("x", "y", "z")):
            def rot(q):
                ev = np.array([expr.evaluate(c, q) for c in e])
                ev /= np.linalg.norm(ev)
                return so3.rodrigues(ev, expr.evaluate(theta, q))
            up = dict(p); up[name] += h
            dn = dict(p); dn[name] -= h
            fd = np.linalg.inv(rot(p)) @ ((rot(up) - rot(dn)) / (2 * h))
            M = so3.maurer_cartan_pullback(theta, e, k, p)
            assert np.max(np.abs(M - fd)) <= 5e-7
