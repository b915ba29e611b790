"""The numeric so3 kit: hat map, Rodrigues rotations, metric cross product
and the pullback of the Maurer-Cartan form through a rotation field, on
single vectors and matrices.  The library works on stacked arrays and
symbolic Exprs (rcsurf.so3, rcsurf.surface.cross_metric_batch); this kit
is the independent single-point reference its tests check identities on.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3) with entry
A[i, j] meaning row i, column j.  All functions are pure.
"""

import numpy as np

from rcsurf import expr
from rcsurf.errors import NonUnitAxis, RcsurfError


class SingularMetric(RcsurfError):
    pass


ROTATION_DRIFT_TOL = 1e-12
UNIT_AXIS_TOL = 1e-9


def hat(a) -> np.ndarray:
    """Cross product matrix: hat(a) @ x == cross(a, x)."""
    a = np.asarray(a, dtype=float)
    return np.array([
        [0.0, -a[2], a[1]],
        [a[2], 0.0, -a[0]],
        [-a[1], a[0], 0.0],
    ])


def unhat(A) -> np.ndarray:
    """Inverse of hat, reading the (3,2), (1,3), (2,1) entries."""
    A = np.asarray(A, dtype=float)
    return np.array([A[2, 1], A[0, 2], A[1, 0]])


def is_rotation(R, tol=ROTATION_DRIFT_TOL) -> bool:
    R = np.asarray(R, dtype=float)
    drift = np.max(np.abs(R.T @ R - np.eye(3)))
    return drift <= tol and abs(np.linalg.det(R) - 1.0) <= tol


def rotation_from_matrix(M) -> np.ndarray:
    """Validated special-orthogonal matrix.

    Accepts M when orthonormality drift is within 1e-12; otherwise projects
    onto SO(3) by polar decomposition (round-off accumulated by sampled
    rotation fields) and validates the result.
    """
    M = np.asarray(M, dtype=float)
    if M.shape != (3, 3):
        raise ValueError("rotation matrix must be 3x3")
    if is_rotation(M):
        return M
    u, _, vt = np.linalg.svd(M)
    R = u @ vt
    if np.linalg.det(R) < 0:
        R = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    if not is_rotation(R, tol=1e-10) or np.max(np.abs(R - M)) > 1e-6:
        raise NonUnitAxis(f"matrix is not close to a rotation (drift {np.max(np.abs(M.T @ M - np.eye(3))):.3e})")
    return R


def rodrigues(e, theta) -> np.ndarray:
    """Rotation by angle theta about the unit axis e:
    I + sin(theta) hat(e) + (1 - cos(theta)) hat(e)^2."""
    e = np.asarray(e, dtype=float)
    n = np.linalg.norm(e)
    if abs(n - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxis(f"axis norm {n!r} deviates from 1 beyond {UNIT_AXIS_TOL}")
    K = hat(e)
    R = np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)
    return rotation_from_matrix(R)


def cross_metric(g, u, v, orientation_sign=1) -> np.ndarray:
    """Cross product of u and v under the SPD metric g on a chart whose
    coordinate orientation carries the given sign.

    The result w satisfies <w,u>_g = <w,v>_g = 0 and |w|_g equals the
    g-area of the (u, v) parallelogram.
    """
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    det = np.linalg.det(g)
    if det <= 0.0:
        raise SingularMetric(f"metric determinant {det!r} is not positive")
    lowered = orientation_sign * np.sqrt(det) * np.cross(u, v)
    return np.linalg.solve(g, lowered)


def maurer_cartan_pullback(theta, e, direction, point, chart_vars=("x", "y", "z")):
    """Value on the coordinate direction of the Maurer-Cartan form pulled
    back through the rotation field rodrigues(e(p), theta(p)).

    theta is an Expr, e a triple of Exprs over chart_vars, direction an
    index into chart_vars and point a mapping of chart variables to floats.
    Returns the skew matrix

        dtheta(X) hat(e) + sin(theta) hat(de(X)) + (1-cos(theta)) hat(de(X) x e).
    """
    x = chart_vars[direction]
    th = expr.evaluate(theta, point)
    dth = expr.evaluate(expr.diff(theta, x), point)
    ev = np.array([expr.evaluate(c, point) for c in e])
    n = np.linalg.norm(ev)
    if abs(n - 1.0) > UNIT_AXIS_TOL:
        raise NonUnitAxis(f"axis norm {n!r} at {point!r} deviates from 1")
    de = np.array([expr.evaluate(expr.diff(c, x), point) for c in e])
    return (dth * hat(ev)
            + np.sin(th) * hat(de)
            + (1.0 - np.cos(th)) * hat(np.cross(de, ev)))
