"""Symbolic 3x3 kit: the hat map, the matrix product and the Rodrigues
rotation of Expr triples and matrices, which frame-defined ambients and
gauge fields are built from.  Matrices are 3x3 nested lists of Exprs with
entry A[i][j] meaning row i, column j.
"""

from __future__ import annotations

from . import expr

__all__ = ["hat_exprs", "rodrigues_exprs", "matmul_exprs"]


def hat_exprs(e):
    """Symbolic cross product matrix of a triple of Exprs."""
    z = expr.con(0.0)
    e1, e2, e3 = e
    return [[z, expr.neg(e3), e2],
            [e3, z, expr.neg(e1)],
            [expr.neg(e2), e1, z]]


def matmul_exprs(A, B):
    """Product of two 3x3 nested lists of Exprs."""
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            acc = expr.mul(A[i][0], B[0][j])
            acc = expr.add(acc, expr.mul(A[i][1], B[1][j]))
            acc = expr.add(acc, expr.mul(A[i][2], B[2][j]))
            row.append(acc)
        out.append(row)
    return out


def rodrigues_exprs(theta, e):
    """Symbolic Rodrigues rotation: I + sin(theta) hat(e) + (1-cos(theta)) hat(e)^2,
    with theta an Expr and e a triple of Exprs (unit wherever evaluated)."""
    K = hat_exprs(e)
    KK = matmul_exprs(K, K)
    s = expr.call("sin", theta)
    c = expr.sub(expr.con(1.0), expr.call("cos", theta))
    out = []
    for i in range(3):
        row = []
        for j in range(3):
            entry = expr.add(expr.mul(s, K[i][j]), expr.mul(c, KK[i][j]))
            if i == j:
                entry = expr.add(expr.con(1.0), entry)
            row.append(entry)
        out.append(row)
    return out
