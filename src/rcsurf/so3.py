"""Symbolic 3x3 kit of Expr vectors (lists) and matrices (3x3 nested
lists, A[i][j] row i, column j): every symbolic sum over an index in the
package (a dot product, a matrix product, a contraction) is sum_exprs, a
left fold ((t0 + t1) + t2) + ..., so one rule fixes the shape of each
expression DAG and with it each compiled program and its bits.  The
products, the determinant and the adjugate inverse are built on it, and
the hat map and the Rodrigues rotation build frame-defined ambients and
gauge fields.
"""

from __future__ import annotations

import functools

from . import expr

__all__ = ["sum_exprs", "dot_exprs", "matvec_exprs", "matmul_exprs",
           "det_exprs", "inv_exprs", "hat_exprs", "rodrigues_exprs"]


def sum_exprs(terms):
    """t0 + t1 + ..., folded from the left."""
    return functools.reduce(expr.add, terms)


def dot_exprs(u, v):
    """sum_i u[i] v[i]."""
    return sum_exprs([expr.mul(a, b) for a, b in zip(u, v)])


def matvec_exprs(A, v):
    """A v, row by row."""
    return [dot_exprs(row, v) for row in A]


def matmul_exprs(A, B):
    """Product of two 3x3 matrices."""
    return [[dot_exprs(row, col) for col in zip(*B)] for row in A]


def det_exprs(M):
    """Determinant of a 3x3 matrix, expanded along the first row."""
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    t1 = expr.mul(a, expr.sub(expr.mul(e, i), expr.mul(f, h)))
    t2 = expr.mul(b, expr.sub(expr.mul(d, i), expr.mul(f, g)))
    t3 = expr.mul(c, expr.sub(expr.mul(d, h), expr.mul(e, g)))
    return expr.add(expr.sub(t1, t2), t3)


def inv_exprs(M, det):
    """Inverse of a 3x3 matrix as adjugate / det, det its determinant."""
    def cof(r, c):
        rows = [i for i in range(3) if i != r]
        cols = [j for j in range(3) if j != c]
        minor = expr.sub(
            expr.mul(M[rows[0]][cols[0]], M[rows[1]][cols[1]]),
            expr.mul(M[rows[0]][cols[1]], M[rows[1]][cols[0]]))
        return minor if (r + c) % 2 == 0 else expr.neg(minor)

    # adj = cofactor transpose
    return [[expr.div(cof(j, i), det) for j in range(3)] for i in range(3)]


def hat_exprs(e):
    """Symbolic cross product matrix of a triple of Exprs."""
    z = expr.con(0.0)
    e1, e2, e3 = e
    return [[z, expr.neg(e3), e2],
            [e3, z, expr.neg(e1)],
            [expr.neg(e2), e1, z]]


def rodrigues_exprs(theta, e):
    """Symbolic Rodrigues rotation: I + sin(theta) hat(e) + (1-cos(theta)) hat(e)^2,
    with theta an Expr and e a triple of Exprs (unit wherever evaluated)."""
    K = hat_exprs(e)
    KK = matmul_exprs(K, K)
    s = expr.call("sin", theta)
    c = expr.sub(expr.con(1.0), expr.call("cos", theta))
    return [[expr.add(expr.con(float(i == j)),
                      expr.add(expr.mul(s, K[i][j]), expr.mul(c, KK[i][j])))
             for j in range(3)] for i in range(3)]
