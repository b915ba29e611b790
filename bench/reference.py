"""Fixed reference work that gauges the machine's speed during a run.

    python3 bench/reference.py

run.py runs this, as a fresh process, before the first timed op and after
each op, and scales the op's times by its wall time.  It does the kinds of
work an op does: interpreter start and `import numpy`, building and
differentiating expression trees of tuples with a memo dict (like rcsurf's
symbolic layer), elementwise numpy on arrays of 128*128 samples, and
batched 3x3 solve/det/inv.  It never imports rcsurf, so no change to the
program moves it.  It exits 1 if its own results are wrong.
"""

import cmath
import random
import sys

import numpy as np

N = 128 * 128
TREES = 40


def build(rng, depth):
    """A random expression tree in x of at most `depth` levels."""
    if depth == 0 or rng.random() < 0.2:
        return ("x",) if rng.random() < 0.5 else ("c", rng.randint(1, 9))
    kind = rng.choice("+*s")
    if kind == "s":
        return ("sin", build(rng, depth - 1))
    return (kind, build(rng, depth - 1), build(rng, depth - 1))


def diff(e, memo):
    """d/dx of the tree `e`, sharing results of equal subtrees via `memo`."""
    if e in memo:
        return memo[e]
    kind = e[0]
    if kind == "x":
        d = ("c", 1)
    elif kind == "c":
        d = ("c", 0)
    elif kind == "+":
        d = ("+", diff(e[1], memo), diff(e[2], memo))
    elif kind == "*":
        d = ("+", ("*", diff(e[1], memo), e[2]), ("*", e[1], diff(e[2], memo)))
    elif kind == "sin":
        d = ("*", ("cos", e[1]), diff(e[1], memo))
    else:                               # cos appears only in derivatives
        d = ("*", ("c", -1), ("*", ("sin", e[1]), diff(e[1], memo)))
    memo[e] = d
    return d


def evaluate(e, x, memo):
    """The tree `e` at the real or complex x, each shared subtree once."""
    if e in memo:
        return memo[e]
    kind = e[0]
    if kind == "x":
        val = x
    elif kind == "c":
        val = e[1]
    elif kind == "+":
        val = evaluate(e[1], x, memo) + evaluate(e[2], x, memo)
    elif kind == "*":
        val = evaluate(e[1], x, memo) * evaluate(e[2], x, memo)
    else:
        val = (cmath.sin if kind == "sin" else cmath.cos)(evaluate(e[1], x, memo))
    memo[e] = val
    return val


def main():
    rng = random.Random(0)
    for _ in range(TREES):
        d1 = diff(build(rng, 12), {})
        d2 = diff(d1, {})
        # d/dx of the first derivative by complex step, exact to rounding
        step = evaluate(d1, 0.3 + 1e-20j, {}).imag / 1e-20
        exact = evaluate(d2, 0.3, {}).real
        if abs(exact - step) > 1e-9 * (1.0 + abs(step)):
            return 1

    rng = np.random.default_rng(0)
    u, v = rng.random(N), rng.random(N)
    for _ in range(200):
        w = np.sin(u) * np.cos(v) + u * v - np.sqrt(u + 1.0)
        u = u + 1e-9 * w
    if not np.all(np.isfinite(u)):
        return 1

    a = rng.random((N, 3, 3)) + 3.0 * np.eye(3)
    b = rng.random((N, 3, 1))
    for _ in range(10):
        x = np.linalg.solve(a, b)
        det = np.linalg.det(a)
        inv = np.linalg.inv(a)
    if (np.max(np.abs(a @ x - b)) > 1e-9 or np.min(np.abs(det)) <= 0.0
            or np.max(np.abs(inv @ b - x)) > 1e-9):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
