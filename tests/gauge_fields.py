"""Seeded pseudo-random gauge fields for a scene.

verify's gauge entries run fixed draws of this generator, written into
verify.GAUGE_THEOREM (seed 1234) and verify.GAUGE_GENERAL (seed 4321) as
expression text, so that a verify run never loads numpy.random; the tests
draw other seeds and counts.
"""

import numpy as np

from rcsurf import expr, gaussmap, scenes
from rcsurf.errors import RcsurfError
from rcsurf.so3 import dot_exprs


def random_gauge_fields(scene, count, seed=1234, about_normal=True):
    """Deterministic pseudo-random gauge fields for a scene.

    about_normal=True rotates about the scene's Gauss-map axis (needs the
    scene to carry normal_axis expressions); otherwise both the angle and a
    normalized random smooth axis field are generated.
    """
    rng = np.random.default_rng(seed)
    vars3 = scenes.AMBIENT_VARS
    out = []
    for _ in range(count):
        a, b, c = (round(float(x), 4) for x in rng.uniform(-0.9, 0.9, size=3))
        fa, fb = (round(float(x), 3) for x in rng.uniform(0.4, 1.4, size=2))
        theta = expr.parse(
            f"({a})*sin({fa}*x) + ({b})*cos({fb}*y) + ({c})*sin(x + y)", vars3)
        if about_normal:
            if scene.normal_axis is None:
                raise RcsurfError(f"scene {scene.name} has no normal-axis field")
            out.append(gaussmap.GaugeField(theta, scene.normal_axis))
            continue
        comps = []
        for k, w in enumerate("xyz"):
            s, f = (round(float(x), 3) for x in rng.uniform(-0.8, 0.8, size=2))
            base = "2.0" if k == 0 else "0.0"
            comps.append(expr.parse(f"{base} + ({s})*sin({abs(f) + 0.3}*{w})", vars3))
        norm = expr.call("sqrt", dot_exprs(comps, comps))
        axis = tuple(expr.div(cc, norm) for cc in comps)
        out.append(gaussmap.GaugeField(theta, axis))
    return out
