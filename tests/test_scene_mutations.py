"""The exit-code contract over mutated scene documents: a built-in's
document with one key deleted, one value swapped for a wrong-typed one, or
one expression swapped for a random one, which may leave its domain (log,
sqrt and division of unbounded subexpressions), exits 0, 1 or 2, with no
traceback, and exits 1 only with a written report.  Every exit-2 message
names a scene path (or block.key), and one from a pointwise guard names
where the first bad sample is."""

import contextlib
import io
import json
import os
import re
import tempfile
import traceback

import numpy as np
from hypothesis import given, settings, strategies as st

from rcsurf import cli, expr, scenes

from conftest import random_expr

_DOCS = {name: scenes.builtin(name).to_dict() for name in scenes.builtin_names()}

# a value of each JSON type, and numbers a scene may not take
_WRONG = [None, True, 0, -1, 2.5, 1e308, "x", "", [], [1, 2], [[0, 1], [1, 0]],
          {}, {"x": [0, 1]}]


_DELETE = object()      # _mutated deletes the entry

# the text of each pointwise guard, after "error: <path>: ", and the paths
# it may name; NonFiniteValue names block.key
_GUARDS = {
    "frame is negatively oriented": r"ambient\.F",
    "frame determinant within": r"ambient\.F",
    "metric not symmetric": r"ambient\.[gF]",
    "metric not positive definite": r"ambient\.[gF]",
    "metric compatibility residual": r"ambient\.(Gamma|F)",
    "outside [": r"ambient\.chart_domain\.[xyz]",
    "chart is not isothermal": r"surface\.isothermal",
    "tangents linearly dependent": r"surface\.X",
    "gauge axis": r"gauge\.axis|normal_axis",
    "non-finite value": r"[a-z_]+\.[A-Za-z_]+",
}
_WHERE = r" at (sample \d+ )?\(u=[^,]+, v=[^)]+\)\n$"
# a scene path (a top-level key of the document, then keys and indices) or
# block.key, as an exit-2 message names it
_PATH = (r"(name|ambient|surface|gauge|closed|euler_characteristic|normal_axis|tolerances"
         r"|goldens|base|curvature|ext|intrinsic|holo|gauss|gauss_dn|gauss_frames|report)"
         r"(\.[A-Za-z_][A-Za-z_0-9]*)*(\[\d+\])*")


def _paths(node, path=()):
    """(path, value) of every dict entry and list item under node."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, val in items:
        yield path + (key,), val
        yield from _paths(val, path + (key,))


def _mutated(doc, path, value):
    """A deep copy of doc with the entry at path replaced by value, or
    deleted when value is _DELETE."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _unsafe_text(rng, names, depth):
    """The text of random_expr's smooth expressions with log, sqrt and
    division of unbounded subexpressions drawn too, so that it may leave its
    domain: on the grid, or already when it is parsed, where a constant
    argument folds."""
    if depth == 0 or rng.random() < 0.4:
        return expr.to_string(random_expr(rng, names, depth))
    a, b = (_unsafe_text(rng, names, depth - 1) for _ in range(2))
    pick = rng.integers(5)
    if pick == 0:
        return f"log({a})"
    if pick == 1:
        return f"sqrt({a})"
    if pick == 2 and b != "0":
        return f"({a})/({b})"
    return f"({a}) + ({b})" if pick == 3 else f"({a})*({b})"


@st.composite
def _mutation(draw):
    name = draw(st.sampled_from(sorted(_DOCS)))
    doc = _DOCS[name]
    how = draw(st.sampled_from(["delete", "wrong_type", "expression"]))
    paths = list(_paths(doc))
    if how == "delete":
        keys = [p for p, _ in paths if isinstance(p[-1], str)]
        return name, _mutated(doc, draw(st.sampled_from(keys)), _DELETE)
    if how == "wrong_type":
        path = draw(st.sampled_from([p for p, _ in paths]))
        return name, _mutated(doc, path, draw(st.sampled_from(_WRONG)))
    path = draw(st.sampled_from([p for p, v in paths if isinstance(v, str)]))
    names = ["u", "v"] if path[0] in ("surface", "goldens") else ["x", "y", "z"]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    text = _unsafe_text(rng, names, depth=draw(st.integers(0, 3)))
    return name, _mutated(doc, path, text)


@given(_mutation())
@settings(max_examples=150, deadline=None)
def test_mutated_builtin_documents_keep_the_exit_code_contract(mutation):
    _, doc = mutation
    with tempfile.TemporaryDirectory() as tmp:
        scene = os.path.join(tmp, "mutated.rcscene")
        report = os.path.join(tmp, "report.json")
        with open(scene, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            try:
                code = cli.main(["verify", "--scene", scene, "--grid", "8x8",
                                 "--out", report])
            except BaseException:
                code = "raised:\n" + traceback.format_exc()
        assert code in (0, 1, 2), code
        assert "Traceback" not in err.getvalue()
        if code == 1:
            assert os.path.isfile(report)
        if code == 2:
            assert re.match(f"error: {_PATH}: ", err.getvalue()), err.getvalue()
        for text, path in _GUARDS.items():
            if code == 2 and text in err.getvalue():
                assert re.match(f"error: ({path}): {re.escape(text)}.*{_WHERE}",
                                err.getvalue()), err.getvalue()
