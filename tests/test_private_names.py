"""Private names stay in their module: no module of the package imports
another's private name or reads one off another object."""

import ast
import pathlib

import rcsurf

SRC = pathlib.Path(rcsurf.__file__).parent


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_uses(path):
    """(line, text) of each `from .x import _name` in the file at path and
    of each `obj._name` whose obj is not self or cls."""
    hits = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            hits += [(node.lineno, alias.name) for alias in node.names
                     if _private(alias.name)]
        elif (isinstance(node, ast.Attribute) and _private(node.attr)
              and not (isinstance(node.value, ast.Name)
                       and node.value.id in ("self", "cls"))):
            hits.append((node.lineno, ast.unparse(node)))
    return hits


def test_no_module_reads_another_modules_private_names():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) > 10
    hits = {p.name: private_uses(p) for p in paths}
    assert {name: h for name, h in hits.items() if h} == {}


def test_the_walk_finds_both_kinds_of_use(tmp_path):
    path = tmp_path / "m.py"
    path.write_text("from .ambient import _det3, det\n"
                    "x = amb._check_frame(d) + self._ok + cls._ok + amb.__dict__\n")
    assert private_uses(path) == [(1, "_det3"), (2, "amb._check_frame")]
