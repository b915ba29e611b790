"""verify's two tables: ENTRIES and SUITES agree, a suite run alone plans
only what its row reads and reports what the full run reports for its
entries, and run_verification itself names no suite or entry."""

import ast
import inspect
import textwrap

import pytest

from rcsurf import expr, scenes, surface, verify
from test_coverage_scenes import mercator_chart, sheared_chart

GRID = 16

_SCENES = dict({name: lambda name=name: scenes.builtin(name)
                for name in scenes.builtin_names()},
               sheared_chart=sheared_chart, mercator_chart=mercator_chart)


def test_the_tables_agree():
    """SUITES lists each suite of ENTRIES once, in report order; every need
    and every name a suite reads is known, and the tiers name every entry
    in report order."""
    rows = verify.ENTRIES.values()
    assert list(verify.SUITES) == list(dict.fromkeys(row.suite for row in rows))
    assert all(set(row.needs) <= set(verify._NEEDS) for row in rows)
    # every name a suite reads is one that a block of the grid tests for
    known = {"compat", *surface.CURVATURE_PARTS, *scenes._COMPOSITION_ORDER}
    assert all(set(row.reads) <= known for row in verify.SUITES.values())
    assert all(list(tier) == list(verify.ENTRIES) for tier in verify.TIERS.values())


@pytest.mark.parametrize("name", list(_SCENES))
def test_each_suite_alone_reports_as_in_the_full_run(name):
    """A suite run alone evaluates only its own composition tables, r4
    reductions and compat residual, and gives each of its entries the same
    dict, residual bits included, as the run of every suite."""
    scene = _SCENES[name]()
    full = {e["name"]: e for e in verify.run_verification(scene, GRID, GRID).entries}
    for suite in verify.SUITES:
        alone = verify.run_verification(scene, GRID, GRID, suites=[suite]).entries
        assert alone == [full[entry] for entry, row in verify.ENTRIES.items()
                         if row.suite == suite], suite


@pytest.mark.parametrize("name", ["catenoid_frame_cylinder", "round_sphere_standard"])
def test_a_suite_alone_plans_only_what_its_row_reads(monkeypatch, name):
    """The grid of a one-suite run reads exactly what the row reads: its
    composition tables, curvature-block parts and compat; a suite whose
    entries are all skipped plans nothing."""
    grids = []
    make = scenes.make_grid
    monkeypatch.setattr(scenes, "make_grid", lambda *args: grids.append(make(*args))
                        or grids[-1])
    scene = scenes.builtin(name)
    for suite, row in verify.SUITES.items():
        report = verify.run_verification(scene, 8, 8, suites=[suite])
        grid = grids.pop()
        ran = any(e["status"] != "skip" for e in report.entries)
        assert grid.reads == (frozenset(row.reads) if ran else frozenset()), suite


@pytest.mark.parametrize("name, suite", [("catenoid_frame_cylinder", "degree"),
                                         ("cartan_schouten_sphere", "gauge")])
def test_a_run_with_no_planned_row_evaluates_nothing(monkeypatch, name, suite):
    """degree on an open chart and gauge in a coefficient ambient skip every
    entry, so no chunk is built and no program is evaluated."""
    scene = scenes.builtin(name)
    calls = []
    evaluate = expr.eval_table
    monkeypatch.setattr(expr, "eval_table", lambda *args, **kw: calls.append(args)
                        or evaluate(*args, **kw))
    report = verify.run_verification(scene, 64, 64, suites=[suite])
    assert {e["status"] for e in report.entries} == {"skip"}
    assert calls == []


def test_run_verification_names_no_suite_or_entry():
    """run_verification reads every suite's needs, setup and reads off the two
    tables: no string constant in its source is a suite or entry name."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(verify.run_verification)))
    names = {node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert names & (set(verify.SUITES) | set(verify.ENTRIES)) == set()
