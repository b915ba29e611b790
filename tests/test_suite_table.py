"""verify's two tables: ENTRIES and SUITES agree, and a suite run alone
plans only what its row reads and reports what the full run reports for
its entries."""

import pytest

from rcsurf import scenes, surface, verify
from test_coverage_scenes import mercator_chart, sheared_chart

GRID = 16

_SCENES = dict({name: lambda name=name: scenes.builtin(name)
                for name in scenes.builtin_names()},
               sheared_chart=sheared_chart, mercator_chart=mercator_chart)


def test_the_tables_agree():
    """SUITES lists each suite of ENTRIES once, in report order; every need
    is known, and the tiers name every entry in report order."""
    rows = verify.ENTRIES.values()
    assert list(verify.SUITES) == list(dict.fromkeys(row.suite for row in rows))
    assert all(set(row.needs) <= set(verify._NEEDS) for row in rows)
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
    """The grid of a one-suite run plans the row's composition tables and
    r4 reductions, and compat only for ambient_sanity; a suite whose
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
        assert set(grid.composition) == (set(row.composition) if ran else set()), suite
        parts = set(row.curvature) & set(surface.CURVATURE_PARTS)     # r_uvvu is always kept
        assert set(grid.curvature_parts) == (parts if ran else set()), suite
        assert grid.with_compat == (ran and suite == "ambient_sanity")

