"""The field export's text: scenes.format_rows, which formats each distinct
value of a column once, against the row-at-a-time oracle."""

import numpy as np
from hypothesis import given, settings, strategies as st

from rcsurf import scenes

from export_oracle import format_rows as oracle_rows

# values that share a float but not their bits, and the extremes of float64
_SPECIAL = [float("nan"), -float("nan"), 5e-324, -5e-324,
            2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308,
            float("inf"), -float("inf")]


@st.composite
def _chunk(draw):
    """Columns of one chunk: 14 float columns, each drawn from a small pool
    that holds 0.0 and -0.0 (heavy repeats, both zeros side by side), and a
    flags column; the cells pick from the pools by a drawn seed."""
    n = draw(st.integers(1, 300))
    pick = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for _ in range(14):
        pool = [0.0, -0.0] + draw(st.lists(st.floats(allow_subnormal=True),
                                           max_size=6))
        pool += draw(st.lists(st.sampled_from(_SPECIAL), min_size=0, max_size=4))
        cols.append(np.array(pool, dtype=np.float64)[pick.integers(0, len(pool), n)])
    cols.append(pick.integers(0, 8, n))
    return cols


@given(_chunk())
@settings(max_examples=80, deadline=None)
def test_format_rows_equals_the_oracle(cols):
    assert scenes.format_rows(cols) == oracle_rows(cols)


def test_format_rows_keeps_zero_signs_apart():
    """0.0 and -0.0 are equal floats; each keeps its own text."""
    col = np.array([0.0, -0.0, 0.0, -0.0])
    cols = [col] * 14 + [np.zeros(4, dtype=np.int64)]
    rows = scenes.format_rows(cols).splitlines()
    assert [row.split(",")[0] for row in rows] == ["0", "-0", "0", "-0"]


def test_rotated_plane_export_equals_the_oracle_rows(tmp_path):
    """The whole 24x24 export of rotated_frame_plane, whose p_z column holds
    -0 cells beside 0 cells, is the oracle's text of its blocks."""
    sc = scenes.builtin("rotated_frame_plane")
    grid = scenes.make_grid(sc, 24, 24)
    out = tmp_path / "rotated.csv"
    scenes.export_fields(grid, out)
    want = oracle_rows(scenes.export_columns(scenes.make_grid(sc, 24, 24), 1e-7))
    assert out.read_text(encoding="utf-8") == ",".join(scenes.EXPORT_COLUMNS) + "\n" + want
    assert sum(",-0," in row for row in want.splitlines()) > 0
