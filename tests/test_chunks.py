"""The streamed grid: every reader builds its blocks one chunk of
scenes.CHUNK samples at a time, and no report, export or integral depends
on the chunk size."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rcsurf import expr, gaussmap, scenes, verify
from rcsurf.errors import NonFiniteValue, NotIsothermal, RcsurfError

NU = NV = 6
N = NU * NV

_SCENES = {}
_REFERENCE = {}


def _scene(name):
    if name not in _SCENES:
        _SCENES[name] = scenes.builtin(name)
    return _SCENES[name]


def _outputs(sc, path, nu=NU, nv=NV):
    """verify report JSON, fields CSV bytes and two integrals of one scene."""
    report = verify.run_verification(sc, nu, nv).to_json()
    scenes.export_fields(scenes.make_grid(sc, nu, nv), path)
    integrals = [scenes.integrate(scenes.make_grid(sc, nu, nv), f) for f in ("one", "K")]
    return report, path.read_bytes(), integrals


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("chunks")


@given(st.sampled_from(scenes.builtin_names()),
       st.one_of(st.sampled_from([1, N - 1, N + 1]), st.integers(2, N - 2)))
@settings(max_examples=16, deadline=None)
def test_chunked_outputs_equal_one_chunk(out_dir, name, chunk):
    """Chunk boundaries after every sample, one sample before the end, past
    the end (one chunk) and at uneven splits leave the report, the export
    and the integrals of every built-in byte-identical."""
    sc = _scene(name)
    if name not in _REFERENCE:
        _REFERENCE[name] = _outputs(sc, out_dir / f"{name}-ref.csv")
    with mock.patch.object(scenes, "CHUNK", chunk):
        got = _outputs(sc, out_dir / f"{name}-{chunk}.csv")
    assert got == _REFERENCE[name]


def _leaf_ids(table):
    if isinstance(table, (list, tuple)):
        return set().union(*map(_leaf_ids, table))
    return {id(table)}


def _variable_leaf_ids(table):
    """_leaf_ids without the constant leaves, which tables share freely."""
    if isinstance(table, (list, tuple)):
        return set().union(*map(_variable_leaf_ids, table))
    return set() if table.kind == expr._CONST else {id(table)}


def test_each_table_is_evaluated_once_per_chunk(monkeypatch):
    """A verify of three chunks evaluates the surface jets in one program
    per chunk, the frame tables and dg in one (the base block's), the
    surface-composition tables in one, and every gauge field's axis, theta
    and gauged (g, Gamma, frame_det) in one; no program holds only a frame
    determinant.  Programs are told apart by the identity of their table
    leaves.  A one-chunk 24x24 verify runs 5 programs (21 before the
    gauged tables, dg and the composition were merged, 9 before the gauge
    fields shared one program and dg joined the base block's)."""
    sc = _scene("catenoid_frame_cylinder")
    surf, amb = sc.surface, sc.ambient
    monkeypatch.setattr(scenes, "CHUNK", 100)          # 16x16 = 256 samples
    programs = []
    evaluate = expr.eval_table

    def record(table, bindings):
        programs.append(_leaf_ids(table))
        return evaluate(table, bindings)

    monkeypatch.setattr(expr, "eval_table", record)
    verify.run_verification(sc, 16, 16)
    chunks = 3

    def holding(leaves):
        return sum(leaves <= prog for prog in programs)

    jets = _leaf_ids((surf.X, surf.Xu, surf.Xv, surf.Xuu, surf.Xuv, surf.Xvv))
    assert holding(jets) == chunks
    assert holding(_leaf_ids(amb.frame)) == chunks
    assert holding(_leaf_ids(amb.frame_inv)) == chunks
    gauges = (verify.gauge_fields(sc, "gauge_theorem")
              + verify.gauge_fields(sc, "gauge_general"))
    axes = set()
    for gauge in gauges:
        theta, axis = _leaf_ids(gauge.theta), _leaf_ids(gauge.axis)
        assert holding(theta) == holding(theta | axis) == chunks
        axes |= axis
    # the gauge_theorem fields share the scene's normal axis; every gauge
    # field's tables are in the chunk's one gauge program
    assert sum(bool(axes & prog) for prog in programs) == chunks

    dets = [_leaf_ids(amb.frame_det)]
    for gauge in gauges:
        gamb = gaussmap.apply_gauge(amb, gauge)
        det = _leaf_ids(gamb.frame_det)
        dets.append(det)
        assert holding(det | _leaf_ids((gamb.g, gamb.gamma, gauge.theta))) == chunks
    assert not any(prog in dets for prog in programs)
    assert holding(_leaf_ids(amb.dg) | _leaf_ids(amb.frame)) == chunks
    comp = surf.gauss_exprs()
    uv = _variable_leaf_ids([comp[k] for k in ("d_gammaS", "dn_du", "dn_dv", "d_hopf")])
    assert holding(uv) == chunks
    assert sum(bool(uv & prog) for prog in programs) == chunks

    monkeypatch.setattr(scenes, "CHUNK", 24 * 24)
    programs.clear()
    verify.run_verification(sc, 24, 24)
    assert len(programs) == 5


@pytest.mark.parametrize("name, run, want", [
    # two chunks of 8192 samples, each: jets, base group, d_gammaS
    ("catenoid_frame_plane",
     lambda sc, path: scenes.export_fields(scenes.make_grid(sc, 128, 128), path), 6),
    # one chunk: jets, base group, d_gammaS
    ("round_sphere_standard",
     lambda sc, path: scenes.integrate(scenes.make_grid(sc, 24, 24), "K"), 3),
    # require_closed's probe of both edges in one base block (jets, base
    # group), then one chunk: jets, base group, (dn_du, dn_dv)
    ("round_sphere_standard",
     lambda sc, path: scenes.gauss_degree(scenes.make_grid(sc, 24, 24)), 5),
    # the same edge probe, then one chunk: jets, base group with dg, the
    # curvature block's dGamma, the composition tables and the gauge fields
    ("round_sphere_standard",
     lambda sc, path: verify.run_verification(sc, 24, 24), 7),
    # a scene build: jets, base group with dg, then the gauge and normal
    # axes; the base core is built from the base group that the guards read
    ("catenoid_frame_cylinder",
     lambda sc, path: scenes.builtin("catenoid_frame_cylinder"), 3),
], ids=["fields", "integrate", "gauss_degree", "verify", "build"])
def test_other_commands_evaluate_each_table_once_per_chunk(monkeypatch, tmp_path,
                                                           name, run, want):
    """fields, integrate K and gauss_degree, which evaluate their
    composition tables through SampleGrid.take alone, a verify of a
    closed polar chart and a scene build run one program per group of
    tables and chunk."""
    sc = _scene(name)
    monkeypatch.setattr(scenes, "CHUNK", 8192)
    programs = []
    evaluate = expr.eval_table

    def record(table, bindings):
        programs.append(table)
        return evaluate(table, bindings)

    monkeypatch.setattr(expr, "eval_table", record)
    run(sc, tmp_path / "f.csv")
    assert len(programs) == want


# each test id is the scene name alone, so a re-pinned count keeps its name
@pytest.mark.parametrize("name, programs, ops", [pytest.param(*pin, id=pin[0]) for pin in [
    ("cartan_schouten_sphere", 4, 179),
    ("catenoid_frame_cylinder", 5, 12178),
    ("catenoid_frame_plane", 5, 6884),
    ("euclidean_plane", 5, 1832),
    ("rotated_frame_plane", 5, 3784),
    ("round_sphere_standard", 7, 3281),
    ("torus_standard", 5, 3342),
]])
def test_verify_runs_pinned_programs_and_ops(monkeypatch, name, programs, ops):
    """A one-chunk 24x24 verify of each built-in runs exactly these
    compiled programs and ops (the ops of every program run, counted as
    expr._run receives them).  The expression DAGs are built in pure
    Python, so the counts do not depend on the platform: an op that the
    symbolic kit (so3) or a block adds or drops changes them."""
    sc = _scene(name)
    monkeypatch.setattr(scenes, "CHUNK", 8192)
    sizes = []
    run = expr._run

    def record(prog, bindings, outs):
        sizes.append(len(prog.kinds))
        return run(prog, bindings, outs)

    monkeypatch.setattr(expr, "_run", record)
    verify.run_verification(sc, 24, 24)
    assert (len(sizes), sum(sizes)) == (programs, ops)


def _program_digest(programs):
    """SHA-256 of the structure of a sequence of compiled programs: each
    op's kind, operand indices, output slots and variable or function name
    (a division's flag too), but not the values of constants, which the
    symbolic layer folds with libm and which could differ by platform."""
    h = hashlib.sha256()
    for prog in programs:
        for i, (kind, a, b, arg) in enumerate(zip(prog.kinds, prog.a, prog.b, prog.args)):
            h.update(repr((kind, a, b, None if kind == expr._CONST else arg,
                           prog.dests.get(i, ()))).encode())
        h.update(b";")
    return h.hexdigest()


_DIGESTS = {
    "cartan_schouten_sphere":
        "3bf896a850cba9ef53a6258459586a4c1476af4a66f42f1650418124fe0ab0f4",
    "catenoid_frame_cylinder":
        "62bd7ebac4300ed2369df8aa5635ef870201306f5e0a706859bf34a8239c7153",
    "catenoid_frame_plane":
        "59d4e3388929aa58baca33f9095d956d18ee6d8f3a18e3c799aeee938ab6384b",
    "euclidean_plane":
        "ca57fdc76bc79bb19fdae1b2ae5fe61024880b3a2e9c54c7863016714defa44b",
    "rotated_frame_plane":
        "55dbd3e0e2aef79410a22624b45cb5cb26cfe8c27d5fcac961e460039ac9a3e9",
    "round_sphere_standard":
        "ec4fc804fcd152131e25ec2bbc58bd0434c5374f6cfdee3c2e130b0471d5a14d",
    "torus_standard":
        "d4d1381ad5f8bdc92b8c68a8f55f43a11621c2dd2a7746f9936ed7b8a13879d7",
}


@pytest.mark.parametrize("name", sorted(_DIGESTS))
def test_verify_runs_pinned_program_structure(monkeypatch, name):
    """The programs a one-chunk 24x24 verify of each built-in runs, as
    expr._run receives them, have this structure: the op counts pinned
    above do not see how a symbolic sum associates (so3.sum_exprs folding
    from the right keeps every count), the digest does."""
    sc = _scene(name)
    monkeypatch.setattr(scenes, "CHUNK", 8192)
    programs = []
    run = expr._run

    def record(prog, bindings, outs):
        programs.append(prog)
        return run(prog, bindings, outs)

    monkeypatch.setattr(expr, "_run", record)
    verify.run_verification(sc, 24, 24)
    assert _program_digest(programs) == _DIGESTS[name]


# a fresh interpreter: build the scenes named on its command line, then print
# the digest of a one-chunk 24x24 verify of the cylinder
_DIGEST_SCRIPT = """
import sys
from rcsurf import expr, scenes, verify
from test_chunks import _program_digest
for name in sys.argv[1:]:
    scenes.builtin(name)
sc = scenes.builtin("catenoid_frame_cylinder")
scenes.CHUNK = 8192
programs, run = [], expr._run
expr._run = lambda prog, bindings, outs: programs.append(prog) or run(prog, bindings, outs)
verify.run_verification(sc, 24, 24)
print(_program_digest(programs))
"""


def test_pinned_digest_holds_for_any_hash_seed_and_build_order():
    """The cylinder's pinned digest comes out of fresh interpreters under
    the hash seeds 0 and 1, and after the other six built-ins were built
    first: the operand order of + and * comes from each node's structural
    key (expr.Expr.key), not from str hashes, ids or creation order."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(expr.__file__)), os.path.dirname(__file__)]))
    others = [n for n in scenes.builtin_names() if n != "catenoid_frame_cylinder"]
    for seed, first in (("0", []), ("1", []), ("0", others)):
        proc = subprocess.run([sys.executable, "-c", _DIGEST_SCRIPT, *first],
                              env=dict(env, PYTHONHASHSEED=seed), capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == _DIGESTS["catenoid_frame_cylinder"], (seed, first)


def test_chunks_cover_the_grid_in_order(monkeypatch):
    sc = _scene("catenoid_frame_plane")
    whole = scenes.make_grid(sc, 8, 8)
    (one,) = whole.chunks()
    assert one.offset == 0
    for name in ("U", "V", "weights"):
        assert np.array_equal(getattr(one, name), getattr(whole, name))
    monkeypatch.setattr(scenes, "CHUNK", 20)
    grid = scenes.make_grid(sc, 8, 8)
    parts = list(grid.chunks())
    assert [p.offset for p in parts] == [0, 20, 40, 60]
    assert np.array_equal(np.concatenate([p.U for p in parts]), grid.U)
    assert np.array_equal(np.concatenate([p.V for p in parts]), grid.V)
    assert np.array_equal(np.concatenate([p.weights for p in parts]), grid.weights)
    mask = np.concatenate([p.interior_mask for p in parts])
    assert np.array_equal(mask, whole.interior_mask)
    assert all((p.nu, p.nv) == (grid.nu, grid.nv) for p in parts)


def _torsion_plane(lam):
    """The plane z = 0 in flat space with the metric connection
    Gamma^k_ij = lam(x) eps_ijk (the Cartan-Schouten form with a varying
    lambda), as a scene."""
    eps = {(0, 1, 2): "", (1, 2, 0): "", (2, 0, 1): "",
           (0, 2, 1): "-", (2, 1, 0): "-", (1, 0, 2): "-"}
    gamma = [[[f"{eps[i, j, k]}({lam})" if (i, j, k) in eps else "0"
               for j in range(3)] for i in range(3)] for k in range(3)]
    return scenes.build_scene({
        "name": "torsion_plane",
        "ambient": {"type": "coefficients",
                    "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                    "Gamma": gamma},
        "surface": {"X": ["u", "v", "0"], "domain": [[0.0, 1.0], [0.0, 1.0]]},
    })


def test_flatness_is_a_whole_grid_verdict(monkeypatch):
    """The ambient curvature is within AMBIENT_FLAT_TOL on the last rows
    only: egregium is skipped as on one chunk, though the last chunk alone
    looks flat."""
    sc = _torsion_plane("1e-4*(1 - x)^8")
    want = verify.run_verification(sc, 8, 8)
    assert {e["name"]: e for e in want.entries}["egregium"]["status"] == "skip"
    monkeypatch.setattr(scenes, "CHUNK", 16)
    last = list(scenes.make_grid(sc, 8, 8).chunks())[-1]
    assert np.max(np.abs(last.curvature["r4"])) <= 1e-9
    assert verify.run_verification(sc, 8, 8).to_json() == want.to_json()


def test_partly_isothermal_chart_exports_blank_hopf_columns(tmp_path, monkeypatch):
    """X = (u, v, 0.001 u^3) is isothermal to 1e-8 only for u < 0.18 and is
    not declared isothermal: the first chunk's Hopf block is finite, yet
    every row is blank, as on one chunk."""
    sc = scenes.build_scene({
        "name": "cubic_graph",
        "ambient": {"type": "frame",
                    "F": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
        "surface": {"X": ["u", "v", "0.001*u^3"], "domain": [[0.0, 1.0], [0.0, 1.0]]},
    })
    want, got = tmp_path / "one.csv", tmp_path / "chunked.csv"
    scenes.export_fields(scenes.make_grid(sc, 8, 8), want)
    monkeypatch.setattr(scenes, "CHUNK", 16)
    grid = scenes.make_grid(sc, 8, 8)
    first = next(grid.chunks())
    assert np.all(np.isfinite(first.holo["phi"]))
    scenes.export_fields(grid, got)
    assert got.read_bytes() == want.read_bytes()
    cols = scenes.EXPORT_COLUMNS
    for line in got.read_text(encoding="utf-8").splitlines()[1:]:
        cells = line.split(",")
        assert cells[cols.index("abs_phi")] == cells[cols.index("abs_psi")] == "nan"


def test_not_isothermal_names_the_first_bad_sample(tmp_path, monkeypatch):
    """X = (u, v, 0.001 u^3) declared isothermal fails from u > 0.18 on,
    past the first chunk of 16 samples: verify and fields name the first
    such sample in grid order by its (u, v), whatever the chunk size."""
    doc = {"name": "cubic_graph",
           "ambient": {"type": "frame",
                       "F": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
           "surface": {"X": ["u", "v", "0.001*u^3"], "domain": [[0.0, 1.0], [0.0, 1.0]],
                       "isothermal": True}}
    sc = scenes.build_scene(doc)
    grid = scenes.make_grid(sc, 8, 8)
    E = 1.0 + (0.003 * grid.U ** 2) ** 2
    first = int(np.argmax(np.abs(E - 1.0) > 1e-8 * E))
    assert first >= 16
    runs = {
        "verify": lambda: verify.run_verification(sc, 8, 8),
        "fields": lambda: scenes.export_fields(scenes.make_grid(sc, 8, 8),
                                               tmp_path / "f.csv"),
    }
    for chunk in (scenes.CHUNK, 16):
        monkeypatch.setattr(scenes, "CHUNK", chunk)
        for name, run in runs.items():
            with pytest.raises(NotIsothermal) as err:
                run()
            assert (err.value.u, err.value.v) == (grid.U[first], grid.V[first]), name
            assert err.value.sample == first, name
            text = str(err.value)
            assert text.startswith("surface.isothermal: chart is not isothermal: E="), name
            assert text.endswith(f" at sample {first} (u={float(grid.U[first])!r}, "
                                 f"v={float(grid.V[first])!r})"), name
        assert not (tmp_path / "f.csv").exists()


def test_non_finite_sample_is_named_by_its_grid_index(tmp_path, monkeypatch):
    """Gamma overflows on the last row only (sample 56 of 64), which lies in
    the third chunk of 20 samples: every reader names sample 56."""
    sc = _torsion_plane("exp(40000*(x - 0.95))")
    grid = scenes.make_grid(sc, 8, 8)
    u, v = float(grid.U[56]), float(grid.V[56])
    runs = {
        "verify": lambda: verify.run_verification(sc, 8, 8),
        "fields": lambda: scenes.export_fields(scenes.make_grid(sc, 8, 8),
                                               tmp_path / "f.csv"),
        "integrate": lambda: scenes.integrate(scenes.make_grid(sc, 8, 8), "one"),
    }
    for chunk in (scenes.CHUNK, 20):
        monkeypatch.setattr(scenes, "CHUNK", chunk)
        for name, run in runs.items():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(NonFiniteValue) as err:
                    run()
            assert err.value.path == "base.gamma", name
            assert err.value.sample == 56, name
            assert str(err.value) == (f"base.gamma: non-finite value at sample 56 "
                                      f"(u={u!r}, v={v!r})"), name
        assert not (tmp_path / "f.csv").exists()


# exp(-_STEP) is 1 to the last bit at the scene build's probe (x at most
# 5/6) and 0 on the last row of an 8x8 grid over the unit square (x = 0.98,
# samples 56 to 63), so each scene below passes the build and fails on the
# grid, in the third chunk of 20 samples
_STEP = "exp(1000*(x - 0.95))"
_OFF = f"(1 - exp(-{_STEP}))"


def _plane(ambient=None, chart_domain=None, X=("u", "v", "0"), **top):
    ambient = ambient or {"type": "frame",
                          "F": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}
    if chart_domain:
        ambient["chart_domain"] = chart_domain
    return scenes.build_scene({
        "name": "plane", "ambient": ambient,
        "surface": {"X": list(X), "domain": [[0.0, 1.0], [0.0, 1.0]]}, **top})


def _verify(*suites):
    return lambda sc: verify.run_verification(sc, 8, 8, suites=list(suites) or None)


def _validate(sc):
    """The ambient's build-time guards run on each chunk of the grid."""
    grid = scenes.make_grid(sc, 8, 8)
    return list(grid.map_chunks(lambda part: sc.ambient.validate(part.base["p"])))


@pytest.mark.parametrize("scene, run, text", [
    (lambda: _plane({"type": "frame", "F": [["1", "0", "0"], ["0", "1", "0"],
                                            ["0", "0", "0.9 - x"]]}),
     _verify(), "ambient.F: frame is negatively oriented"),
    (lambda: _plane(chart_domain={"x": [-1.0, 0.9]}), _verify(),
     "ambient.chart_domain.x: x = 0.9801449282487681 outside [-1.0, 0.9]"),
    (lambda: _plane({"type": "coefficients",
                     "g": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]],
                     "Gamma": [[[_STEP if i == j == k == 0 else "0" for j in range(3)]
                                for i in range(3)] for k in range(3)]}),
     _validate, "ambient.Gamma: metric compatibility residual "),
    (lambda: _plane(X=("u", "v*exp(-exp(1000*(u - 0.95)))", "0")), _verify(),
     "surface.X: tangents linearly dependent (area density below 1e-9)"),
    (lambda: _plane(gauge={"theta": "0.3*x", "axis": ["0", "0", f"1 + {_STEP}"]}),
     _verify("gauge"), "gauge.axis: gauge axis is not unit on the surface"),
    (lambda: _plane(normal_axis=[f"sin{_OFF}", "0", f"cos{_OFF}"]),
     _verify("gauge"), "normal_axis: gauge axis differs from the Gauss map on S"),
], ids=["SingularFrame", "OutsideChart", "IncompatibleConnection",
        "DegenerateParameterization", "NonUnitAxis", "AxisNotNormal"])
def test_every_guard_names_its_grid_sample(monkeypatch, scene, run, text):
    """A guard that fails on the grid past the first chunk names its scene
    path, its grid index and its (u, v), whatever the chunk size; the
    scene build's probe passes.  NotIsothermal and NonFiniteValue are
    checked the same way above."""
    sc = scene()
    grid = scenes.make_grid(sc, 8, 8)
    where = f" at sample 56 (u={float(grid.U[56])!r}, v={float(grid.V[56])!r})"
    for chunk in (scenes.CHUNK, 20):
        monkeypatch.setattr(scenes, "CHUNK", chunk)
        with pytest.raises(RcsurfError) as err:
            run(sc)
        assert str(err.value).startswith(text), chunk
        assert str(err.value).endswith(where), chunk
        assert err.value.sample == 56, chunk


def _traced_peaks(run, sizes):
    """The traced peak of run(n) for each n in sizes, after one run at the
    first size has compiled every program."""
    run(sizes[0])
    peaks = []
    tracemalloc.start()
    try:
        for n in sizes:
            tracemalloc.reset_peak()
            run(n)
            peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peaks


def test_verify_memory_is_set_by_the_chunk(monkeypatch, tmp_path):
    """With 144-sample chunks, four times the samples (48x48 against 24x24)
    raise the traced peak of a verify, a fields and an integrate run by
    less than half: the grid's chunks bound the memory, and no layer below
    them streams."""
    monkeypatch.setattr(scenes, "CHUNK", 144)
    sc = _scene("cartan_schouten_sphere")
    runs = {
        "verify": lambda n: verify.run_verification(sc, n, n),
        "fields": lambda n: scenes.export_fields(scenes.make_grid(sc, n, n),
                                                 tmp_path / "f.csv"),
        "integrate": lambda n: scenes.integrate(scenes.make_grid(sc, n, n), "K"),
    }
    for name, run in runs.items():
        peaks = _traced_peaks(run, (24, 48))
        assert peaks[1] < 1.5 * peaks[0], (name, peaks)


@pytest.mark.parametrize("name, run", [
    ("cartan_schouten_sphere", lambda sc, n, path: verify.run_verification(sc, n, n)),
    ("catenoid_frame_plane",
     lambda sc, n, path: scenes.export_fields(scenes.make_grid(sc, n, n), path)),
], ids=["verify", "fields"])
def test_default_chunk_bounds_a_128_grid(tmp_path, name, run):
    """At the default scenes.CHUNK, a 128x128 run (16,384 samples) peaks
    below 1.3 times the same run at 64x64 (4,096 samples, one chunk): the
    default chunk is no larger than a 64x64 grid, so four times the samples
    add only what grows with the grid: its sample arrays and the buffers
    that carry per-sample values across chunks."""
    sc = _scene(name)
    peaks = _traced_peaks(lambda n: run(sc, n, tmp_path / "f.csv"), (64, 128))
    assert peaks[1] < 1.3 * peaks[0], peaks


@pytest.mark.parametrize("run", [
    lambda sc, path: verify.run_verification(sc, 8, 8),
    lambda sc, path: scenes.export_fields(scenes.make_grid(sc, 8, 8), path),
    lambda sc, path: scenes.integrate(scenes.make_grid(sc, 8, 8), "K"),
    lambda sc, path: scenes.gauss_degree(scenes.make_grid(sc, 8, 8)),
], ids=["verify", "fields", "integrate", "gauss_degree"])
def test_no_program_sees_more_than_a_chunk(monkeypatch, tmp_path, run):
    """On a grid of three chunks (64 samples in chunks of 24), no
    expression program that verify, fields, integrate or gauss_degree runs
    sees more than one chunk of samples: the grid is the only layer that
    streams, and eval_table runs each program once over what it is given."""
    monkeypatch.setattr(scenes, "CHUNK", 24)
    sc = _scene("round_sphere_standard")
    assert len(list(scenes.make_grid(sc, 8, 8).chunks())) == 3
    sizes = []
    evaluate = expr.eval_table

    def record(table, bindings):
        sizes.append(max(np.size(v) for v in bindings.values()))
        return evaluate(table, bindings)

    monkeypatch.setattr(expr, "eval_table", record)
    run(sc, tmp_path / "f.csv")
    assert sizes and max(sizes) <= scenes.CHUNK, sizes


def test_a_repeated_run_compiles_no_program():
    """A second verify of the same scene, and a verify of a freshly built
    copy, compile no new program: expressions are interned, so the gauged
    ambients that each run composes anew hold the same nodes, and their
    programs are found in expr._programs."""
    name = "catenoid_frame_cylinder"
    verify.run_verification(_scene(name), 8, 8)
    compiled = len(expr._programs)
    verify.run_verification(_scene(name), 8, 8)
    assert len(expr._programs) == compiled
    verify.run_verification(scenes.builtin(name), 8, 8)
    assert len(expr._programs) == compiled
