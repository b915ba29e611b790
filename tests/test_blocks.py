"""Blocks hold only what their readers read: no block keeps the torsion
tensor, and B and Binv (surface.orthonormal_frame), W_on
(extrinsic.weingarten_on) and III (extrinsic.third_form) are formed by
their one reader each, with the expression and the finiteness guard each
had when every block held it.  The grid checks the metric at every sample
as the scene build's probe does, and a library call that meets a
non-finite value raises its typed error with no numpy warning first."""

import warnings

import numpy as np
import pytest

from rcsurf import extrinsic, gaussmap, scenes, surface, verify
from rcsurf.errors import ExprError, IncompatibleConnection, NonFiniteValue

LAZY = ("B", "Binv", "W_on", "III")
# the function that forms each field of LAZY, by the name the spy records
FORM = {"B": surface.orthonormal_frame, "Binv": surface.orthonormal_frame,
        "W_on": extrinsic.weingarten_on, "III": extrinsic.third_form}

# resident bytes per sample of a base block: 1,136 on the frame built-ins and
# 992 on cartan_schouten_sphere while the block kept the torsion tensor (216),
# B and Binv (32 each)
BASE_BYTES = {name: 856 for name in scenes.builtin_names()}
BASE_BYTES["cartan_schouten_sphere"] = 712


def _grid(name, n=24):
    return scenes.make_grid(scenes.builtin(name), n, n)


@pytest.fixture
def formed(monkeypatch):
    """The names of the functions that form a field of LAZY, each time one
    is called while the fixture is active, in order."""
    names = []
    for module, name in ((surface, "orthonormal_frame"), (extrinsic, "weingarten_on"),
                         (extrinsic, "third_form")):
        def spy(block, form=getattr(module, name), name=name):
            names.append(name)
            return form(block)

        monkeypatch.setattr(module, name, spy)
    return names


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_base_block_keeps_no_torsion_and_few_bytes(name):
    g = _grid(name)
    base = g.base
    assert "torsion" not in base and not set(LAZY) & set(base)
    per_sample = sum(a.nbytes for a in base.values()) / g.U.shape[0]
    assert per_sample <= BASE_BYTES[name], per_sample


def test_gauged_blocks_keep_no_torsion(monkeypatch):
    """The lean gauged blocks of both gauge entries hold no torsion tensor."""
    keys = []
    first_order = gaussmap.first_order

    def record(block, jets, tables):
        out = first_order(block, jets, tables)
        keys.append(set(out))
        return out

    monkeypatch.setattr(gaussmap, "first_order", record)
    report = verify.run_verification(scenes.builtin("catenoid_frame_plane"), 12, 12,
                                     suites=["gauge"])
    assert report.passed
    assert len(keys) == 4           # two gauge_theorem and two gauge_general fields
    assert not any("torsion" in k for k in keys)


def test_sphere_verify_forms_no_lazy_field(formed):
    """cartan_schouten_sphere reads neither W_on (no conformality suite on
    a coefficient ambient) nor III (its chart is not isothermal), so its
    verify never forms them, nor B and Binv."""
    report = verify.run_verification(scenes.builtin("cartan_schouten_sphere"), 24, 24)
    assert report.passed
    assert formed == []


ALL = ["third_form", "weingarten_on", "orthonormal_frame"]


@pytest.mark.parametrize("run, names", [
    (lambda tmp: verify.run_verification(scenes.builtin("catenoid_frame_cylinder"), 24, 24),
     ALL),
    (lambda tmp: scenes.export_fields(_grid("catenoid_frame_plane"), tmp / "f.csv"), ALL),
    (lambda tmp: scenes.integrate(_grid("catenoid_frame_plane"), "abs_psi"), ["third_form"]),
    (lambda tmp: scenes.integrate(_grid("catenoid_frame_plane", 96), "abs_psi"),
     ["third_form"] * 3),
], ids=["verify-cylinder", "fields-plane", "integrate-abs_psi", "integrate-abs_psi-3-chunks"])
def test_readers_form_each_lazy_field_once_per_chunk(formed, tmp_path, run, names):
    """A run forms a field only for its reader, once per chunk: the holo
    block forms III, classify forms W_on, and W_on forms B and Binv."""
    run(tmp_path)
    assert formed == names


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_lazy_fields_are_the_expressions_they_were(name):
    """Each field of LAZY equals, bit for bit, the expression that formed
    it when every block held it, from base and from ext alike."""
    grid = _grid(name)
    ext = grid.ext
    E, F, G = ext["E"], ext["F"], ext["G"]
    det2 = E * G - F * F
    sqrtE, s = np.sqrt(E), np.sqrt(det2 / E)
    B = np.zeros_like(ext["G_S"])
    B[:, 0, 0] = 1.0 / sqrtE
    B[:, 0, 1] = -F / (E * s)
    B[:, 1, 1] = 1.0 / s
    Binv = np.zeros_like(B)
    Binv[:, 0, 0] = sqrtE
    Binv[:, 0, 1] = F / sqrtE
    Binv[:, 1, 1] = s
    W = ext["W"]
    want = {"B": B, "Binv": Binv, "W_on": Binv @ W @ B,
            "III": np.einsum("nra,nrs,nsb->nab", W, ext["G_S"], W)}
    got = dict(zip(("B", "Binv"), surface.orthonormal_frame(ext)),
               W_on=extrinsic.weingarten_on(ext), III=extrinsic.third_form(ext))
    for key, value in want.items():
        assert got[key].dtype == value.dtype and got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), (name, key)
    for a, b in zip(surface.orthonormal_frame(grid.base), (B, Binv)):
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("key, spoil, path", [
    ("B", ("E", -1.0), "base.B"),
    ("Binv", ("G", np.inf), "base.Binv"),     # B stays finite: s = inf
    ("W_on", ("E", -1.0), "base.B"),           # B is checked before Binv
    ("W_on", ("W", np.nan), "ext.W_on"),
    ("III", ("W", np.inf), "ext.III"),
])
def test_a_non_finite_lazy_field_raises_under_its_path(key, spoil, path):
    """A forced non-finite value raises NonFiniteValue under the path the
    field was checked under when every block held it, at its first bad
    sample."""
    ext = _grid("catenoid_frame_cylinder", 8).ext
    field, value = spoil
    ext[field] = ext[field].copy()
    for i in (13, 40):
        ext[field][i] = value
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue) as err:
        FORM[key](ext)
    assert (err.value.path, err.value.sample) == (path, 13)


def test_a_block_without_the_name_raises_key_error():
    """No block holds a field of LAZY."""
    grid = _grid("catenoid_frame_plane", 8)
    for block in (grid.base, grid.ext, grid.holo):
        assert type(block) is dict and not set(LAZY) & set(block)
        with pytest.raises(KeyError):
            block["W_on"]


def _plane(g, gamma):
    """The unit-square plane X = (u, v, 0) in the coefficient ambient g,
    gamma (text entries)."""
    doc = scenes.builtin("cartan_schouten_sphere").to_dict()
    for key in ("closed", "euler_characteristic", "goldens"):
        del doc[key]
    doc["surface"].update(X=["u", "v", "0"], domain=[[0.0, 1.0], [0.0, 1.0]])
    doc["ambient"].update(g=g, Gamma=gamma)
    return scenes.build_scene(doc)


def _metric_scenes():
    """(scene, text, the first bad sample as a function of the grid's U)
    for metrics that the build's probe points (u, v up to 5/6) accept but
    that fail on the grid: diag(h, h, 1), diag(1, 1, h) and diag(1, h, 1)
    with h = 1 - 3x^8 < 0 past x = 0.872, each with its Levi-Civita
    connection, and the identity with g[1][0] = exp(400 (x - 0.95)) and
    Gamma = 0, asymmetric past 1e-12 from x = 0.881."""
    h = "(1 - 3*x^8)"
    c = f"(-12*x^7/{h})"        # h' / (2 h)

    def metric(*diag):
        return [[diag[i] if i == j else "0" for j in range(3)] for i in range(3)]

    def gamma(*entries):
        out = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
        for (k, i, j), text in entries:
            out[k][i][j] = text
        return out

    def indefinite(U):
        return int(np.argmax(U > 3.0 ** -0.125))

    pd_text = "metric not positive definite on the surface"
    yield (_plane(metric(h, h, "1"), gamma(((0, 0, 0), c), ((1, 0, 1), c), ((1, 1, 0), c),
                                           ((0, 1, 1), f"(-1)*{c}"))),
           lambda U: pd_text, indefinite)
    yield (_plane(metric("1", "1", h), gamma(((2, 0, 2), c), ((2, 2, 0), c),
                                             ((0, 2, 2), "12*x^7"))),
           lambda U: pd_text, indefinite)
    yield (_plane(metric("1", h, "1"), gamma(((1, 0, 1), c), ((1, 1, 0), c),
                                             ((0, 1, 1), "12*x^7"))),
           lambda U: pd_text, indefinite)
    asym = metric("1", "1", "1")
    asym[1][0] = "exp(400*(x - 0.95))"

    def first_asym(U):
        return int(np.argmax(np.exp(400.0 * (U - 0.95)) > 1e-12))

    yield (_plane(asym, gamma()),
           lambda U: f"metric not symmetric (deviation "
                     f"{np.exp(400.0 * (U[first_asym(U)] - 0.95)):.3e})",
           first_asym)


def test_indefinite_metric_on_the_grid_is_named(tmp_path):
    """A metric that is positive definite and symmetric at the build's probe
    points but not on the whole surface stops verify, fields and integrate
    at its first such sample, naming ambient.g, before any numpy warning
    and before the chart's guards."""
    for scene, text, first in _metric_scenes():
        for run in (lambda grid: verify.run_verification(scene, 16, 16),
                    lambda grid: scenes.export_fields(grid, tmp_path / "f.csv"),
                    lambda grid: scenes.integrate(grid, "H")):
            grid = scenes.make_grid(scene, 16, 16)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(IncompatibleConnection) as err:
                    run(grid)
            i = first(grid.U)
            assert (err.value.path, err.value.sample) == ("ambient.g", i)
            assert str(err.value).startswith(f"ambient.g: {text(grid.U)} at sample {i}")
            assert not (tmp_path / "f.csv").exists()


def test_library_calls_raise_only_the_typed_error(tmp_path):
    """g[2][2] = exp(1000 (x - 0.2)), with its Levi-Civita connection, on
    the unit-square plane is finite at the build's probe points (x up to
    5/6) and overflows on the grid past x = 0.91.  With every warning an
    error, the build passes, and verify, fields and integrate stop at
    base.g's first overflowing sample: each library entry point runs under
    the np.errstate of cli.main, so no numpy floating-point warning comes
    first.  So does a built-in whose parameter folds to an overflowing
    constant."""
    h = "exp(1000*(x - 0.2))"
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][2][2] = f"-500*{h}"
    gamma[2][0][2] = gamma[2][2][0] = "500"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scene = _plane([["1", "0", "0"], ["0", "1", "0"], ["0", "0", h]], gamma)
        for run in (lambda grid: verify.run_verification(scene, 16, 16),
                    lambda grid: scenes.export_fields(grid, tmp_path / "f.csv"),
                    lambda grid: scenes.integrate(grid, "H")):
            grid = scenes.make_grid(scene, 16, 16)
            with pytest.raises(NonFiniteValue) as err:
                run(grid)
            assert str(err.value).startswith("base.g: non-finite value at sample 208 (u=")
            assert not (tmp_path / "f.csv").exists()
        with pytest.raises(ExprError, match=r"^params\.theta: constant inf is not finite$"):
            scenes.builtin("rotated_frame_plane", theta="exp(1000)*x")


def test_base_keeps_gamma_only_for_the_curvature_block(monkeypatch, tmp_path):
    """Base's Gamma (27 doubles a sample) has one reader after base, the
    curvature block: a chunk's base drops it once that block is formed,
    and keeps none under a plan that names no curvature part, as
    export_fields, integrate and gauss_degree plan their chunks."""
    grid = _grid("round_sphere_standard", 8)
    assert "gamma" in grid.base
    grid.curvature
    assert "gamma" not in grid.base
    grid = _grid("round_sphere_standard", 8)
    grid.reads = frozenset({"compat", "d_gammaS"})
    assert "gamma" not in grid.base and "compat" in grid.base
    plans = []
    chunks = scenes.SampleGrid.chunks

    def record(self, reads=None):
        for part in chunks(self, reads):
            plans.append(part.reads)
            yield part

    monkeypatch.setattr(scenes.SampleGrid, "chunks", record)
    scenes.export_fields(_grid("round_sphere_standard", 8), tmp_path / "f.csv")
    scenes.integrate(_grid("round_sphere_standard", 8), "K")
    scenes.gauss_degree(_grid("round_sphere_standard"))
    assert plans == [frozenset()] * 3
