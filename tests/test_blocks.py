"""Blocks hold only what their readers read: no block keeps the torsion
tensor, and base's B and Binv and ext's W_on and III are formed only when
read (surface.Block), each with the expression and the finiteness guard it
had when every block formed it."""

import numpy as np
import pytest

from rcsurf import gaussmap, scenes, surface, verify
from rcsurf.errors import IncompatibleConnection, NonFiniteValue

LAZY = ("B", "Binv", "W_on", "III")

# resident bytes per sample of a base block: 1,136 on the frame built-ins and
# 992 on cartan_schouten_sphere while the block kept the torsion tensor (216),
# B and Binv (32 each)
BASE_BYTES = {name: 856 for name in scenes.builtin_names()}
BASE_BYTES["cartan_schouten_sphere"] = 712


def _grid(name, n=24):
    return scenes.make_grid(scenes.builtin(name), n, n)


@pytest.fixture
def formed(monkeypatch):
    """The names of the lazy fields read from any block while it is active,
    in order."""
    names = []
    missing = surface.Block.__missing__

    def spy(block, key):
        names.append(key)
        return missing(block, key)

    monkeypatch.setattr(surface.Block, "__missing__", spy)
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


@pytest.mark.parametrize("run, names", [
    (lambda tmp: verify.run_verification(scenes.builtin("catenoid_frame_cylinder"), 24, 24),
     ["III", "W_on", "B", "Binv"]),
    (lambda tmp: scenes.export_fields(_grid("catenoid_frame_plane"), tmp / "f.csv"),
     ["III", "W_on", "B", "Binv"]),
    (lambda tmp: scenes.integrate(_grid("catenoid_frame_plane"), "abs_psi"), ["III"]),
], ids=["verify-cylinder", "fields-plane", "integrate-abs_psi"])
def test_readers_form_each_lazy_field_once_per_chunk(formed, tmp_path, run, names):
    """A run forms a lazy field only for its reader, once per chunk: the
    holo block reads III, classify reads W_on, and W_on reads B, then
    Binv."""
    run(tmp_path)
    assert formed == names


@pytest.mark.parametrize("name", scenes.builtin_names())
def test_lazy_fields_are_the_expressions_they_were(name):
    """Each lazy field equals, bit for bit, the expression that formed it
    when every block held it."""
    ext = _grid(name).ext
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
    for key, value in want.items():
        got = ext[key]
        assert got.dtype == value.dtype and got.shape == value.shape, key
        assert got.tobytes() == value.tobytes(), (name, key)
    assert ext["B"].tobytes() == _grid(name).base["B"].tobytes()


@pytest.mark.parametrize("key, spoil, path", [
    ("B", ("E", -1.0), "base.B"),
    ("Binv", ("E", -1.0), "base.Binv"),
    ("W_on", ("E", -1.0), "base.B"),           # W_on reads B before Binv
    ("W_on", ("W", np.nan), "ext.W_on"),
    ("III", ("W", np.inf), "ext.III"),
])
def test_a_non_finite_lazy_field_raises_under_its_path(key, spoil, path):
    """A forced non-finite value raises NonFiniteValue under the path the
    field was checked under when every block formed it, at its first bad
    sample."""
    ext = _grid("catenoid_frame_cylinder", 8).ext
    field, value = spoil
    ext[field] = ext[field].copy()
    for i in (13, 40):
        ext[field][i] = value
    with np.errstate(invalid="ignore"), pytest.raises(NonFiniteValue) as err:
        ext[key]
    assert (err.value.path, err.value.sample) == (path, 13)


def test_a_block_without_the_name_raises_key_error():
    with pytest.raises(KeyError):
        _grid("euclidean_plane", 8).base["W_on"]


def test_indefinite_metric_on_the_grid_is_named():
    """A metric that is positive definite at the build's probe points but
    not on the whole surface (diag(h, h, 1), h = 1 - 3x^8 < 0 past
    x = 0.872) stops every command at the first such sample, as B's guard
    did when every base block formed B."""
    doc = scenes.builtin("cartan_schouten_sphere").to_dict()
    for key in ("closed", "euler_characteristic", "goldens"):
        del doc[key]
    doc["surface"].update(X=["u", "v", "0"], domain=[[0.0, 1.0], [0.0, 1.0]])
    h = "(1 - 3*x^8)"
    doc["ambient"]["g"] = [[h, "0", "0"], ["0", h, "0"], ["0", "0", "1"]]
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    c = f"(-12*x^7/{h})"        # the Levi-Civita connection of that metric
    gamma[0][0][0] = gamma[1][0][1] = gamma[1][1][0] = c
    gamma[0][1][1] = f"(-1)*{c}"
    doc["ambient"]["Gamma"] = gamma
    grid = scenes.make_grid(scenes.build_scene(doc), 16, 16)
    with pytest.raises(IncompatibleConnection) as err:
        grid.collect(lambda part: {"area": part.base["area"]})
    first = int(np.argmax(grid.U > 3.0 ** -0.125))
    assert (err.value.path, err.value.sample) == ("ambient.g", first)
    assert str(err.value).startswith("ambient.g: metric not positive definite on the surface")
