import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rcsurf
from rcsurf import cli, expr, scenes, verify
from rcsurf.surface import induced_connection
from rcsurf.errors import (
    ExprError, IoError, SceneFormatError, SingularFrame, UndefinedField, UnknownScene,
)


def test_builtin_names_and_provenance():
    names = scenes.builtin_names()
    for expected in ("euclidean_plane", "rotated_frame_plane", "catenoid_frame_plane",
                     "catenoid_frame_cylinder", "cartan_schouten_sphere",
                     "round_sphere_standard", "torus_standard"):
        assert expected in names
        assert scenes.builtin_provenance(expected)


def test_unknown_builtin():
    with pytest.raises(UnknownScene):
        scenes.builtin("klein_bottle_standard")


def test_save_load_round_trip(tmp_path, rng):
    for name in scenes.builtin_names():
        sc = scenes.builtin(name)
        path = tmp_path / f"{name}.rcscene"
        scenes.save_scene(sc, path)
        sc2 = scenes.load_scene(path)
        (u0, u1), (v0, v1) = sc.surface.domain
        U = rng.uniform(u0 + 0.1, u1 - 0.1, size=100)
        V = rng.uniform(v0 + 0.1, v1 - 0.1, size=100)
        b1 = sc.surface.base_fields(U, V)
        b2 = sc2.surface.base_fields(U, V)
        b1["gammaS"], b2["gammaS"] = induced_connection(b1), induced_connection(b2)
        for key in ("p", "N", "II", "gammaS"):
            assert np.array_equal(b1[key], b2[key]), (name, key)


def test_missing_surface_x():
    doc = scenes.builtin("euclidean_plane").to_dict()
    del doc["surface"]["X"]
    with pytest.raises(SceneFormatError) as err:
        scenes.build_scene(doc)
    assert err.value.path == "surface.X"
    assert "required" in str(err.value)


def test_expression_error_carries_location():
    doc = scenes.builtin("euclidean_plane").to_dict()
    doc["surface"]["X"][0] = "u + *v"
    with pytest.raises(SceneFormatError) as err:
        scenes.build_scene(doc)
    assert err.value.path == "surface.X[0]"
    assert "column" in str(err.value)


def test_unknown_ambient_variable_rejected():
    doc = scenes.builtin("euclidean_plane").to_dict()
    doc["ambient"]["F"][0][0] = "1 + w"
    with pytest.raises(SceneFormatError) as err:
        scenes.build_scene(doc)
    assert "ambient.F[0][0]" == err.value.path


@pytest.mark.parametrize("section, key, value, path", [
    ("surface", "periodic", "no", "surface.periodic"),
    ("surface", "periodic", [True], "surface.periodic"),
    ("surface", "periodic", [1, 0], "surface.periodic"),
    ("surface", "isothermal", "false", "surface.isothermal"),
    (None, "closed", "false", "closed"),
])
def test_non_boolean_flags_rejected(tmp_path, capsys, section, key, value, path):
    doc = scenes.builtin("euclidean_plane").to_dict()
    (doc[section] if section else doc)[key] = value
    with pytest.raises(SceneFormatError) as err:
        scenes.build_scene(doc)
    assert err.value.path == path
    scene_path = tmp_path / "bad.rcscene"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", "--scene", str(scene_path), "--grid", "8x8"]) == 2
    assert path in capsys.readouterr().err


def test_lazy_metric_derivative_build_names_the_metric():
    """g_22 = 1 + 1e200*z*1e200 is 1 on the plane z = 0, but its
    z-derivative, which the build's metric-compatibility guard reads from
    the lazily built dg, folds 1e200*1e200 to inf: the error names
    ambient.g."""
    doc = scenes.builtin("cartan_schouten_sphere").to_dict()
    doc["surface"].update(X=["u", "v", "0"], domain=[[0.0, 1.0], [0.0, 1.0]])
    doc["ambient"]["g"][2][2] = "1 + 1e200*z*1e200"
    with pytest.raises(ExprError) as err:
        scenes.build_scene(doc)
    assert str(err.value) == "ambient.g: constant inf is not finite"


def test_singular_frame_scene_rejected():
    doc = scenes.builtin("euclidean_plane").to_dict()
    doc["ambient"]["F"][2][2] = "z"     # vanishes on the surface z = 0
    with pytest.raises(SingularFrame):
        scenes.build_scene(doc)


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.rcscene"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(SceneFormatError):
        scenes.load_scene(path)
    with pytest.raises(IoError):
        scenes.load_scene(tmp_path / "missing.rcscene")


def test_grid_axes_and_ordering():
    sc = scenes.builtin("catenoid_frame_plane")
    g = scenes.make_grid(sc, 8, 8)
    assert g.nu == 8 and g.nv == 8
    # periodic u axis: uniform nodes starting at the left edge
    assert g.u_nodes[0] == 0.0
    assert np.allclose(np.diff(g.u_nodes), 2 * math.pi / 8)
    # non-periodic v axis: Gauss-Legendre nodes strictly inside
    assert g.v_nodes[0] > -2.0 and g.v_nodes[-1] < 2.0
    # row-major order: flat index = iu * nv + iv
    assert np.array_equal(g.U[:8], np.full(8, g.u_nodes[0]))
    assert np.array_equal(g.V[:8], g.v_nodes)


def test_integrate_unit_square_area():
    sc = scenes.builtin("euclidean_plane")
    g = scenes.make_grid(sc, 8, 8)
    assert scenes.integrate(g, "one") == pytest.approx(1.0, abs=1e-14)


def test_integrate_round_sphere_area():
    sc = scenes.builtin("round_sphere_standard")
    g = scenes.make_grid(sc, 32, 64)
    assert scenes.integrate(g, "one") == pytest.approx(4 * math.pi, rel=1e-6)


def test_integrate_torus_area():
    sc = scenes.builtin("torus_standard")       # R = 2, r = 0.5
    g = scenes.make_grid(sc, 24, 24)
    assert scenes.integrate(g, "one") == pytest.approx(4 * math.pi ** 2, rel=1e-10)


def test_torus_takes_a_negative_tube_radius():
    """R > |r| > 0 is the torus range (test_cli_bad_rotation_axis_is_input_error
    has the cases outside it): r = -0.5 is the same torus with the opposite
    orientation, and every suite passes on it."""
    sc = scenes.builtin("torus_standard", r=-0.5)
    assert verify.run_verification(sc, 8, 8).passed


def test_gauss_bonnet_cartan_schouten():
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.5)
    g = scenes.make_grid(sc, 48, 96)
    total = scenes.integrate(g, "K")
    assert abs(total - 4 * math.pi) <= 1e-3 * 4 * math.pi


def test_quadrature_convergence_on_total_curvature():
    # halving the grid spacing cuts the error by >= 4 before the exact-
    # derivative noise floor is reached
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.3)
    err = []
    for n, m in ((6, 8), (12, 16)):
        g = scenes.make_grid(sc, n, m)
        err.append(abs(scenes.integrate(g, "K") - 4 * math.pi))
    assert err[1] <= err[0] / 4.0


def test_undefined_field():
    sc = scenes.builtin("euclidean_plane")
    g = scenes.make_grid(sc, 8, 8)
    with pytest.raises(UndefinedField):
        scenes.integrate(g, "frobnication")


def test_export_two_by_two(tmp_path):
    sc = scenes.builtin("euclidean_plane")
    g = scenes.make_grid(sc, 2, 2)
    out = tmp_path / "fields.csv"
    scenes.export_fields(g, out)
    lines = out.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 5                # header + 4 samples
    assert lines[0].split(",") == scenes.EXPORT_COLUMNS


def test_export_deterministic_bytes(tmp_path):
    sc = scenes.builtin("catenoid_frame_plane")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    scenes.export_fields(scenes.make_grid(sc, 8, 8), a)
    scenes.export_fields(scenes.make_grid(sc, 8, 8), b)
    assert a.read_bytes() == b.read_bytes()


def test_export_numbers_round_trip_bit_identically(tmp_path):
    # 17 significant digits: parse-and-reformat reproduces every cell
    sc = scenes.builtin("torus_standard")
    out = tmp_path / "t.csv"
    scenes.export_fields(scenes.make_grid(sc, 6, 6), out)
    for line in out.read_text(encoding="utf-8").splitlines()[1:]:
        parts = line.split(",")
        for cell in parts[:-1]:
            assert f"{float(cell):.17g}" == cell


def test_export_catenoid_h_column_vanishes(tmp_path):
    sc = scenes.builtin("catenoid_frame_plane")
    out = tmp_path / "cat.csv"
    scenes.export_fields(scenes.make_grid(sc, 6, 6), out)
    lines = out.read_text(encoding="utf-8").splitlines()[1:]
    cols = scenes.EXPORT_COLUMNS
    h_idx, n1_idx = cols.index("H"), cols.index("n_1")
    for line in lines:
        parts = line.split(",")
        assert abs(float(parts[h_idx])) <= 1e-12
        assert math.isfinite(float(parts[n1_idx]))


def test_export_nan_columns_where_undefined(tmp_path):
    sc = scenes.builtin("cartan_schouten_sphere")    # not isothermal, not frame
    out = tmp_path / "cs.csv"
    scenes.export_fields(scenes.make_grid(sc, 6, 6), out)
    line = out.read_text(encoding="utf-8").splitlines()[1].split(",")
    cols = scenes.EXPORT_COLUMNS
    assert line[cols.index("abs_phi")] == "nan"
    assert line[cols.index("n_1")] == "nan"
    assert float(line[cols.index("K_intrinsic")]) == pytest.approx(1.0, abs=1e-4)


def _plane_doc(X, **surface):
    """A chart X over the unit square in the identity frame."""
    return {"name": "graph",
            "ambient": {"type": "frame",
                        "F": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
            "surface": {"X": X, "domain": [[0.0, 1.0], [0.0, 1.0]], **surface}}


def test_export_of_chart_declared_isothermal_that_is_not(tmp_path, capsys):
    """X = (u, v, 0.001 u^3) declared isothermal: fields exits 2 with the
    NotIsothermal message verify gives, and leaves no file."""
    path = tmp_path / "cubic.rcscene"
    path.write_text(json.dumps(_plane_doc(["u", "v", "0.001*u^3"], isothermal=True)),
                    encoding="utf-8")
    assert cli.main(["verify", "--scene", str(path), "--grid", "8x8"]) == 2
    want = capsys.readouterr().err
    assert want.startswith("error: surface.isothermal: chart is not isothermal: E=")
    assert " at sample 16 (u=0.2372" in want
    out = tmp_path / "f.csv"
    assert cli.main(["fields", "--scene", str(path), "--grid", "8x8",
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == want
    assert not out.exists()


def test_export_hopf_columns_follow_the_declaration(tmp_path):
    """The plane X = (u, v, 0) is isothermal, but abs_phi/abs_psi are filled
    only when the scene declares it; n_i (a frame ambient) are filled
    either way."""
    cols = scenes.EXPORT_COLUMNS
    for declared, cell in ((False, "nan"), (True, "0")):
        sc = scenes.build_scene(_plane_doc(["u", "v", "0"], isothermal=declared))
        out = tmp_path / f"plane-{declared}.csv"
        scenes.export_fields(scenes.make_grid(sc, 8, 8), out)
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            row = line.split(",")
            assert row[cols.index("abs_phi")] == row[cols.index("abs_psi")] == cell
            assert row[cols.index("n_3")] == "1"


def test_golden_expressions_evaluate():
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.25)
    g = scenes.make_grid(sc, 8, 8)
    want = sc.golden("K_e")(g.U, g.V)
    assert np.max(np.abs(g.ext["K_e"] - want)) <= 1e-12
    assert sc.golden("area")(0.0, 0.0) == pytest.approx(4 * math.pi)


def test_interior_mask_masks_low_density_and_edges():
    sc = scenes.builtin("round_sphere_standard")
    g = scenes.make_grid(sc, 16, 16)
    m = g.interior_mask
    assert m.any() and not m.all()
    lo, hi = sc.surface.domain[0]
    margin = 2 * (hi - lo) / 16
    inside = (g.U - lo >= margin) & (hi - g.U >= margin)
    assert not (m & ~inside).any()


class _LookupLog(dict):
    """Program cache that records every key looked up."""

    def __init__(self):
        super().__init__()
        self.looked_up = set()

    def get(self, key, default=None):
        self.looked_up.add(key)
        return super().get(key, default)


def test_scene_validation_compiles_only_grid_programs(monkeypatch):
    # validation reads p from the six-table X..Xvv group, g, Gamma and dg
    # from the base group (with the frame and its determinant), and checks
    # the scene's axes (here normal_axis) in one program of their own;
    # verify reuses every other program a build compiles
    programs = _LookupLog()
    monkeypatch.setattr(expr, "_programs", programs)
    sc = scenes.builtin("catenoid_frame_cylinder")
    built = set(programs)
    assert len(built) == 3
    programs.looked_up.clear()
    verify.run_verification(sc, 8, 8)
    unused = built - programs.looked_up
    assert unused == {(((3,),), tuple(map(id, sc.normal_axis)))}


# the whole stderr of a bad --param, where it is pinned: a constant outside
# a function's domain names that function, not its derivative's division
_PARAM_STDERR = {
    "theta=log(0)*x": "error: params.theta: log evaluated outside its domain (argument 0.0)\n",
    "lambda=1": "error: params.lambda: not a parameter of euclidean_plane (it takes none)\n",
    "q=1": "error: params.q: not a parameter of torus_standard (it takes R, r)\n",
    "r=1": "error: params.r: not a parameter of cartan_schouten_sphere (it takes lambda)\n",
}


@pytest.mark.parametrize("scene, param", [
    pytest.param("rotated_frame_plane", "e=0,0,0", id="0,0,0"),
    pytest.param("rotated_frame_plane", "e=nan,0,0", id="nan,0,0"),
    pytest.param("rotated_frame_plane", "e=1,0", id="1,0"),
    pytest.param("rotated_frame_plane", "e=1,,0", id="1,,0"),
    pytest.param("cartan_schouten_sphere", "lambda=nan", id="lambda=nan"),
    pytest.param("cartan_schouten_sphere", "lambda=abc", id="lambda=abc"),
    pytest.param("torus_standard", "R=inf", id="R=inf"),
    pytest.param("rotated_frame_plane", "theta=" + "(" * 400 + "x" + ")" * 400,
                 id="theta-nested"),
    *(pytest.param("rotated_frame_plane", f"theta={theta}", id=f"theta={theta}")
      for theta in ("exp(1000)*x", "1e999*x", "0*exp(1000)", "1e999", "log(0)*x")),
    *(pytest.param("torus_standard", param, id=param) for param in ("R=0.2", "R=0.5", "r=0")),
    pytest.param("euclidean_plane", "lambda=1", id="euclidean_plane-lambda=1"),
    pytest.param("torus_standard", "q=1", id="torus_standard-q=1"),
    pytest.param("cartan_schouten_sphere", "r=1", id="cartan_schouten_sphere-r=1"),
])
def test_cli_bad_rotation_axis_is_input_error(scene, param):
    """A bad --param value (a zero, non-finite or wrong-length axis e, a
    non-number or non-finite number, a theta that overflows to a constant
    or fails in its symbolic build, a torus outside R > |r| > 0) or a name
    the built-in does not take exits 2 naming params.<name> with the name
    as typed; a bad name lists the names the built-in takes, as typed."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rcsurf.cli", "verify", "--builtin",
         scene, "--param", param, "--grid", "8x8"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"params.{param.split('=')[0]}" in proc.stderr
    if param in _PARAM_STDERR:
        assert proc.stderr == _PARAM_STDERR[param]


def test_builtin_checks_parameter_names_before_calling_the_factory(monkeypatch):
    """A name the factory does not take is a SceneFormatError at
    params.<name>, raised before the factory runs; a TypeError the factory
    raises itself is a fault of the factory, not a bad parameter, and is
    not turned into one.  lambda and its keyword lam name one parameter."""
    calls = []

    def factory(R=2.0):
        calls.append(R)
        raise TypeError("a fault inside the factory")

    monkeypatch.setitem(scenes._BUILTINS, "torus_standard", factory)
    with pytest.raises(SceneFormatError) as err:
        scenes.builtin("torus_standard", q=1.0)
    assert str(err.value) == "params.q: not a parameter of torus_standard (it takes R)"
    assert calls == []
    with pytest.raises(TypeError, match="a fault inside the factory"):
        scenes.builtin("torus_standard", R=3.0)
    assert calls == [3.0]
    monkeypatch.undo()
    for key in ("lambda", "lam"):
        sc = scenes.builtin("cartan_schouten_sphere", **{key: 0.5})
        assert sc.to_dict()["goldens"]["star_tau"] == "2*(0.5)"


def test_export_builds_only_the_blocks_it_reads(tmp_path, monkeypatch):
    """export_fields reads base, ext, K, holo and the Gauss map n of the one
    chunk of an 8x8 grid: no curvature block (nor the symbolic dGamma), no
    Gauss-map derivatives and no projected frames are built, and base holds
    none of the fields that moved to their readers."""
    sc = scenes.builtin("catenoid_frame_plane")
    read = []
    columns = scenes.export_columns

    def record(part, tol):
        read.append(part)
        return columns(part, tol)

    monkeypatch.setattr(scenes, "export_columns", record)
    scenes.export_fields(scenes.make_grid(sc, 8, 8), tmp_path / "f.csv")
    (part,) = read
    built = set(vars(part))
    assert {"base", "ext", "intrinsic_K", "holo", "gauss"} <= built
    assert not built & {"curvature", "gauss_dn", "gauss_frames"}
    assert "dgamma" not in vars(sc.ambient)
    assert set(part.gauss) == {"n"}
    assert not set(part.base) & {"rm", "r4", "gammaS", "JXu", "JXv"}


@pytest.mark.parametrize("count", range(2, scenes.GL_PANEL + 1))
def test_gauss_legendre_table_is_leggauss(count):
    """Each tabled rule is np.polynomial.legendre.leggauss's within 2 ulps
    (its nodes ascend, as leggauss's do), and integrates x^k over [-1, 1]
    to round-off for every k <= 2 count - 1."""
    x, w = scenes._gauss_legendre(count)
    want_x, want_w = np.polynomial.legendre.leggauss(count)
    assert x.shape == w.shape == (count,)
    assert np.all(np.abs(x - want_x) <= 2 * np.spacing(np.abs(want_x)))
    assert np.all(np.abs(w - want_w) <= 2 * np.spacing(np.abs(want_w)))
    for k in range(2 * count):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** k) - exact) <= 1e-14, k


def test_axis_nodes_are_the_composite_leggauss_rule():
    """The composite rule on a non-periodic axis equals the one built from
    leggauss, bit for bit, for every resolution up to three panels."""
    lo, hi = -2.0, 2.0
    for n in range(2, 3 * scenes.GL_PANEL + 1):
        panels = math.ceil(n / scenes.GL_PANEL)
        width = (hi - lo) / panels
        nodes, weights = [], []
        for i in range(panels):
            x, w = np.polynomial.legendre.leggauss(n // panels + (i < n % panels))
            nodes.append(lo + i * width + (x + 1.0) * 0.5 * width)
            weights.append(w * 0.5 * width)
        got = scenes._axis_nodes(lo, hi, n, False)
        assert got[0].tobytes() == np.concatenate(nodes).tobytes(), n
        assert got[1].tobytes() == np.concatenate(weights).tobytes(), n
