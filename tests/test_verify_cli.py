import errno
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rcsurf
from rcsurf import cli, scenes, verify
from rcsurf.errors import NonFiniteValue


def test_report_structure_and_pass():
    sc = scenes.builtin("catenoid_frame_plane")
    rep = verify.run_verification(sc, 12, 12)
    assert rep.passed
    d = rep.to_dict()
    assert d["scene"] == "catenoid_frame_plane"
    names = [e["name"] for e in d["suites"]]
    assert "divcurl" in names and "gauge_theorem" in names
    for e in d["suites"]:
        assert e["status"] in ("pass", "fail", "skip")
        if e["status"] == "pass":
            assert e["max_residual"] <= e["tolerance"]


def test_report_skips_inapplicable_suites():
    sc = scenes.builtin("cartan_schouten_sphere")
    rep = verify.run_verification(sc, 10, 10)
    by_name = {e["name"]: e for e in rep.entries}
    assert by_name["divcurl"]["status"] == "skip"
    assert by_name["psi_identity"]["status"] == "skip"
    assert by_name["gauss_bonnet"]["status"] == "pass"
    assert rep.passed


def test_report_json_deterministic():
    sc = scenes.builtin("torus_standard")
    r1 = verify.run_verification(sc, 10, 10).to_json()
    r2 = verify.run_verification(scenes.builtin("torus_standard"), 10, 10).to_json()
    assert r1 == r2
    json.loads(r1)      # valid JSON


def test_strict_tier_and_overrides():
    sc = scenes.builtin("euclidean_plane")
    rep = verify.run_verification(sc, 10, 10, tol="strict")
    assert rep.passed
    for tol in ("bogus", float("nan"), float("inf")):
        with pytest.raises(ValueError):
            verify.run_verification(sc, 10, 10, tol=tol)
    with pytest.raises(ValueError):
        verify.run_verification(sc, 10, 10, suites=["nope"])


def test_numeric_tolerance_applies_everywhere():
    sc = scenes.builtin("catenoid_frame_plane")
    rep = verify.run_verification(sc, 10, 10, suites=["divcurl"], tol=1e-12)
    assert rep.entries[0]["tolerance"] == 1e-12


def test_scene_tolerance_override():
    sc = scenes.builtin("catenoid_frame_plane")
    sc.tolerances["divcurl"] = 1e-30
    rep = verify.run_verification(sc, 10, 10, suites=["divcurl"])
    assert not rep.passed


def test_scene_gauge_field_feeds_gauge_suite(tmp_path):
    doc = scenes.builtin("catenoid_frame_plane").to_dict()
    doc["gauge"] = {"theta": "0.4*sin(x) - 0.2*y",
                    "axis": ["0", "0.6", "0.8"]}
    path = tmp_path / "gauged.rcscene"
    path.write_text(json.dumps(doc), encoding="utf-8")
    sc = scenes.load_scene(path)
    assert sc.gauge is not None
    rep = verify.run_verification(sc, 8, 8, suites=["gauge"])
    assert rep.passed


def test_failure_detected_on_corrupted_goldens():
    # force a failure: absurd tolerance on a nonzero residual
    sc = scenes.builtin("cartan_schouten_sphere", lam=0.4)
    sc.tolerances["gauss_eq"] = 1e-30
    rep = verify.run_verification(sc, 10, 10, suites=["gauss_eq"])
    assert not rep.passed


def test_repeated_suite_names_report_each_entry_once():
    sc = scenes.builtin("euclidean_plane")
    rep = verify.run_verification(sc, 8, 8,
                                  suites=["divcurl", "divcurl", "gauge", "gauge"])
    assert [e["name"] for e in rep.entries] == [
        "divcurl", "gauge_theorem", "gauge_general"]
    assert rep.to_json() == verify.run_verification(
        sc, 8, 8, suites=["divcurl", "gauge"]).to_json()


def test_suite_list_order_changes_no_report_byte(tmp_path):
    """Two orders of one --suite list give the same report bytes, entries
    in table order (the first order once reported degree first)."""
    reports = []
    for order in ("degree,gauss_eq,ambient_sanity", "ambient_sanity,gauss_eq,degree"):
        out = tmp_path / f"{len(reports)}.json"
        assert cli.main(["verify", "--builtin", "euclidean_plane", "--grid", "8x8",
                         "--suite", order, "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert [e["name"] for e in json.loads(reports[0])["suites"]] == [
        "ambient_sanity", "gauss_eq", "degree"]


def test_gauss_bonnet_without_euler_characteristic_says_so():
    """A closed chart that declares no euler_characteristic: degree runs,
    and gauss_bonnet is skipped for the missing characteristic."""
    doc = scenes.builtin("round_sphere_standard").to_dict()
    del doc["euler_characteristic"]
    rep = verify.run_verification(scenes.build_scene(doc), 24, 24,
                                  suites=["gauss_bonnet", "degree"])
    gb, deg = rep.entries
    assert (gb["status"], gb["reason"]) == ("skip", "no euler_characteristic")
    assert deg["status"] == "pass"


# --- command line ------------------------------------------------------------


_MASKED = ("gauss_eq", "egregium", "sectional_split", "divcurl", "hopf_identity",
           "conformality")


@pytest.mark.parametrize("suites", [None, "gauss_eq,divcurl,egregium", "conformality"])
def test_entry_that_checks_no_sample_is_skipped(tmp_path, suites):
    """X = (1e-4 u, 1e-4 v, 0): the area density 1e-8 is below the mask's
    1e-6, so every masked entry checks no sample and is skipped; the run
    passes without a numpy warning."""
    doc = {"name": "tiny_plane",
           "ambient": {"type": "frame",
                       "F": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
           "surface": {"X": ["1e-4*u", "1e-4*v", "0"],
                       "domain": [[0.0, 1.0], [0.0, 1.0]], "isothermal": True}}
    path, out = tmp_path / "tiny.rcscene", tmp_path / "r.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["verify", "--scene", str(path), "--grid", "8x8", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv + (["--suite", suites] if suites else [])) == 0
    entries = json.loads(out.read_text(encoding="utf-8"))["suites"]
    masked = [e for e in entries if e["name"] in _MASKED]
    assert masked and all(e["status"] == "skip" and e["reason"] == "no interior sample"
                          for e in masked)
    assert all(e["samples"] == 64 for e in entries if e["status"] != "skip")


def test_cli_list(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    assert "catenoid_frame_plane" in out


def test_cli_verify_pass_and_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--builtin", "catenoid_frame_plane",
                     "--grid", "12x12", "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["pass"] is True
    printed = capsys.readouterr().out
    assert "overall: pass" in printed


def test_cli_verify_failure_exit_code(tmp_path):
    scene = scenes.builtin("catenoid_frame_plane")
    doc = scene.to_dict()
    doc["tolerances"] = {"divcurl": 1e-30}
    path = tmp_path / "impossible.rcscene"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["verify", "--scene", str(path), "--grid", "8x8",
                     "--suite", "divcurl"]) == 1


def test_cli_missing_scene_is_config_error(capsys):
    assert cli.main(["verify", "--scene", "no/such/file.rcscene"]) == 2
    assert "error:" in capsys.readouterr().err


# where an error at the scene build's first probe point on the sphere is:
# the probe is no grid, so it names the point by (u, v) alone
_PROBE = "at (u=0.5235987755982988, v=1.0471975511965976)"


def _cartan_schouten_ambient(key, index, value):
    """cartan_schouten_sphere's ambient document with the entry of g or
    Gamma at index replaced by value."""
    amb = scenes.builtin("cartan_schouten_sphere").to_dict()["ambient"]
    entry = amb[key]
    for i in index[:-1]:
        entry = entry[i]
    entry[index[-1]] = value
    return amb


@pytest.mark.parametrize("section, key, value, path", [
    ("ambient", "chart_domain", [1, 2], "ambient.chart_domain"),
    ("ambient", "chart_domain", {"x": [2, 1]}, "ambient.chart_domain.x"),
    ("ambient", "chart_domain", {"w": [0, 1]}, "ambient.chart_domain.w"),
    ("ambient", "chart_domain", {"z": [0, "1"]}, "ambient.chart_domain.z"),
    (None, "euler_characteristic", "two", "euler_characteristic"),
    (None, "euler_characteristic", 2.5, "euler_characteristic"),
    (None, "euler_characteristic", True, "euler_characteristic"),
    (None, "tolerances", {"gauss_eq": "x"}, "tolerances.gauss_eq"),
    (None, "tolerances", {"gauss_eq": -1e-5}, "tolerances.gauss_eq"),
    (None, "tolerances", [1], "tolerances"),
    (None, "goldens", [1], "goldens"),
    (None, "goldens", {"H": -2}, "goldens.H"),
    ("ambient", "chart_domain", {"x": [-0.5, 0.5]}, "chart_domain.x"),
    ("surface", "domain", [[1.0, 0.0], [0.0, 6.0]], "surface.domain"),
    ("surface", "domain", [[0.0, 3.0], [float("nan"), 6.0]], "surface.domain"),
    ("surface", "domain", [[1.0, 1.0], [0.0, 6.0]], "surface.domain"),
    (None, "bogus", 1, "error: bogus: unknown key"),
    ("surface", "bogus", 1, "surface.bogus"),
    ("ambient", "Gamma", [], "ambient.Gamma"),
    (None, "gauge", {"theta": "x", "axis": ["0", "0", "1"], "angle": 1}, "gauge.angle"),
    (None, "gauge", 1, "gauge"),
    (None, "surface", {"X": ["u", "v", "exp(400*u)"], "domain": [[0.0, 1.0], [0.0, 1.0]]},
     "base.E: non-finite value at sample 48 (u=0.898"),
    (None, "tolerances", {"gauss_eqq": 1e-30}, "tolerances.gauss_eqq"),
    ("surface", "domain", [{}, [0.0, 6.0]], "surface.domain"),
    ("surface", "domain", [[0.0, "3"], [0.0, 6.0]], "surface.domain"),
    (None, "name", ["sphere"], "error: name: expected a JSON string"),
    # inf - inf: NaN at every sample (a folded non-finite constant is a
    # parse error, the surface.X case last)
    (None, "gauge", {"theta": "0.3*x", "axis": ["exp(1000 + x) - exp(1000 + y)", "0", "1"]},
     "error: gauge.axis: gauge axis is not unit on the surface " + _PROBE),
    (None, "gauge", {"theta": "exp(1000 + x) - exp(1000 + y)", "axis": ["0", "0", "1"]},
     "error: gauge.theta: non-finite value at sample 0 (u=0.0623"),
    (None, "gauge", {"theta": "0.3*x", "axis": ["2", "0", "0"]},
     "error: gauge.axis: gauge axis is not unit on the surface " + _PROBE),
    (None, "normal_axis", ["0", "0", "2"],
     "error: normal_axis: gauge axis is not unit on the surface " + _PROBE),
    (None, "normal_axis", ["1", "0", "0"],
     "error: normal_axis: gauge axis differs from the Gauss map on S " + _PROBE),
    ("surface", "X", ["u", "v", "(" * 400 + "u" + ")" * 400],
     "error: surface.X[2]: expression nested too deeply"),
    ("surface", "X", ["u", "v", "1e999*u"], "error: surface.X[2]: constant inf is not finite"),
    # constants that overflow only in a symbolic derivative
    ("surface", "X", ["u", "v", "1e200*u*1e200*u"],
     "error: surface.X: constant inf is not finite"),
    ("ambient", "F", [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1 + 1e200*z*1e200*z"]],
     "error: ambient.F: constant inf is not finite"),
    # a guard names its path and the first bad sample: on the grid by its
    # index and (u, v), at the scene build's probe by (u, v) alone
    (None, "surface", {"X": ["2*u", "v", "0"], "domain": [[0.0, 1.0], [0.0, 1.0]],
                       "isothermal": True},
     "error: surface.isothermal: chart is not isothermal: E=4.0 F=0.0 G=1.0 "
     "at sample 0 (u=0.0198"),
    (None, "surface", {"X": ["u", "u", "0"], "domain": [[0.0, 1.0], [0.0, 1.0]]},
     "error: surface.X: tangents linearly dependent (area density below 1e-9) "
     "at (u=0.16666666666666666, v=0.16666666666666666)"),
    # the ambient's guards name the entry they check
    (None, "ambient", _cartan_schouten_ambient("g", (0, 1), "0.5"),
     "error: ambient.g: metric not symmetric (deviation 5.000e-01) " + _PROBE),
    (None, "ambient", _cartan_schouten_ambient("g", (2, 2), "-1"),
     "error: ambient.g: metric not positive definite " + _PROBE),
    (None, "ambient", _cartan_schouten_ambient("Gamma", (0, 0, 0), "x"),
     "error: ambient.Gamma: metric compatibility residual 5.000e-01 exceeds 1e-06 " + _PROBE),
    # a frame the sphere sees negatively oriented, or singular at the
    # probe point (pi/2, pi/3), where x = 0.5
    (None, "ambient", {"type": "frame", "F": [["1", "0", "0"], ["0", "1", "0"],
                                              ["0", "0", "-1"]]},
     "error: ambient.F: frame is negatively oriented " + _PROBE),
    (None, "ambient", {"type": "frame", "F": [["1", "0", "0"], ["0", "1", "0"],
                                              ["0", "0", "x - 0.5"]]},
     "error: ambient.F: frame determinant within 1e-09 of zero "
     "at (u=1.5707963267948966, v=1.0471975511965976)"),
    ("ambient", "chart_domain", {"z": [-0.5, 0.5]},
     "error: ambient.chart_domain.z: z = 0.8660254037844387 outside [-0.5, 0.5] " + _PROBE),
])
def test_cli_malformed_scene_is_input_error(tmp_path, section, key, value, path):
    """A malformed scene value exits 2 with its JSON path, and a guard's
    error with where it is, and no traceback."""
    doc = scenes.builtin("round_sphere_standard").to_dict()
    if key == "surface":        # the sphere's Gauss map goes with its surface
        del doc["normal_axis"]
    (doc[section] if section else doc)[key] = value
    scene_path = tmp_path / "bad.rcscene"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rcsurf.cli", "verify", "--scene", str(scene_path),
         "--grid", "8x8"], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert path in proc.stderr


@pytest.mark.parametrize("key, value, path", [
    ("gauge", {"theta": "0.3*x", "axis": ["2", "0", "0"]},
     "error: gauge.axis: gauge axis is not unit on the surface " + _PROBE),
    ("normal_axis", ["0", "0", "2"],
     "error: normal_axis: gauge axis is not unit on the surface " + _PROBE),
    ("normal_axis", ["1", "0", "0"],
     "error: normal_axis: gauge axis differs from the Gauss map on S " + _PROBE),
], ids=["gauge-axis-not-unit", "normal-axis-not-unit", "normal-axis-not-normal"])
@pytest.mark.parametrize("command", ["fields", "integrate", "verify"])
def test_cli_scene_axes_are_checked_when_the_scene_is_built(tmp_path, capsys, key, value,
                                                            path, command):
    """A bad gauge axis or normal_axis exits 2 naming its path in commands
    that run no gauge suite too, before any grid work or output."""
    doc = scenes.builtin("round_sphere_standard").to_dict()
    doc[key] = value
    scene_path = tmp_path / "bad.rcscene"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "f.csv"
    extra = {"fields": ["--out", str(out)], "integrate": ["--field", "K"],
             "verify": ["--suite", "gauss_eq"]}[command]
    assert cli.main([command, "--scene", str(scene_path), "--grid", "8x8"] + extra) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err == path + "\n"
    assert not out.exists()


def _scene_file(tmp_path, doc):
    path = tmp_path / "scene.rcscene"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("name, index, text, where", [
    ("euclidean_plane", ("F", 2, 2), "log(x - 5)",
     "at (u=0.16666666666666666, v=0.16666666666666666)"),
    ("cartan_schouten_sphere", ("Gamma", 0, 1, 2), "sqrt(x - 2)", _PROBE),
], ids=["log-in-F", "sqrt-in-Gamma"])
def test_cli_domain_error_at_the_build_probe_names_entry_and_point(tmp_path, capsys, name,
                                                                   index, text, where):
    """An ambient entry that leaves its domain at the scene build's probe
    exits 2 naming the entry, the argument at the first bad probe point
    and its (u, v)."""
    doc = scenes.builtin(name).to_dict()
    entry = doc["ambient"][index[0]]
    for i in index[1:-1]:
        entry = entry[i]
    entry[index[-1]] = text
    assert cli.main(["verify", "--scene", _scene_file(tmp_path, doc), "--grid", "8x8"]) == 2
    err = capsys.readouterr().err
    fn = text.split("(")[0]
    assert err.startswith(f"error: ambient.{index[0]}: {fn} evaluated outside its domain "
                          f"(argument -"), err
    assert err.endswith(f") {where}\n"), err


@pytest.mark.parametrize("chunk", [scenes.CHUNK, 2 * scenes.CHUNK, 40])
@pytest.mark.parametrize("command", ["fields", "integrate", "verify"])
def test_cli_domain_error_on_the_grid_names_entry_and_sample(tmp_path, capsys, monkeypatch,
                                                             command, chunk):
    """An ambient entry that leaves its domain past the build's probe (x >
    0.9 on the unit square) exits 2 from every command naming the entry,
    the argument and the grid index and (u, v) of the first bad sample,
    whatever the chunk size."""
    doc = scenes.builtin("euclidean_plane").to_dict()
    doc["ambient"]["F"][2][2] = "2 + sqrt(0.9 - x)"
    del doc["normal_axis"]
    grid = scenes.make_grid(scenes.build_scene(doc), 16, 16)
    i = int(np.argmax(grid.U > 0.9))
    u, v = float(grid.U[i]), float(grid.V[i])
    monkeypatch.setattr(scenes, "CHUNK", chunk)
    extra = {"fields": ["--out", str(tmp_path / "f.csv")], "integrate": ["--field", "K"],
             "verify": []}[command]
    assert cli.main([command, "--scene", _scene_file(tmp_path, doc), "--grid", "16x16"]
                    + extra) == 2
    assert capsys.readouterr().err == (
        f"error: ambient.F: sqrt evaluated outside its domain (argument {0.9 - u!r}) "
        f"at sample {i} (u={u!r}, v={v!r})\n")
    assert not (tmp_path / "f.csv").exists()


def test_cli_lazy_symbolic_build_names_its_entry(tmp_path, capsys):
    """Gamma^0_00 = 1e200*z*1e200 on the plane z = 0: the scene builds, and
    its composition onto the plane folds to 0, so fields and integrate
    pass; verify's curvature block builds dGamma, whose z-derivative folds
    1e200*1e200 to inf, and exits 2 naming ambient.Gamma."""
    doc = scenes.builtin("cartan_schouten_sphere").to_dict()
    doc["surface"].update(X=["u", "v", "0"], domain=[[0.0, 1.0], [0.0, 1.0]],
                          isothermal=True)
    for key in ("closed", "euler_characteristic", "goldens"):
        del doc[key]
    gamma = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    gamma[0][0][0] = "1e200*z*1e200"
    doc["ambient"]["Gamma"] = gamma
    scene = ["--scene", _scene_file(tmp_path, doc), "--grid", "8x8"]
    assert cli.main(["fields", "--out", str(tmp_path / "f.csv")] + scene) == 0
    assert cli.main(["integrate", "--field", "K"] + scene) == 0
    assert capsys.readouterr().err == ""
    assert cli.main(["verify"] + scene) == 2
    assert capsys.readouterr().err == "error: ambient.Gamma: constant inf is not finite\n"


@pytest.mark.parametrize("command, lam, field", [
    ("verify", "1e308", "base.torsion"),
    ("fields", "1e308", "base.torsion"),
    ("verify", "1e160", "curvature.rm"),
    ("fields", "1e160", "ext.K_e"),
])
def test_cli_non_finite_block_is_input_error(tmp_path, command, lam, field):
    """A parameter that overflows the numeric layers exits 2 naming the
    block and field; no NaN reaches a report or an export."""
    out = tmp_path / "out"
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rcsurf.cli", command, "--builtin",
         "cartan_schouten_sphere", "--param", f"lambda={lam}", "--grid", "8x8",
         "--out", str(out)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr
    assert f"error: {field}: non-finite value" in proc.stderr
    assert "nan" not in proc.stdout
    assert not out.exists()


def test_cli_rejects_bad_flags(capsys):
    assert cli.main(["verify", "--builtin", "euclidean_plane",
                     "--grid", "4x4"]) == 2
    for tol in ("-3", "nan", "inf", "1e400"):
        assert cli.main(["verify", "--builtin", "euclidean_plane",
                         "--tol", tol]) == 2
    # both --scene and --builtin given
    assert cli.main(["verify", "--builtin", "euclidean_plane",
                     "--scene", "x"]) == 2
    assert cli.main(["integrate", "--builtin", "euclidean_plane",
                     "--field", "nope"]) == 2
    # an empty --suite names no suite, as "," and "gauss_eq," do not
    capsys.readouterr()
    assert cli.main(["verify", "--builtin", "euclidean_plane", "--grid", "8x8",
                     "--suite", ""]) == 2
    assert capsys.readouterr().err.startswith("error: unknown suite ''; known: ")
    # a --param with no name
    for param in ("=1", "x"):
        assert cli.main(["verify", "--builtin", "torus_standard", "--grid", "8x8",
                         "--param", param]) == 2
        assert capsys.readouterr().err == f"error: --param needs K=V, got {param!r}\n"


def test_cli_integrate_prints_value(capsys):
    code = cli.main(["integrate", "--builtin", "cartan_schouten_sphere",
                     "--param", "lambda=0.5", "--grid", "32x64", "--field", "K"])
    assert code == 0
    val = float(capsys.readouterr().out.strip())
    assert abs(val - 4 * np.pi) <= 1e-3 * 4 * np.pi


def test_cli_integrate_rejects_the_degree_integrand(capsys):
    """The degree integrand is a density against du dv, and integrate
    multiplies by the area density, so it is no integrate field (the sphere
    read pi^2 for it); gauss_degree still sums it to the degree."""
    assert cli.main(["integrate", "--builtin", "round_sphere_standard",
                     "--grid", "24x24", "--field", "degree_integrand"]) == 2
    assert "no field named 'degree_integrand'" in capsys.readouterr().err
    for name, degree in (("round_sphere_standard", 1), ("torus_standard", 0)):
        grid = scenes.make_grid(scenes.builtin(name), 24, 24)
        assert scenes.gauss_degree(grid)["degree"] == degree, name


def test_cli_fields_export(tmp_path, capsys):
    out = tmp_path / "t.csv"
    code = cli.main(["fields", "--builtin", "torus_standard",
                     "--grid", "8x8", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert len(out.read_text(encoding="utf-8").splitlines()) == 65


def test_cli_fields_on_a_full_disk_is_input_error(tmp_path, capsys, monkeypatch):
    """A table whose writes and close all fail with ENOSPC, as on a full
    disk (where the close flushes and fails again), exits 2 with one error
    line and removes the partial file."""
    real_open = open

    class FullDisk:
        def __init__(self, path, *args, **kwargs):
            self.fh = real_open(path, *args, **kwargs)      # the partial file

        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def close(self):
            self.fh.close()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(scenes, "open", FullDisk, raising=False)
    out = tmp_path / "f.csv"
    assert cli.main(["fields", "--builtin", "euclidean_plane", "--grid", "8x8",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write field export {str(out)!r}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_cli_verify_report_bytes_repeat(tmp_path):
    outs = []
    for run in ("1", "4"):
        out = tmp_path / f"r{run}.json"
        assert cli.main(["verify", "--builtin", "torus_standard",
                         "--grid", "10x10", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_cli_fields_export_bytes_repeat(tmp_path):
    outs = []
    for run in ("1", "3"):
        out = tmp_path / f"f{run}.csv"
        assert cli.main(["fields", "--builtin", "catenoid_frame_plane",
                         "--grid", "8x8", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_doubly_periodic_chart_is_closed_without_the_declaration():
    """torus_standard without "closed": both axes periodic make the chart
    closed for verify's plan as for scenes.require_closed, so gauss_bonnet
    and degree run and pass."""
    doc = scenes.builtin("torus_standard").to_dict()
    del doc["closed"]
    sc = scenes.build_scene(doc)
    rep = verify.run_verification(sc, 16, 16, suites=["gauss_bonnet", "degree"])
    assert [(e["name"], e["status"]) for e in rep.entries] == [
        ("gauss_bonnet", "pass"), ("degree", "pass")]
    assert scenes.gauss_degree(scenes.make_grid(sc, 16, 16))["degree"] == 0


@pytest.mark.parametrize("where", ["missing_dir", "directory"])
def test_cli_verify_unwritable_report_is_input_error(tmp_path, capsys, where):
    """A report path that cannot be written exits 2 with one error line, as
    fields does for its table."""
    out = tmp_path / "no" / "r.json" if where == "missing_dir" else tmp_path
    assert cli.main(["verify", "--builtin", "euclidean_plane", "--grid", "8x8",
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write report {str(out)!r}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command, what", [("verify", "report"), ("fields", "field export")])
def test_cli_unwritable_out_fails_before_grid_work(tmp_path, capsys, monkeypatch,
                                                    command, what):
    """An --out that cannot be written exits 2 with its one error line
    before any chunk is computed (map_chunks raises if it is reached) and
    prints nothing on stdout."""
    def no_grid_work(self, work, reads=None):
        raise AssertionError("grid work before the --out check")

    monkeypatch.setattr(scenes.SampleGrid, "map_chunks", no_grid_work)
    out = tmp_path / "no" / "out"
    assert cli.main([command, "--builtin", "euclidean_plane", "--grid", "8x8",
                     "--out", str(out)]) == 2
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith(f"error: cannot write {what} {str(out)!r}: ")
    assert printed.err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "fields"])
@pytest.mark.parametrize("existing", [False, True])
def test_cli_run_failing_after_the_out_check_leaves_out_as_it_was(
        tmp_path, monkeypatch, command, existing):
    """The --out check creates no file and keeps an existing one as it
    was, when the run then fails."""
    def fail(self, work, reads=None):
        raise NonFiniteValue("non-finite value", "base.p")

    monkeypatch.setattr(scenes.SampleGrid, "map_chunks", fail)
    out = tmp_path / "out"
    if existing:
        out.write_bytes(b"kept\n")
    assert cli.main([command, "--builtin", "euclidean_plane", "--grid", "8x8",
                     "--out", str(out)]) == 2
    assert (out.read_bytes() == b"kept\n") if existing else not out.exists()


@pytest.mark.parametrize("command", ["verify", "fields", "integrate"])
def test_cli_grid_out_of_memory_is_input_error(tmp_path, capsys, monkeypatch, command):
    """A grid too large for memory exits 2 with one line naming the grid.
    The allocation is simulated: make_grid raises MemoryError."""
    def no_memory(scene, nu, nv):
        raise MemoryError(f"cannot allocate {nu * nv * 8} bytes")

    monkeypatch.setattr(scenes, "make_grid", no_memory)
    extra = {"verify": [], "fields": ["--out", str(tmp_path / "f.csv")],
             "integrate": ["--field", "one"]}[command]
    assert cli.main([command, "--builtin", "euclidean_plane",
                     "--grid", "100000x100000"] + extra) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "100000x100000" in err
    assert err.count("\n") == 1
    assert not (tmp_path / "f.csv").exists()


def test_cli_grid_that_cannot_be_allocated_exits_at_once(tmp_path):
    """A 20000000x20000000 grid (4e14 samples) exits 2 with one line naming
    the grid within 5 s: its per-sample arrays are allocated before its
    axis rules are built (building the rules first took 37 s and 1.36 GB)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    grid = "20000000x20000000"
    proc = subprocess.run(
        [sys.executable, "-m", "rcsurf.cli", "verify", "--builtin", "euclidean_plane",
         "--grid", grid], capture_output=True, text=True, env=env, cwd=tmp_path, timeout=5)
    assert proc.returncode == 2
    assert proc.stderr == f"error: --grid {grid}: not enough memory for this grid\n"


@pytest.mark.parametrize("command", [["fields", "--out", "deep.csv"],
                                     ["integrate", "--field", "one"], ["verify"]],
                         ids=["fields", "integrate", "verify"])
def test_cli_deep_surface_expression_runs(tmp_path, command):
    """A surface.X component that sums 1,500 terms (an expression 1,500
    levels deep) is differentiated, compiled and printed without
    recursion: every command exits 0 with no traceback."""
    doc = scenes.builtin("euclidean_plane").to_dict()
    del doc["normal_axis"]
    doc["surface"]["isothermal"] = False
    doc["surface"]["X"][2] = " + ".join(["0.0001*u*v"] * 1500)
    scene_path = tmp_path / "deep.rcscene"
    scene_path.write_text(json.dumps(doc), encoding="utf-8")
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "rcsurf.cli", command[0], "--scene", str(scene_path),
         "--grid", "8x8"] + command[1:], capture_output=True, text=True, env=env,
        cwd=tmp_path, timeout=120)
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 0, proc.stderr


def test_verify_does_not_load_numpy_random():
    """A frame-ambient verify, whose gauge entries both run, never imports
    numpy.random: its gauge fields are expression text (verify.GAUGE_THEOREM,
    verify.GAUGE_GENERAL), not draws."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    code = ("import sys; from rcsurf import cli; "
            "code = cli.main(['verify', '--builtin', 'round_sphere_standard', "
            "'--grid', '8x8']); "
            "sys.exit(code or 3 * ('numpy.random' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert "gauge_theorem      pass" in proc.stdout


def test_no_command_loads_numpy_polynomial(tmp_path):
    """verify, fields and integrate on charts with a non-periodic axis
    never import numpy.polynomial: the Gauss-Legendre rules of the grid
    are a table (scenes._gauss_legendre)."""
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(rcsurf.__file__)))
    runs = [["verify", "--builtin", "catenoid_frame_cylinder"],
            ["fields", "--builtin", "catenoid_frame_plane", "--out", str(tmp_path / "f.csv")],
            ["integrate", "--builtin", "cartan_schouten_sphere", "--field", "K"]]
    for argv in runs:
        code = ("import sys; from rcsurf import cli; "
                f"code = cli.main({argv + ['--grid', '24x24']!r}); "
                "sys.exit(code or 3 * ('numpy.polynomial' in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, (argv, proc.returncode, proc.stderr)
