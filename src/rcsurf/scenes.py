"""Scene definitions, built-in scenes, sample grids, quadrature and export.

A scene document is a JSON object (extension .rcscene) with keys::

    name                  string
    ambient               {"type": "frame", "F": [[expr x3] x3]}
                          | {"type": "coefficients", "g": [[expr x3] x3],
                             "Gamma": [[[expr x3] x3] x3]}   # Gamma[k][i][j]
      .chart_domain       optional {"x": [lo, hi], ...}, finite lo < hi
    surface               {"X": [expr, expr, expr],
                           "domain": [[u0, u1], [v0, v1]],  # finite, lo < hi
                           "periodic": [bool, bool],
                           "isothermal": bool}
    gauge                 optional {"theta": expr, "axis": [expr x3]}
    closed                optional bool (chart covers a closed surface)
    euler_characteristic  optional integer
    normal_axis           optional [expr x3]: Gauss map in frame components,
                          extended off the surface (used by gauge suites)
    tolerances            optional {"classify" or verify.ENTRIES name: positive number}
    goldens               optional {name: expr in (u, v)}, informational

build_scene rejects a key this layout does not define (the names under
goldens are free) and a value of the wrong type or range with a
SceneFormatError that names its JSON path.

Ambient expressions use variables x, y, z; surface expressions use u, v.
Grids place uniform nodes on periodic axes (trapezoid weights) and
composite Gauss-Legendre nodes (16-point panels) on non-periodic axes, so
open-interval charts such as polar sphere coordinates never sample their
degenerate edges.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from functools import cached_property

import numpy as np

from . import expr, extrinsic, gaussmap, holo
from .ambient import coefficient_ambient, frame_ambient
from .errors import (
    IoError, NotClosed, SceneFormatError,
    UndefinedField, UnknownScene, located, named,
)
from .gaussmap import GaugeField
from .surface import Surface, first_order, induced_metric, require_finite

__all__ = [
    "Scene", "load_scene", "save_scene", "build_scene", "builtin",
    "builtin_names", "builtin_provenance", "SampleGrid", "make_grid",
    "integrate", "require_closed", "degree_from", "gauss_degree",
    "export_fields", "export_columns", "format_rows", "EXPORT_COLUMNS",
]

AMBIENT_VARS = {"x", "y", "z"}
SURFACE_VARS = {"u", "v"}

GL_PANEL = 16
# samples per chunk of a streamed grid (SampleGrid.chunks).  4096 is the measured
# knee on 2 vCPUs: against 8192 it cuts a 128x128 sphere verify's peak RSS from
# 52.6 to 42.7 MB, and 2048 would split a 64x64 grid in two, each chunk running
# every program's ops (about 14% more compute on the cylinder).
CHUNK = 4096
DENSITY_MASK_TOL = 1e-6


class Scene:
    """A fully built scene: ambient + surface + optional gauge + metadata."""

    def __init__(self, name, amb, surf, gauge=None, closed=False, chi=None,
                 normal_axis=None, tolerances=None, goldens=None, doc=None):
        self.name = name
        self.ambient = amb
        self.surface = surf
        self.gauge = gauge
        self.closed = closed
        self.chi = chi
        self.normal_axis = normal_axis
        self.tolerances = dict(tolerances or {})
        self.goldens = dict(goldens or {})
        self.doc = doc or {}

    @property
    def closed_chart(self):
        """The chart claims to cover a closed surface: both axes periodic,
        or declared closed (require_closed checks the claim)."""
        return self.closed or all(self.surface.periodic)

    def to_dict(self):
        return json.loads(json.dumps(self.doc))

    def golden(self, key):
        """Evaluate a golden expression over (u, v) arrays; returns a callable."""
        e = expr.parse(self.goldens[key], SURFACE_VARS)
        return lambda U, V: expr.evaluate(e, {"u": np.asarray(U, dtype=float),
                                              "v": np.asarray(V, dtype=float)})


# --- document handling -----------------------------------------------------------


_KEYS = {
    "": ("name", "ambient", "surface", "gauge", "closed", "euler_characteristic",
         "normal_axis", "tolerances", "goldens"),
    "ambient.frame": ("type", "F", "chart_domain"),
    "ambient.coefficients": ("type", "g", "Gamma", "chart_domain"),
    "surface": ("X", "domain", "periodic", "isothermal"),
    "gauge": ("theta", "axis"),
}


def _known_keys(doc, path, kind=None):
    """Reject the first key of the JSON object doc (at path) that a scene
    document does not define; kind picks the ambient type's keys."""
    allowed = _KEYS[f"{path}.{kind}" if kind else path]
    for key in doc:
        if key not in allowed:
            raise SceneFormatError(f"{path}.{key}" if path else key, "unknown key")


def _need(doc, field, path, kind=None):
    if field not in doc:
        raise SceneFormatError(f"{path}.{field}" if path else field, "required")
    val = doc[field]
    if kind is not None and not isinstance(val, kind):
        raise SceneFormatError(f"{path}.{field}" if path else field,
                               f"expected {kind.__name__}")
    return val


def _parse_field(text, allowed, path):
    if not isinstance(text, str):
        raise SceneFormatError(path, "expected an expression string")
    try:
        return expr.parse(text, allowed)
    except Exception as err:
        raise SceneFormatError(path, str(err)) from err


def _parse_matrix(rows, allowed, path, shape):
    if not isinstance(rows, list) or len(rows) != shape[0]:
        raise SceneFormatError(path, f"expected a list of {shape[0]} rows")
    out = []
    for i, row in enumerate(rows):
        if len(shape) == 1:
            out.append(_parse_field(rows[i], allowed, f"{path}[{i}]"))
            continue
        out.append(_parse_matrix(row, allowed, f"{path}[{i}]", shape[1:]))
    return out


def _flag(doc, field, path):
    """Optional JSON boolean, False when absent."""
    val = doc.get(field, False)
    if not isinstance(val, bool):
        raise SceneFormatError(path, "expected a JSON boolean")
    return val


def _object(doc, field, path):
    """Optional JSON object, {} when absent."""
    val = doc.get(field)
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise SceneFormatError(path, "expected a JSON object")
    return val


def _number(val, path):
    """A finite JSON number, not a boolean."""
    if (isinstance(val, bool) or not isinstance(val, (int, float))
            or not math.isfinite(val)):
        raise SceneFormatError(path, "expected a finite number")
    return float(val)


def _chart_domain(adoc):
    out = {}
    for var, box in _object(adoc, "chart_domain", "ambient.chart_domain").items():
        path = f"ambient.chart_domain.{var}"
        if var not in AMBIENT_VARS:
            raise SceneFormatError(path, "expected a chart variable x, y or z")
        if not isinstance(box, list) or len(box) != 2:
            raise SceneFormatError(path, "expected [lo, hi]")
        lo, hi = (_number(b, path) for b in box)
        if not lo < hi:
            raise SceneFormatError(path, "expected lo < hi")
        out[var] = (lo, hi)
    return out or None


def _tolerances(doc):
    from .verify import ENTRIES     # verify imports this module
    out = {}
    for key, val in _object(doc, "tolerances", "tolerances").items():
        if key != "classify" and key not in ENTRIES:
            raise SceneFormatError(f"tolerances.{key}", "unknown key; expected classify "
                                   f"or a report entry ({', '.join(ENTRIES)})")
        out[key] = _number(val, f"tolerances.{key}")
        if out[key] <= 0.0:
            raise SceneFormatError(f"tolerances.{key}", "expected a positive number")
    return out


def _goldens(doc):
    out = _object(doc, "goldens", "goldens")
    for key, val in out.items():
        if not isinstance(val, str):
            raise SceneFormatError(f"goldens.{key}", "expected an expression string")
    return out


# The library's entry points (build_scene, builtin, integrate, gauss_degree,
# export_fields and verify.run_verification) run under the np.errstate of
# cli.main: each non-finite value they meet stops them as a typed error
# (NonFiniteValue, or a constant's ExprError), which a numpy floating-point
# warning would only precede.


@np.errstate(all="ignore")
def build_scene(doc) -> Scene:
    """Validate a scene document and construct the Scene."""
    _known_keys(doc, "")
    name = doc.get("name", "unnamed")
    if not isinstance(name, str):
        raise SceneFormatError("name", "expected a JSON string")
    adoc = _need(doc, "ambient", "", dict)
    kind = _need(adoc, "type", "ambient", str)
    chart_domain = _chart_domain(adoc)
    if kind == "frame":
        _known_keys(adoc, "ambient", kind)
        F = _parse_matrix(_need(adoc, "F", "ambient"), AMBIENT_VARS,
                          "ambient.F", (3, 3))
        with named("ambient.F"):    # the symbolic build names its errors as parsing does
            amb = frame_ambient(F, chart_domain=chart_domain)
    elif kind == "coefficients":
        _known_keys(adoc, "ambient", kind)
        g = _parse_matrix(_need(adoc, "g", "ambient"), AMBIENT_VARS,
                          "ambient.g", (3, 3))
        gamma = _parse_matrix(_need(adoc, "Gamma", "ambient"), AMBIENT_VARS,
                              "ambient.Gamma", (3, 3, 3))
        amb = coefficient_ambient(g, gamma, chart_domain=chart_domain)
    else:
        raise SceneFormatError("ambient.type", f"unknown ambient type {kind!r}")

    sdoc = _need(doc, "surface", "", dict)
    _known_keys(sdoc, "surface")
    X = _parse_matrix(_need(sdoc, "X", "surface"), SURFACE_VARS, "surface.X", (3,))
    domain = _need(sdoc, "domain", "surface", list)
    if len(domain) != 2 or not all(isinstance(a, list) and len(a) == 2 for a in domain):
        raise SceneFormatError("surface.domain", "expected [[u0,u1],[v0,v1]]")
    domain = tuple(tuple(_number(b, "surface.domain") for b in axis) for axis in domain)
    if not all(lo < hi for lo, hi in domain):
        raise SceneFormatError("surface.domain", "expected finite bounds with lo < hi "
                               "on both axes")
    periodic = sdoc.get("periodic", [False, False])
    if (not isinstance(periodic, list) or len(periodic) != 2
            or not all(isinstance(p, bool) for p in periodic)):
        raise SceneFormatError("surface.periodic", "expected [bool, bool]")
    isothermal = _flag(sdoc, "isothermal", "surface.isothermal")
    with named("surface.X"):
        surf = Surface(amb, X, domain, periodic, isothermal)

    gauge = None
    if doc.get("gauge") is not None:
        gdoc = _object(doc, "gauge", "gauge")
        _known_keys(gdoc, "gauge")
        theta = _parse_field(_need(gdoc, "theta", "gauge"), AMBIENT_VARS, "gauge.theta")
        axis = _parse_matrix(_need(gdoc, "axis", "gauge"), AMBIENT_VARS,
                             "gauge.axis", (3,))
        gauge = GaugeField(theta, tuple(axis), "gauge.axis")

    normal_axis = None
    if doc.get("normal_axis") is not None:
        normal_axis = tuple(_parse_matrix(doc["normal_axis"], AMBIENT_VARS,
                                          "normal_axis", (3,)))

    chi = doc.get("euler_characteristic")
    if chi is not None and (isinstance(chi, bool) or not isinstance(chi, int)):
        raise SceneFormatError("euler_characteristic", "expected a JSON integer")

    scene = Scene(
        name, amb, surf, gauge=gauge,
        closed=_flag(doc, "closed", "closed"),
        chi=chi,
        normal_axis=normal_axis,
        tolerances=_tolerances(doc),
        goldens=_goldens(doc),
        doc=doc,
    )
    _validate_scene(scene)
    return scene


def _validate_scene(scene):
    """Cheap structural validation at 5x5 interior surface samples: the
    ambient's guards, a base core (surface.first_order) from the tables
    they read and, in a frame ambient, the scene's gauge axis and
    normal_axis (gaussmap.check_axis, as the gauge suite checks them on the
    grid; normal_axis against the Gauss map), both axes in one program.
    The probe points are no grid samples: an error there names its point
    by (u, v) alone (errors.located)."""
    (u0, u1), (v0, v1) = scene.surface.domain
    us = np.linspace(u0, u1, 7)[1:-1]
    vs = np.linspace(v0, v1, 7)[1:-1]
    U, V = [a.ravel() for a in np.meshgrid(us, vs, indexing="ij")]
    surf, amb = scene.surface, scene.ambient
    axes = {}           # path -> (axis, the Gauss map it must match or None)
    with located(U, V):
        jets = surf.jets(U, V)
        base = first_order("base", jets, amb.validate(jets["p"]))
        if amb.kind != "frame":
            return
        if scene.gauge is not None:
            axes[scene.gauge.path] = (scene.gauge.axis, None)
        if scene.normal_axis is not None:
            axes["normal_axis"] = (scene.normal_axis, gaussmap.gauss_field(base)["n"])
        if not axes:
            return
        with named(*axes):
            values = expr.eval_table(tuple(list(axis) for axis, _ in axes.values()),
                                     amb.bindings(base["p"]))
        for (path, (_, normal)), value in zip(axes.items(), values):
            gaussmap.check_axis(value, normal, path)


def load_scene(path) -> Scene:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise IoError(f"cannot read scene file {path!r}: {err}") from err
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise SceneFormatError("", f"not valid JSON: {err}") from err
    if not isinstance(doc, dict):
        raise SceneFormatError("", "top level must be an object")
    return build_scene(doc)


def save_scene(scene: Scene, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scene.doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as err:
        raise IoError(f"cannot write scene file {path!r}: {err}") from err


# --- built-in scenes ---------------------------------------------------------------

_TWO_PI = 2.0 * math.pi

_BUILTINS = {}
_PROVENANCE = {}


def _register(name, provenance):
    def deco(fn):
        _BUILTINS[name] = fn
        _PROVENANCE[name] = provenance
        return fn
    return deco


def builtin_names():
    return sorted(_BUILTINS)


def builtin_provenance(name):
    return _PROVENANCE[name]


def _param_number(val, name):
    """A built-in's numeric parameter as a finite float; name is the one
    the user types (params.<name> in the error)."""
    try:
        out = float(val)
    except (TypeError, ValueError):
        out = math.nan
    if not math.isfinite(out):
        raise SceneFormatError(f"params.{name}", f"expected a finite number, got {val!r}")
    return out


@np.errstate(all="ignore")
def builtin(name, **params) -> Scene:
    try:
        factory = _BUILTINS[name]
    except KeyError:
        raise UnknownScene(f"no builtin scene named {name!r}; "
                           f"known: {', '.join(builtin_names())}") from None
    try:
        doc = factory(**params)
    except TypeError as err:
        raise SceneFormatError("params", f"bad parameters for {name}: {err}") from err
    return build_scene(doc)


_IDENTITY_F = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


@_register("euclidean_plane", "flat plane in the standard Euclidean frame")
def _euclidean_plane():
    return {
        "name": "euclidean_plane",
        "ambient": {"type": "frame", "F": _IDENTITY_F},
        "surface": {"X": ["u", "v", "0"], "domain": [[0.0, 1.0], [0.0, 1.0]],
                    "periodic": [False, False], "isothermal": True},
        "normal_axis": ["0", "0", "1"],
        "goldens": {"H": "0", "star_tau": "0", "K_e": "0", "area": "1"},
    }


@_register("rotated_frame_plane",
           "plane z=0 seen through a frame rotated by angle theta(x,y,z) about a fixed axis")
def _rotated_frame_plane(theta="x*y", e=(-1.0, 0.0, 0.0)):
    try:
        e = tuple(float(c) for c in e)
    except (TypeError, ValueError):
        e = ()
    norm = math.hypot(*e)
    if len(e) != 3 or not math.isfinite(norm) or norm == 0.0:
        raise SceneFormatError("params.e",
                               "expected a finite non-zero axis of three numbers")
    if abs(norm - 1.0) > 1e-12:
        e = tuple(c / norm for c in e)
    with named("params.theta"):   # every symbolic step can fail on theta
        theta_e = (expr.con(theta) if isinstance(theta, (int, float))
                   else expr.parse(str(theta), AMBIENT_VARS))
        F = gaussmap.rodrigues_exprs(theta_e, tuple(expr.con(c) for c in e))
        on_surface = {"x": expr.var("u"), "y": expr.var("v"), "z": expr.con(0.0)}
        th_x = expr.compose(expr.diff(theta_e, "x"), on_surface)
        th_y = expr.compose(expr.diff(theta_e, "y"), on_surface)
        e1, e2 = expr.con(e[0]), expr.con(e[1])
        golden_H = expr.sub(expr.mul(th_x, e2), expr.mul(th_y, e1))
        golden_st = expr.neg(expr.add(expr.mul(th_x, e1), expr.mul(th_y, e2)))
        golden_phi_re = expr.mul(expr.con(0.25),
                                 expr.add(expr.mul(th_y, e1), expr.mul(th_x, e2)))
        golden_phi_im = expr.mul(expr.con(0.25),
                                 expr.sub(expr.mul(th_x, e1), expr.mul(th_y, e2)))
        return {
            "name": "rotated_frame_plane",
            "ambient": {"type": "frame", "F": [[str(c) for c in row] for row in F]},
            "surface": {"X": ["u", "v", "0"], "domain": [[-2.0, 2.0], [-2.0, 2.0]],
                        "periodic": [False, False], "isothermal": True},
            "normal_axis": [str(F[2][0]), str(F[2][1]), str(F[2][2])],
            "goldens": {
                "H": str(golden_H), "star_tau": str(golden_st),
                "phi_re": str(golden_phi_re), "phi_im": str(golden_phi_im),
                "K_e": "0",
            },
        }


_CATENOID_G_ROWS = [
    ["-sin(x)", "tanh(y)*cos(x)", "sech(y)*cos(x)"],
    ["cos(x)", "tanh(y)*sin(x)", "sech(y)*sin(x)"],
    ["0", "sech(y)", "-tanh(y)"],
]


@_register("catenoid_frame_plane",
           "plane z=0 seen through the orthonormal frame of a catenoid")
def _catenoid_frame_plane():
    # frame matrix is the transpose (inverse) of the catenoid frame matrix G
    F = [[_CATENOID_G_ROWS[j][i] for j in range(3)] for i in range(3)]
    return {
        "name": "catenoid_frame_plane",
        "ambient": {"type": "frame", "F": F},
        "surface": {"X": ["u", "v", "0"], "domain": [[0.0, _TWO_PI], [-2.0, 2.0]],
                    "periodic": [True, False], "isothermal": True},
        "normal_axis": ["sech(y)*cos(x)", "sech(y)*sin(x)", "-tanh(y)"],
        "goldens": {
            "H": "0", "star_tau": "0", "K_e": "-sech(v)^2",
            "W_diag_1": "-sech(v)", "W_diag_2": "sech(v)",
            "conformal_factor": "sech(v)^2",
            "phi_re": "-sech(v)/2", "phi_im": "0",
        },
    }


@_register("catenoid_frame_cylinder",
           "unit cylinder seen through a catenoid frame transported to cylindrical angles")
def _catenoid_frame_cylinder():
    F = [
        ["(y^2 + sech(z)*x^2)/(x^2 + y^2)",
         "x*y*(sech(z) - 1)/(x^2 + y^2)",
         "-tanh(z)*x/sqrt(x^2 + y^2)"],
        ["x*y*(sech(z) - 1)/(x^2 + y^2)",
         "(x^2 + sech(z)*y^2)/(x^2 + y^2)",
         "-tanh(z)*y/sqrt(x^2 + y^2)"],
        ["tanh(z)*x/sqrt(x^2 + y^2)",
         "tanh(z)*y/sqrt(x^2 + y^2)",
         "sech(z)"],
    ]
    return {
        "name": "catenoid_frame_cylinder",
        "ambient": {"type": "frame", "F": F},
        "surface": {"X": ["cos(u)", "sin(u)", "v"],
                    "domain": [[0.0, _TWO_PI], [-2.0, 2.0]],
                    "periodic": [True, False], "isothermal": True},
        "normal_axis": ["sech(z)*x/sqrt(x^2 + y^2)",
                        "sech(z)*y/sqrt(x^2 + y^2)",
                        "-tanh(z)"],
        "goldens": {
            "H": "0", "star_tau": "0", "K_e": "-sech(v)^2",
            "W_diag_1": "-sech(v)", "W_diag_2": "sech(v)",
        },
    }


@_register("cartan_schouten_sphere",
           "unit sphere in flat space with the torsionful constant-lambda connection")
def _cartan_schouten_sphere(lam=0.3):
    lam = _param_number(lam, "lambda")
    eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
           (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
    gamma = [[[str(lam * eps.get((i, j, k), 0)) if eps.get((i, j, k), 0) else "0"
               for j in range(3)] for i in range(3)] for k in range(3)]
    lam_s = repr(lam)
    return {
        "name": "cartan_schouten_sphere",
        "ambient": {"type": "coefficients", "g": _IDENTITY_F, "Gamma": gamma},
        "surface": {"X": ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)"],
                    "domain": [[0.0, math.pi], [0.0, _TWO_PI]],
                    "periodic": [False, True], "isothermal": False},
        "closed": True,
        "euler_characteristic": 2,
        "goldens": {
            "H": "-2", "star_tau": f"2*({lam_s})",
            "K_e": f"1 + ({lam_s})^2", "K": "1",
            "sec_ambient": f"-(({lam_s})^2)",
            "area": "4*pi", "total_curvature": "4*pi",
            "W_on_00": "-1", "W_on_01": f"-({lam_s})",
            "W_on_10": lam_s, "W_on_11": "-1",
        },
    }


@_register("round_sphere_standard",
           "round unit sphere in the standard Euclidean frame")
def _round_sphere_standard():
    r = "sqrt(x^2 + y^2 + z^2)"
    return {
        "name": "round_sphere_standard",
        "ambient": {"type": "frame", "F": _IDENTITY_F},
        "surface": {"X": ["sin(u)*cos(v)", "sin(u)*sin(v)", "cos(u)"],
                    "domain": [[0.0, math.pi], [0.0, _TWO_PI]],
                    "periodic": [False, True], "isothermal": False},
        "closed": True,
        "euler_characteristic": 2,
        "normal_axis": [f"x/{r}", f"y/{r}", f"z/{r}"],
        "goldens": {"H": "-2", "star_tau": "0", "K_e": "1", "K": "1",
                    "area": "4*pi", "area_density": "sin(u)"},
    }


@_register("torus_standard",
           "torus of revolution in the standard Euclidean frame")
def _torus_standard(R=2.0, r=0.5):
    R, r = _param_number(R, "R"), _param_number(r, "r")
    if r == 0.0:
        raise SceneFormatError("params.r", "expected a non-zero tube radius r")
    if not R > abs(r):
        raise SceneFormatError("params.R", f"expected R > |r| = {abs(r)!r}, got {R!r}")
    Rs, rs = repr(R), repr(r)
    rho = "sqrt(x^2 + y^2)"
    d = f"sqrt(({rho} - {Rs})^2 + z^2)"
    return {
        "name": "torus_standard",
        "ambient": {"type": "frame", "F": _IDENTITY_F},
        "surface": {
            "X": [f"(({Rs}) + ({rs})*cos(v))*cos(u)",
                  f"(({Rs}) + ({rs})*cos(v))*sin(u)",
                  f"({rs})*sin(v)"],
            "domain": [[0.0, _TWO_PI], [0.0, _TWO_PI]],
            "periodic": [True, True], "isothermal": False},
        "closed": True,
        "euler_characteristic": 0,
        "normal_axis": [f"({rho} - {Rs})/({d})*x/{rho}",
                        f"({rho} - {Rs})/({d})*y/{rho}",
                        f"z/({d})"],
        "goldens": {"star_tau": "0",
                    "K_e": f"cos(v)/(({rs})*(({Rs}) + ({rs})*cos(v)))",
                    "area": f"4*pi^2*({Rs})*({rs})"},
    }


# --- sample grids -------------------------------------------------------------------

# The Gauss-Legendre rules on [-1, 1] with 2 to GL_PANEL nodes, every count a
# panel can have: for each count, its nodes x >= 0 in ascending order, each with
# its weight, written as np.polynomial.legendre.leggauss gives them.  Its nodes
# are exactly odd and its weights exactly even in x, so the other half mirrors.
_GAUSS_LEGENDRE = {
    2: ((0.5773502691896257, 1.0),),
    3: ((0.0, 0.8888888888888888),
        (0.7745966692414834, 0.5555555555555557)),
    4: ((0.33998104358485626, 0.6521451548625464),
        (0.8611363115940526, 0.34785484513745357)),
    5: ((0.0, 0.5688888888888887),
        (0.5384693101056831, 0.4786286704993663),
        (0.906179845938664, 0.23692688505618928)),
    6: ((0.2386191860831969, 0.46791393457269104),
        (0.6612093864662645, 0.3607615730481387),
        (0.9324695142031519, 0.17132449237917027)),
    7: ((0.0, 0.4179591836734693),
        (0.4058451513773972, 0.3818300505051187),
        (0.7415311855993945, 0.27970539148927687),
        (0.9491079123427586, 0.12948496616886973)),
    8: ((0.18343464249564978, 0.36268378337836166),
        (0.525532409916329, 0.3137066458778869),
        (0.7966664774136267, 0.22238103445337443),
        (0.9602898564975362, 0.10122853629037706)),
    9: ((0.0, 0.33023935500125984),
        (0.3242534234038089, 0.3123470770400029),
        (0.6133714327005904, 0.2606106964029356),
        (0.8360311073266358, 0.18064816069485737),
        (0.9681602395076261, 0.08127438836157416)),
    10: ((0.14887433898163122, 0.2955242247147528),
         (0.4333953941292472, 0.2692667193099965),
         (0.6794095682990244, 0.219086362515982),
         (0.8650633666889845, 0.1494513491505804),
         (0.9739065285171717, 0.06667134430868814)),
    11: ((0.0, 0.2729250867779005),
         (0.26954315595234496, 0.26280454451024654),
         (0.5190961292068118, 0.23319376459199057),
         (0.7301520055740494, 0.1862902109277343),
         (0.8870625997680953, 0.12558036946490433),
         (0.978228658146057, 0.05566856711617393)),
    12: ((0.1252334085114689, 0.2491470458134027),
         (0.3678314989981802, 0.2334925365383546),
         (0.5873179542866175, 0.20316742672306573),
         (0.7699026741943047, 0.16007832854334642),
         (0.9041172563704748, 0.10693932599531907),
         (0.9815606342467192, 0.04717533638651141)),
    13: ((0.0, 0.23255155323087393),
         (0.2304583159551348, 0.22628318026289737),
         (0.44849275103644687, 0.2078160475368885),
         (0.6423493394403402, 0.17814598076194552),
         (0.8015780907333099, 0.13887351021978733),
         (0.9175983992229779, 0.0921214998377288),
         (0.9841830547185881, 0.04048400476531557)),
    14: ((0.10805494870734367, 0.21526385346315793),
         (0.31911236892788974, 0.20519846372129572),
         (0.5152486363581541, 0.18553839747793788),
         (0.6872929048116855, 0.15720316715819363),
         (0.827201315069765, 0.12151857068790331),
         (0.9284348836635735, 0.08015808715975999),
         (0.9862838086968124, 0.03511946033175175)),
    15: ((0.0, 0.2025782419255613),
         (0.20119409399743451, 0.1984314853271116),
         (0.3941513470775634, 0.1861610000155622),
         (0.5709721726085388, 0.16626920581699398),
         (0.7244177313601701, 0.13957067792615444),
         (0.8482065834104272, 0.10715922046717141),
         (0.9372733924007058, 0.0703660474881084),
         (0.9879925180204854, 0.030753241996117203)),
    16: ((0.09501250983763744, 0.18945061045506864),
         (0.2816035507792589, 0.18260341504492364),
         (0.45801677765722737, 0.16915651939500265),
         (0.6178762444026438, 0.1495959888165767),
         (0.755404408355003, 0.12462897125553407),
         (0.8656312023878318, 0.0951585116824926),
         (0.9445750230732326, 0.062253523938647456),
         (0.9894009349916499, 0.027152459411754176)),
}


def _gauss_legendre(count):
    """Nodes (ascending) and weights of the count-node Gauss-Legendre rule
    on [-1, 1], from _GAUSS_LEGENDRE."""
    x, w = np.array(_GAUSS_LEGENDRE[count]).T
    k = count // 2                  # the nodes x > 0: an odd rule's 0 is not mirrored
    return np.concatenate([-x[::-1][:k], x]), np.concatenate([w[::-1][:k], w])


def _axis_nodes(lo, hi, n, periodic):
    """Quadrature nodes/weights on one axis.

    Periodic: n uniform nodes, spacing weights (the periodic trapezoid
    rule).  Non-periodic: composite Gauss-Legendre with ceil(n/16)-panel
    split of n nodes, which keeps open-interval charts off their edges;
    each panel's rule (2 to 16 nodes) comes from a fixed table
    (_gauss_legendre), so the nodes do not depend on the machine's LAPACK.
    """
    n = int(n)
    if n < 2:
        raise ValueError("grid resolution must be at least 2 per axis")
    if periodic:
        h = (hi - lo) / n
        return lo + h * np.arange(n), np.full(n, h)
    panels = max(1, math.ceil(n / GL_PANEL))
    counts = [n // panels + (1 if i < n % panels else 0) for i in range(panels)]
    width = (hi - lo) / panels
    nodes, weights = [], []
    for i, c in enumerate(counts):
        x, w = _gauss_legendre(c)
        a = lo + i * width
        nodes.append(a + (x + 1.0) * 0.5 * width)
        weights.append(w * 0.5 * width)
    return np.concatenate(nodes), np.concatenate(weights)


class SampleGrid:
    """Deterministic tensor grid of surface samples with lazy field caches.

    A grid is read in chunks (chunks, map_chunks), the one layer that
    streams: row-major slices of CHUNK samples, each a SampleGrid.  verify,
    export_fields, integrate and gauss_degree build the blocks of one chunk,
    keep what they report (a residual or quadrature term per sample,
    gathered by collect; export_fields writes its rows) and drop the chunk
    before the next, so peak memory is set by the chunk and not by the
    grid.  Every block is pointwise in the samples, so a chunk's block is
    the matching slice of the whole grid's, bit for bit, and each max, mean
    or sum runs once over the per-sample values of every chunk in sample
    order: no report or export depends on the chunk size.  A guard in a
    chunk's block names its first bad sample by the index in the chunk;
    map_chunks makes it the grid's and adds its (u, v), so no error text
    depends on the chunk size either.  CHUNK is 4096 because a chunk's
    working set, about 2.4 KB a sample in a 128x128 verify, was over a
    third of that run's peak RSS at 8192, while at 2048 a 64x64 grid would
    run every program twice.

    Each block is built on first read and only then, so a chunk holds only
    what its readers read; a field with one reader is formed by that reader
    and held by it alone: W_on (extrinsic.weingarten_on, with base's B and
    Binv) in classify, and III (extrinsic.third_form) in holo:

        base          first-order geometry, jets and frame (Surface.base_fields);
                      everything
        comp          the surface-composition tables named in composition
                      (d_gammaS, dn_du, dn_dv, d_hopf) in one (u, v)
                      program, after base, each until its reader takes it:
                      intrinsic_K, gauss_dn, hopf_identity
        curvature     r4, R(Xu,Xv,Xv,Xu) (Surface.curvature_fields):
                      ambient_sanity, gauss_eq, egregium, hopf_identity
        ext           Weingarten map, H, star_tau, bold_H, K_e: most
                      suites, holo, classify (conformality, export)
        intrinsic_K   K of the induced connection, from d_gammaS: gauss_eq,
                      egregium, Gauss-Bonnet, export
        holo          Hopf data on isothermal charts: psi/hopf identities,
                      export
        gauss         Gauss map n, from base's frame_inv: gauge theorem,
                      degree, gauss_frames, export
        gauss_dn      its exact derivatives dn_du, dn_dv: divcurl,
                      conformality, degree
        gauss_frames  projected frames, from base's frame: divcurl,
                      gauge_general

    verify sets composition to the tables its planned suites read; it is
    empty by default, and take evaluates a table that comp lacks on its
    own, so export and integrate evaluate d_gammaS alone.  verify also sets
    with_compat when ambient_sanity runs: base's program then evaluates dg
    with the ambient's base group, and base holds the metric compatibility
    residual for ambient_sanity.  It is False by default.

    Row-major ordering: flat index = iu * nv + iv.  The interior mask
    excludes two grid widths at non-periodic edges and samples whose area
    density falls below 1e-6 (chart poles).  Every derivative is exact, so
    the edge margin protects no stencil; it stays because it fixes which
    samples the masked suites check, and the near-pole samples of polar
    charts it keeps out carry larger round-off (divcurl on
    round_sphere_standard at 24x24 is 1.0e-15 with it, 3.9e-14 without).
    """

    def __init__(self, scene, nu, nv):
        self.scene = scene
        self.surface = scene.surface
        (u0, u1), (v0, v1) = self.surface.domain
        self.u_nodes, self.u_weights = _axis_nodes(u0, u1, nu, self.surface.periodic[0])
        self.v_nodes, self.v_weights = _axis_nodes(v0, v1, nv, self.surface.periodic[1])
        self.nu, self.nv = len(self.u_nodes), len(self.v_nodes)
        UU, VV = np.meshgrid(self.u_nodes, self.v_nodes, indexing="ij")
        self.U, self.V = UU.ravel(), VV.ravel()
        self.weights = np.outer(self.u_weights, self.v_weights).ravel()
        self.offset = 0                 # index of the first sample in the grid
        self.composition = ()           # the tables of comp (verify sets them)
        self.with_compat = False        # base holds compat (verify sets it)

    # streaming -----------------------------------------------------------------

    def chunks(self):
        """The grid's samples as new SampleGrids over contiguous row-major
        slices of CHUNK samples, in order, one for a grid of at most CHUNK.
        A chunk keeps what its blocks read of this grid: the scene and
        surface, the composition and with_compat, and nu and nv (with the
        surface's domain, interior_mask's edge margin, so the mask is
        unchanged); it builds its blocks for its own samples, and offset is
        the index of its first sample in the grid."""
        for lo in range(0, self.U.shape[0], CHUNK):
            sl = slice(lo, lo + CHUNK)
            part = object.__new__(SampleGrid)
            for name in ("scene", "surface", "nu", "nv", "composition", "with_compat"):
                setattr(part, name, getattr(self, name))
            part.U, part.V, part.weights = self.U[sl], self.V[sl], self.weights[sl]
            part.offset = self.offset + lo
            yield part

    def map_chunks(self, work):
        """work(chunk) for each chunk in order, yielded as soon as it is
        computed.  An error raised by work that names a sample of the chunk
        names it by its index in this grid and its (u, v) (errors.located)."""
        for part in self.chunks():
            with located(part.U, part.V, part.offset - self.offset):
                out = work(part)
            yield out

    def collect(self, work):
        """{name: values} gathered over the chunks in order, where
        work(chunk) returns {name: values at some of the chunk's samples}.
        Each name fills one buffer of the grid's sample count, allocated
        once, and its result is the part filled: the one place where
        per-sample values cross chunks."""
        kept = {}               # name -> (buffer, count filled)
        for out in self.map_chunks(work):
            for name, values in out.items():
                buf, k = kept.get(name) or (
                    np.empty(self.U.shape[0], dtype=values.dtype), 0)
                buf[k:k + len(values)] = values
                kept[name] = buf, k + len(values)
        return {name: buf[:k] for name, (buf, k) in kept.items()}

    # lazy heavy blocks --------------------------------------------------------

    @cached_property
    def base(self):
        return self.surface.base_fields(self.U, self.V, self.with_compat)

    @cached_property
    def curvature(self):
        return self.surface.curvature_fields(self.base)

    @cached_property
    def ext(self):
        return extrinsic.extrinsic_fields(self.base)

    @cached_property
    def gauss(self):
        return gaussmap.gauss_field(self.base)

    @cached_property
    def gauss_dn(self):
        return require_finite("gauss_dn", self.take("dn_du", "dn_dv"))

    @cached_property
    def gauss_frames(self):
        return gaussmap.projected_frames(self.base, self.gauss)

    @cached_property
    def holo(self):
        return holo.holo_fields(self.ext)

    @cached_property
    def interior_mask(self):
        mask = self.base["area"] >= DENSITY_MASK_TOL
        for axis, (nodes, count) in enumerate(((self.U, self.nu), (self.V, self.nv))):
            if self.surface.periodic[axis]:
                continue
            lo, hi = self.surface.domain[axis]
            margin = 2.0 * (hi - lo) / count
            mask &= (nodes - lo >= margin) & (hi - nodes >= margin)
        return mask

    @cached_property
    def intrinsic_K(self):
        return self.surface.intrinsic_curvature(self.base, **self.take("d_gammaS"))

    @cached_property
    def comp(self):
        if not self.composition:
            return {}
        return self.surface.composition_at(self.U, self.V, self.composition)

    def take(self, *names):
        """The named surface-composition tables at these samples, as a
        dict, after base is built and checked: those that comp holds are
        removed from it (each has one reader per chunk, and none outlives
        it), and the rest are evaluated here as one (u, v) program.  This
        is the one place where a reader's composition tables are
        evaluated."""
        self.base                       # built and checked first
        out = {k: self.comp.pop(k) for k in names if k in self.comp}
        rest = tuple(k for k in names if k not in out)
        if rest:
            out.update(self.surface.composition_at(self.U, self.V, rest))
        return out

    # named scalar fields -----------------------------------------------------

    def area_terms(self, name):
        """Quadrature terms weight * f * area density of the named field at
        these samples: integrate sums them."""
        return self.weights * self.field(name) * self.base["area"]

    def degree_terms(self):
        """Quadrature terms weight * degree integrand (against du dv) at
        these samples: gauss_degree sums them."""
        return self.weights * gaussmap.degree_integrand(self.gauss, self.gauss_dn)

    def field(self, name):
        if name in ("one", "1"):
            return np.ones_like(self.U)
        if name == "K":
            return self.intrinsic_K
        simple = {
            "K_e": lambda: self.ext["K_e"],
            "H": lambda: self.ext["H"],
            "star_tau": lambda: self.ext["star_tau"],
            "abs_H": lambda: np.abs(self.ext["bold_H"]),
            "area_density": lambda: self.base["area"],
            "abs_phi": lambda: np.abs(self.holo["phi"]),
            "abs_psi": lambda: np.abs(self.holo["psi"]),
        }
        if name not in simple:
            raise UndefinedField(f"no field named {name!r}")
        return simple[name]()


def make_grid(scene, nu, nv) -> SampleGrid:
    return SampleGrid(scene, nu, nv)


@np.errstate(all="ignore")
def integrate(grid: SampleGrid, field) -> float:
    """Integral of the named scalar field against the surface area form:
    one sum over the area terms of every chunk."""
    terms = grid.collect(lambda part: {field: part.area_terms(field)})
    return float(np.sum(terms[field]))


def require_closed(scene):
    """Raise NotClosed unless the scene's chart covers a closed surface:
    both axes periodic, or the scene declared closed with the area density
    vanishing at the non-periodic edges (polar charts).  The edges are
    probed in a base block's programs, the density read before the
    degenerate-chart guard it trips, and a probe error located by (u, v)."""
    surf = scene.surface
    if not scene.closed_chart:
        raise NotClosed("Gauss-map degree needs a closed surface chart")
    probes = []
    for axis in (0, 1):
        if surf.periodic[axis]:
            continue
        lo, hi = surf.domain[axis]
        for edge in (lo, hi):
            uv = [0.5 * sum(surf.domain[0]), 0.5 * sum(surf.domain[1])]
            uv[axis] = edge + (1e-7 if edge == lo else -1e-7) * surf.extent(axis)
            probes.append(uv)
    if not probes:
        return
    U, V = np.array(probes).T
    amb = surf.ambient
    with located(U, V):
        jets = surf.jets(U, V)
        tables = dict(zip(amb.base_names, amb.fields_at(amb.bindings(jets["p"]),
                                                        amb.base_names)))
        det2 = induced_metric("base", jets, tables)["det2"]
    if np.any(det2 > 1e-6):         # an area density above 1e-3
        raise NotClosed("non-periodic axis without vanishing density at its edge")


def degree_from(total):
    """{degree, residual, raw} from the degree integral total, the sum of
    the degree terms over the grid; residual beyond 1e-3 fails loudly."""
    raw = float(total / (4.0 * math.pi))
    degree = int(round(raw))
    residual = abs(raw - degree)
    if residual > 1e-3:
        raise NotClosed(
            f"degree integral {raw!r} is not within 1e-3 of an integer")
    return {"degree": degree, "residual": residual, "raw": raw}


@np.errstate(all="ignore")
def gauss_degree(grid: SampleGrid):
    """Mapping degree of the Gauss map on a closed chart (require_closed).
    Returns {degree, residual, raw}; residual beyond 1e-3 fails loudly."""
    require_closed(grid.scene)
    terms = grid.collect(lambda part: {"degree": part.degree_terms()})
    return degree_from(np.sum(terms["degree"]))


# --- field export --------------------------------------------------------------------

EXPORT_COLUMNS = [
    "u", "v", "p_x", "p_y", "p_z", "H", "star_tau", "K_e", "K_intrinsic",
    "abs_phi", "abs_psi", "n_1", "n_2", "n_3", "flags",
]


def _cells(col, fmt):
    """The cells of one column of 8-byte numbers as an object array of
    text, fmt applied once to each distinct value.  Values are keyed by
    their bits, so 0.0 and -0.0 (equal as floats) keep their own text."""
    distinct, inverse = np.unique(col.view(np.int64), return_inverse=True)
    text = [fmt % x for x in distinct.view(col.dtype).tolist()]
    return np.array(text, dtype=object)[inverse]


def format_rows(cols):
    """Rows of text from the columns of one chunk: each float column of
    cols[:-1] as "%.17g" and the integer column cols[-1] as "%d", comma
    separated, one LF-terminated row per sample.  Each distinct value of a
    column is formatted once; the cells are laid row by row into one flat
    array and joined once."""
    cells = np.empty((len(cols[-1]), len(cols)), dtype=object)
    for j, col in enumerate(cols[:-1]):
        cells[:, j] = _cells(np.ascontiguousarray(col, dtype=np.float64), "%.17g,")
    cells[:, -1] = _cells(np.asarray(cols[-1], dtype=np.int64), "%d\n")
    return "".join(cells.ravel().tolist())


def export_columns(part, tol):
    """The EXPORT_COLUMNS of one chunk as arrays, flags last (an integer
    array); tol is the classifiers' tolerance."""
    scene, base, ext = part.scene, part.base, part.ext
    n = part.U.shape[0]
    abs_phi = abs_psi = np.full(n, np.nan)
    if scene.surface.declared_isothermal:
        hol = part.holo
        abs_phi, abs_psi = np.abs(hol["phi"]), np.abs(hol["psi"])
    nf = part.gauss["n"] if scene.ambient.kind == "frame" else np.full((n, 3), np.nan)
    cls = extrinsic.classify(ext, tol=tol)
    flags = (cls["umbilic"].astype(int)
             + 2 * cls["minimal_point"].astype(int)
             + 4 * cls["geodesic_point"].astype(int))
    p = base["p"]
    return [part.U, part.V, p[:, 0], p[:, 1], p[:, 2],
            ext["H"], ext["star_tau"], ext["K_e"], part.intrinsic_K, abs_phi, abs_psi,
            nf[:, 0], nf[:, 1], nf[:, 2], flags]


@np.errstate(all="ignore")
def export_fields(grid: SampleGrid, path):
    """Tabular export: one row per sample, 17 significant digits, LF line
    endings, deterministic row-major ordering.

    The optional columns follow the scene's declarations, as verify's
    suites do: abs_phi/abs_psi are filled if and only if the chart is
    declared isothermal (surface.isothermal; NotIsothermal where it is not
    isothermal after all), n_i if and only if the ambient is frame-defined,
    and are blank (nan) otherwise.  flags packs the classifiers as bit 1 =
    umbilic, 2 = minimal, 4 = geodesic, at the scene's "classify" tolerance
    (default extrinsic.CLASSIFY_TOL).

    Each chunk's rows are written as soon as they are ready.  The file is
    opened once the first chunk's rows are, so an error there leaves no
    file; an error in a later chunk removes the partial file.
    """
    tol = grid.scene.tolerances.get("classify", extrinsic.CLASSIFY_TOL)
    fh = None
    try:
        for text in grid.map_chunks(
                lambda part: format_rows(export_columns(part, tol))):
            if fh is None:
                fh = open(path, "w", encoding="utf-8", newline="\n")
                fh.write(",".join(EXPORT_COLUMNS) + "\n")
            fh.write(text)
        fh.close()
    except BaseException as err:
        if fh is not None:
            with contextlib.suppress(OSError):  # a full disk fails the close again
                fh.close()
            if os.path.isfile(path):
                os.remove(path)
        if isinstance(err, OSError):
            raise IoError(f"cannot write field export {path!r}: {err}") from err
        raise
