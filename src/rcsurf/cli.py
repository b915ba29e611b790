"""Batch command-line entry point.

Subcommands: verify (run suites, exit 0 iff all pass), fields (export a
sample grid), integrate (one named field), list (built-in scenes).
Exit codes: 0 success, 1 verification failure, 2 input or configuration
error, an output that cannot be written or a grid that does not fit in
memory.  Grid work is vectorized and deterministic, so reports and exports
are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import scenes, verify
from .errors import IoError, RcsurfError, SceneFormatError

__all__ = ["main"]

# what each command writes to --out, as its error messages name it
_OUTPUTS = {"verify": "report", "fields": "field export"}


def _add_scene_args(p):
    p.add_argument("--scene", help="path to a .rcscene document")
    p.add_argument("--builtin", help="name of a built-in scene")
    p.add_argument("--param", action="append", default=[], metavar="K=V",
                   help="builtin parameter, repeatable (e.g. lambda=0.5)")
    p.add_argument("--grid", default="32x32", metavar="NxM",
                   help="grid resolution, at least 8 per axis")


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="rcsurf",
        description="Surfaces in Riemann-Cartan 3-manifolds: residual "
                    "verification, field export, integrals.")
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run verification suites")
    _add_scene_args(v)
    v.add_argument("--tol", default="analytic",
                   help="tolerance tier (analytic, strict) or a finite positive number")
    v.add_argument("--suite", help="comma-separated suite names (default: all)")
    v.add_argument("--out", help="write the JSON report here")

    f = sub.add_parser("fields", help="export per-sample fields")
    _add_scene_args(f)
    f.add_argument("--out", required=True, help="output table path")

    i = sub.add_parser("integrate", help="integrate a named field")
    _add_scene_args(i)
    i.add_argument("--field", required=True,
                   help="field name: one (or 1), K, K_e, H, star_tau, abs_H, "
                        "area_density, abs_phi, abs_psi")

    sub.add_parser("list", help="list built-in scenes")
    return ap


def _parse_params(items):
    """--param K=V items as factory keyword arguments: a comma list is a
    tuple of numbers, a number a float, anything else stays text for the
    built-in to check (a bad value is reported as params.K)."""
    out = {}
    for item in items:
        if "=" not in item:
            raise ValueError(f"--param needs K=V, got {item!r}")
        name, val = (part.strip() for part in item.split("=", 1))
        key = "lam" if name == "lambda" else name   # python keyword
        if "," in val:
            try:
                out[key] = tuple(float(x) for x in val.split(","))
            except ValueError:
                raise SceneFormatError(f"params.{name}",
                                       f"expected numbers separated by commas, "
                                       f"got {val!r}") from None
        else:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def _load(args):
    if bool(args.scene) == bool(args.builtin):
        raise ValueError("exactly one of --scene or --builtin is required")
    if args.scene:
        return scenes.load_scene(args.scene)
    return scenes.builtin(args.builtin, **_parse_params(args.param))


def _grid_shape(text):
    try:
        nu, nv = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise ValueError(f"--grid needs NxM, got {text!r}") from None
    if nu < 8 or nv < 8:
        raise ValueError("grid resolution must be at least 8 per axis")
    return nu, nv


def _writable(path, what):
    """Raise the IoError that writing what to path would raise, before any
    grid work is spent on it.  path is left as it was: an existing file is
    opened for appending and kept, a probe file is removed again."""
    existed = os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as err:
        raise IoError(f"cannot write {what} {path!r}: {err}") from err
    if not existed:
        os.remove(path)


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # No floating-point warnings: every non-finite block value and
        # residual stops the run as a NonFiniteValue naming it (exit 2).
        with np.errstate(all="ignore"):
            return _run(args)
    except (RcsurfError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: --grid {args.grid}: not enough memory for this grid",
              file=sys.stderr)
        return 2


def _run(args):
    if args.command == "list":
        for name in scenes.builtin_names():
            print(f"{name:<26} {scenes.builtin_provenance(name)}")
        return 0

    scene = _load(args)
    nu, nv = _grid_shape(args.grid)
    if args.command in _OUTPUTS and args.out:
        _writable(args.out, _OUTPUTS[args.command])

    if args.command == "verify":
        suites = args.suite.split(",") if args.suite else None
        report = verify.run_verification(scene, nu, nv, suites=suites, tol=args.tol)
        print(f"scene {scene.name} ({report.grid_shape[0]}x{report.grid_shape[1]})")
        for line in report.summary_lines():
            print(line)
        if args.out:
            try:
                with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                    fh.write(report.to_json())
            except OSError as err:
                raise IoError(f"cannot write report {args.out!r}: {err}") from err
        return 0 if report.passed else 1

    grid = scenes.make_grid(scene, nu, nv)
    if args.command == "fields":
        scenes.export_fields(grid, args.out)
        print(f"wrote {grid.U.shape[0]} samples to {args.out}")
        return 0
    if args.command == "integrate":
        value = scenes.integrate(grid, args.field)
        print(f"{value:.17g}")
        return 0
    raise ValueError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
