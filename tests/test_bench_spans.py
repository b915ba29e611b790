"""The benchmark's layer spans (bench/spans.py) on this package: each layer
it wraps is still a plain function under its name, and a traced run of
verify, fields and integrate records a span for every wrapped layer that
the run reaches.  bench/spans.py is only read here."""

import importlib
import inspect
import pathlib
import types

from rcsurf import cli

SPANS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"

# wrapped layers that no library path of these runs calls: the two Ambient
# methods have no library caller, and catenoid_frame_plane is no closed chart
NOT_REACHED = {"ambient.christoffel_at", "ambient.curvature_at", "scenes.gauss_degree"}


def _spans():
    """bench/spans.py as a module, run from its text (no bytecode cache is
    written next to it)."""
    mod = types.ModuleType("spans")
    mod.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), mod.__dict__)
    return mod


def _owner(mod_name, cls_name):
    owner = importlib.import_module(f"rcsurf.{mod_name}")
    return owner if cls_name is None else getattr(owner, cls_name)


def test_every_wrapped_layer_is_a_plain_function():
    """spans._wrap replaces vars(owner)[name] with a plain function that
    passes its arguments through, so each layer must be one: a wrapped
    staticmethod would be called with self and fail every traced op."""
    spans = _spans()
    for mod_name, cls_name, fn_name in spans.LAYERS:
        attr = vars(_owner(mod_name, cls_name)).get(fn_name)
        assert inspect.isfunction(attr), (mod_name, cls_name, fn_name)


def test_traced_commands_record_every_reached_layer(monkeypatch, tmp_path):
    spans = _spans()
    for mod_name, cls_name, fn_name in spans.LAYERS:      # restored after the test
        owner = _owner(mod_name, cls_name)
        monkeypatch.setattr(owner, fn_name, vars(owner)[fn_name])
    recorder = spans.Recorder(memory=False)
    spans.install(recorder)
    scene = ["--builtin", "catenoid_frame_plane", "--grid", "8x8"]
    assert cli.main(["verify", *scene]) == 0
    assert cli.main(["fields", *scene, "--out", str(tmp_path / "f.csv")]) == 0
    assert cli.main(["integrate", *scene, "--field", "K"]) == 0
    names = {f"{mod_name}.{fn_name}" for mod_name, _, fn_name in spans.LAYERS}
    stats = spans.layer_stats(recorder.spans)
    assert set(stats) == names - NOT_REACHED
    assert stats["cli.main"]["calls"] == 3
    assert [s[0] for s in recorder.spans if s[3] == -1] == ["cli.main"] * 3
