"""One rcsurf process of a benchmark op.

    python3 bench/child.py SIDECAR MODE CLI_ARGS...

Runs `rcsurf.cli.main(CLI_ARGS)` from the checkout's `src/` and exits with
its code, as `python -m rcsurf.cli CLI_ARGS` would.  Around it:

- `scenes.builtin` is wrapped to note `time.monotonic()` when the scene is
  built and validated.  The parent subtracts its spawn time to get setup_s.
  The scene is built once, by the CLI itself.
- MODE "spans" records spans in memory for every layer in spans.LAYERS.
  MODE "memory" does the same with tracemalloc on, for the per-span peaks.
  MODE "plain" does neither.

At exit SIDECAR receives {"built_at", "python", "numpy", "spans"} as JSON.
"""

import json
import os
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy  # noqa: E402
from rcsurf import cli, scenes  # noqa: E402

import spans  # noqa: E402


def main():
    sidecar, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    info = {"built_at": None, "python": sys.version.split()[0],
            "numpy": numpy.__version__, "spans": []}
    build = scenes.builtin

    def timed_builtin(*args, **kwargs):
        scene = build(*args, **kwargs)
        info["built_at"] = time.monotonic()
        return scene

    scenes.builtin = timed_builtin
    recorder = None
    if mode in ("spans", "memory"):
        recorder = spans.Recorder(memory=mode == "memory")
        spans.install(recorder)
        if recorder.memory:
            tracemalloc.start()
    try:
        code = cli.main(argv)
    except SystemExit as stop:          # argparse rejects the arguments
        code = stop.code
    finally:
        if recorder is not None:
            info["spans"] = recorder.spans
        tracemalloc.stop()
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(info, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
