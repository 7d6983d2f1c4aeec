"""Start ``repro.serving`` the way ``python -m repro.serving`` does.

Usage::

    python3 perfbench/serve_launcher.py [--trace-dir DIR] -- <repro.serving args>

Without ``--trace-dir`` this is exactly ``python -m repro.serving``.  With
it, the layer wrappers are installed before the server is built, spans
are recorded while the shared flag in ``DIR`` says so, and the server's
spans are written to ``DIR`` when it exits (a SIGKILLed server writes
none).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    trace_dir = None
    if argv[:1] == ["--trace-dir"]:
        trace_dir = Path(argv[1])
        argv = argv[2:]
    if argv[:1] == ["--"]:
        argv = argv[1:]
    from repro.serving.__main__ import main as serve

    if trace_dir is None:
        return serve(argv)
    from spans import Tracer, install_layers

    tracer = Tracer(trace_dir / "trace.flag")
    patches = install_layers(tracer)
    try:
        return serve(argv)
    finally:
        patches.restore()
        tracer.dump(trace_dir / f"spans-{os.getpid()}.json", "server")
        tracer.close()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
