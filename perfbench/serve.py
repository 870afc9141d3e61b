"""Run ``repro serve`` in this process, as the CLI does.

    python3 perfbench/serve.py [--spans FILE] <repro serve arguments>

With ``--spans``, the traced run's wrappers are installed first and the
spans of requests whose trace id carries the traced prefix are written
to FILE when the server stops (Ctrl-C / SIGINT).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    from repro import cli, obs

    spans_path = None
    if argv[:1] == ["--spans"]:
        spans_path, argv = Path(argv[1]), argv[2:]
    tracer = None
    if spans_path is not None:
        import layers
        from tracer import TRACED_PREFIX, Tracer

        def traced_request():
            context = obs.current_context()
            if context is not None and context.trace_id.startswith(TRACED_PREFIX):
                return context.trace_id
            return None

        tracer = Tracer("s", traced_request)
        layers.install(tracer, server=True)
    try:
        return cli.main(["serve", *argv])
    finally:
        if tracer is not None:
            spans_path.write_text(json.dumps(tracer.dump()))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
