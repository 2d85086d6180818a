"""``repro serve`` with the benchmark's layer wrappers installed.

Usage (run by ``loads.ServerChild`` in a traced run)::

    python3 perfbench/traced_serve.py --spans PATH serve [serve options]

Wraps the same layer functions as the in-process traced run, then runs
the ``repro`` command line unchanged. When the server stops (SIGINT
drains it), every span is written to ``PATH`` as JSON lines.
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import spans  # noqa: E402
from repro import cli  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[0] != "--spans":
        print(__doc__, file=sys.stderr)
        return 2
    path, serve_argv = argv[1], argv[2:]
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    tracer.active = True
    try:
        return cli.main(serve_argv)
    finally:
        tracer.active = False
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
