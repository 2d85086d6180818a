"""Repository benchmark: one closed-loop workload, end to end.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` wraps one
public function per layer (see ``spans.py``) and reports the per-layer
metrics instead. The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

A run exits 0 when every correctness check passes, 1 when one fails and
2 when the program under ``src/`` cannot be imported. Each run also
writes a full report (both metric sets, set-up samples, server samples)
to ``.perfbench-runs/<workload>-s<seed>-t<trace>.json``, and a traced run
writes its spans next to it as JSON lines.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper-cold", "longhorizon-auto", "remote-rerun")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and stop")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def import_program() -> bool:
    """Put ``src/`` first on the path; False if the program is not there."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {src}: {exc}", file=sys.stderr)
        return False
    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: repro resolves outside {src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)
    if not import_program():
        return 2
    import bench

    return bench.main(args, _STARTED)


if __name__ == "__main__":
    sys.exit(main())
