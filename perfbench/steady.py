"""Steadiness check: do two sets of runs of the same code agree?

Usage, from the repository root::

    python3 perfbench/steady.py [--runs 10] [--workloads paper-cold,...]
                                [--seconds S] [--first-seed 1] [--trace 0|1]

For each workload, run ``i`` uses seed ``first-seed + i`` twice, once in
set A and once in set B, alternating which set goes first. With
``--trace 0`` it prints, per end-to-end metric and set, the median, the
quartiles and the spread (quartile distance over median) against the
metric's bound in ``BENCHMARK.json``, and the shift of set B's median
from set A's. It confirms that the deterministic metrics and the share of
failed operations are identical for the same seed. With ``--trace 1`` it
does the same for the per-layer metrics (counts must repeat exactly) and
prints the tracing overhead against the last ``--trace 0`` summary.

Exit status 1 means a spread or shift beyond its bound, or a
deterministic metric that differed between two runs of one seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

#: End-to-end metrics that are outputs of the simulated design (or of
#: byte counts) and must not move at all between runs of one seed.
DETERMINISTIC = ("cache_kb_per_cell", "eewa_energy_ratio", "eewa_time_ratio")


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed ({done.returncode}):\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    path = os.path.join(RUNS_DIR, f"{workload}-s{seed}-t{trace}.json")
    with open(path, encoding="utf-8") as fh:
        result["report"] = json.load(fh)
    return result


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else 0.0


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``."""
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        config = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in config["workloads"]))
    parser.add_argument("--seconds", type=float, default=config["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2 (quartiles need two values)")
    specs = {m["name"]: m for m in config["per_layer" if args.trace else "end_to_end"]}
    os.makedirs(RUNS_DIR, exist_ok=True)
    ok = True
    for workload in args.workloads.split(","):
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for i in range(args.runs):
            seed = args.first_seed + i
            for name in ("AB" if i % 2 == 0 else "BA"):
                result = run_once(workload, seed, args.seconds, args.trace)
                sets[name].append(result)
                print(f"  {name} seed {seed}: " + " ".join(
                    f"{metric}={result['metrics'][metric]['value']:.4g}" for metric in specs
                ), flush=True)
        print(f"\n== {workload}: {args.runs} seeds x 2 sets, {args.seconds:g} s, trace {args.trace}")
        summary = {}
        for metric, spec in specs.items():
            line = [f"{metric:38s}"]
            medians = {}
            for name, runs in sets.items():
                values = [r["metrics"][metric]["value"] for r in runs]
                median, q1, q3, share = spread(values)
                medians[name] = median
                bound = spec.get("bound")
                flag = "" if bound is None or share <= bound / 3 else (
                    " NOISY" if share <= bound else " OVER")
                if bound is not None and share > bound:
                    ok = False
                line.append(f"{name}: {median:.6g} [{q1:.6g}, {q3:.6g}] spread {share:.3f}{flag}")
            shift = worse_by(medians["A"], medians["B"], spec["better"])
            if "bound" in spec:
                line.append(f"B worse by {shift:+.3f} (bound {spec['bound']})")
                if shift > spec["bound"]:
                    ok = False
            summary[metric] = medians
            print("  ".join(line))
        deterministic = (
            DETERMINISTIC if not args.trace
            else [m for m, s in specs.items() if s["unit"] == "count"]
        )
        for a, b in zip(sets["A"], sets["B"]):
            for metric in deterministic:
                if a["metrics"][metric]["value"] != b["metrics"][metric]["value"]:
                    ok = False
                    print(f"  DIFFERS: {metric} {a['metrics'][metric]} vs {b['metrics'][metric]}")
        shares = {r["failed"] / r["attempted"] for runs in sets.values() for r in runs}
        print(f"  failed share over all runs: {sorted(shares)}")
        ok = ok and len(shares) == 1
        if args.trace:
            untraced = os.path.join(RUNS_DIR, f"steady-{workload}-t0.json")
            if os.path.exists(untraced):
                with open(untraced, encoding="utf-8") as fh:
                    base = json.load(fh)
                for metric in ("cells_per_s", "request_p50_ms"):
                    traced = statistics.median(
                        r["report"]["e2e"][metric][0] for runs in sets.values() for r in runs
                    )
                    print(f"  tracing overhead on {metric}: traced {traced:.6g} vs "
                          f"untraced {base[metric]['A']:.6g}")
        with open(os.path.join(RUNS_DIR, f"steady-{workload}-t{args.trace}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(summary, fh, indent=1)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
