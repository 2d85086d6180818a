"""The benchmark run: set-up, timed phase, checks and metrics.

Imported by ``run.py`` once ``src/`` is on the import path.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import loads
import props
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_SCRIPT = os.path.join(HERE, "run.py")
RUNS_DIR = os.path.join(ROOT, ".perfbench-runs")

#: Rounds that every run completes before the clock may stop it. The
#: deterministic metrics (memory, cache bytes, EEWA ratios, per-layer
#: counts) are taken over exactly these rounds, so they do not depend on
#: how many rounds a fast or slow host fits into ``--seconds``.
FIXED_ROUNDS = 2

#: Fresh processes that repeat the set-up, one after each stretch of
#: ``seconds / SETUP_PROBES`` of the timed phase (outside its clock), so
#: that ``setup_s`` is the median of samples spread over the whole run,
#: not taken at one moment of a host whose speed drifts.
SETUP_PROBES = 6


def make_load(args, workdir):
    if args.workload == "paper-cold":
        return loads.PaperCold(args.seed, workdir)
    if args.workload == "longhorizon-auto":
        return loads.LongHorizonAuto(args.seed, workdir)
    return loads.RemoteRerun(args.seed, workdir, root=ROOT, traced=bool(args.trace))


def probe_setup(args) -> float:
    """The set-up time of a fresh process doing this run's set-up."""
    argv = [sys.executable, RUN_SCRIPT, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0", "--setup-only"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


class Phase:
    """What the timed phase observed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.timed_s = 0.0
        self.latencies: list[float] = []
        self.first_cell: list[float] = []
        #: (workload, policies) and (round, position in round), from 1,
        #: of each timed request.
        self.labels: list[str] = []
        self.slots: list[tuple[int, int]] = []
        self.rounds: list[list] = []
        self.snapshot: dict = {}
        self.counts: dict = {}

    @property
    def cells(self) -> list:
        return [cell for round_cells in self.rounds for cell in round_cells]

    @property
    def fixed_cells(self) -> list:
        return [cell for round_cells in self.rounds[:FIXED_ROUNDS] for cell in round_cells]


def timed_phase(load, seconds: float, tracer, between_rounds=None) -> Phase:
    """Whole rounds until ``seconds`` of request time have passed.

    The clock runs only while a request is outstanding: the caller's own
    bookkeeping between requests, the server restarts between rounds of
    remote-rerun and ``between_rounds(timed seconds so far)`` are not
    timed.
    """
    phase = Phase()
    stats_before = load.stats()
    index = 0
    while index < FIXED_ROUNDS or phase.timed_s < seconds:
        index += 1
        load.before_round()
        round_cells = []
        for slot, request in enumerate(load.round_requests(), 1):
            phase.attempted += 1
            if tracer is not None:
                tracer.begin_request(phase.attempted)
            started = time.perf_counter()
            try:
                first, raw = load.execute(request)
            except Exception:  # a failed request is counted, the loop goes on
                phase.failed += 1
                traceback.print_exc()
                continue
            finished = time.perf_counter()
            phase.timed_s += finished - started
            phase.latencies.append(finished - started)
            phase.first_cell.append(first - started)
            phase.labels.append(
                f"{request.workload}:{'/'.join(d['policy'] for d in request.scenarios)}"
            )
            phase.slots.append((index, slot))
            round_cells.extend(load.cells(request, raw))
        load.after_round()
        if between_rounds is not None:
            between_rounds(phase.timed_s)
        if not round_cells:
            raise RuntimeError(f"every request of round {index} failed")
        phase.rounds.append(round_cells)
        if index == FIXED_ROUNDS:
            phase.snapshot = load.snapshot()
            after = load.stats()
            phase.counts = {k: after[k] - stats_before.get(k, 0) for k in after}
    return phase


def run_checks(load, phase: Phase) -> list[str]:
    failures = props.cell_invariants(phase.cells, makespan_cells=phase.fixed_cells)
    if isinstance(load, loads.LongHorizonAuto):
        # Fig. 6/7 is the paper's 12-batch setting. At 120 batches it does
        # not hold on every seed, in full simulation too (README.md), and
        # a check that fails on some seeds only cannot gate a run.
        first = phase.rounds[0]
        failures += props.model_envelope(first, load.envelope_benchmarks)
        ff_cells = [c for c in first if c.batches_fast_forwarded > 0][:2]
        failures += props.ff_parity(load.session, ff_cells)
    else:
        failures += props.paper_claims(phase.cells)
    if isinstance(load, loads.RemoteRerun):
        failures += load.mismatches
        for index, stats in enumerate(load.server_stats, 1):
            if stats["executed"] or stats["model_cells"]:
                failures.append(f"round {index}: the server computed cells: {stats}")
        for requested, terminal in load.terminals:
            if terminal["cells"] != requested or terminal["streamed"] != requested:
                failures.append(f"end frame {terminal} for {requested} cells")
        expected_frames = sum(n for n, _ in load.terminals)
        if load.frames != expected_frames:
            failures.append(f"{load.frames} cell frames for {expected_frames} cells")
    return failures


def end_to_end(phase: Phase, setup_samples: list[float]) -> dict:
    energy, makespan = props.eewa_ratios(phase.fixed_cells)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "cells_per_s": (len(phase.cells) / phase.timed_s, "1/s"),
        "request_p50_ms": (1e3 * statistics.median(phase.latencies), "ms"),
        "first_cell_p50_ms": (1e3 * statistics.median(phase.first_cell), "ms"),
        "peak_rss_mb": (phase.snapshot["peak_rss_mb"], "MB"),
        "cache_kb_per_cell": (phase.snapshot["cache_kb_per_cell"], "KB"),
        "eewa_energy_ratio": (energy, "1"),
        "eewa_time_ratio": (makespan, "1"),
    }


def service_overhead_ms(table, phase: Phase) -> float:
    """Mean remote request time not spent in the layers under the service.

    Server ``r - 1`` serves round ``r``; its request ids number the
    round's requests from 1 (0 is the warm-up). The layer calls a request makes
    directly under the service's own spans (``service.parse``,
    ``service.stream``) are its in-process work; the rest of the client's
    request time is the service: transport, HTTP, frame encoding and
    decoding. Both sides are measured in the same request, so the
    difference does not mix two moments of a host whose speed drifts.
    """
    inner: dict = {}
    for span in table.spans:
        parent = table.parent_of(span)
        if parent is not None and parent[3].startswith("service.") \
                and not span[3].startswith("service."):
            key = (span[-1], span[2])
            inner[key] = inner.get(key, 0.0) + span[5] - span[4]
    overheads = [
        latency - inner.get((f"server-{index - 1}", slot), 0.0)
        for latency, (index, slot) in zip(phase.latencies, phase.slots)
    ]
    return 1e3 * statistics.fmean(overheads)


def per_layer(args, load, phase: Phase, tracer) -> dict:
    collected = spans.tagged(tracer.spans, "client")
    remote = isinstance(load, loads.RemoteRerun)
    if remote:
        for index, path in enumerate(load.span_files):
            collected += spans.tagged(spans.load_spans(path), f"server-{index}")
    table = spans.SpanTable(collected)
    path = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-spans.jsonl")
    with open(path, "w", encoding="utf-8") as fh:
        for span in collected:
            fh.write(json.dumps(dict(zip(spans.FIELDS + ("process",), span))) + "\n")
    return spans.layer_metrics(
        table,
        requests=phase.attempted,
        fixed_cells=phase.fixed_cells,
        all_cells=phase.cells,
        counts=phase.counts,
        frame_kb=load.frame_bytes / load.frames / 1024.0 if remote else 0.0,
        service_overhead_ms=service_overhead_ms(table, phase) if remote else 0.0,
    )


def main(args, started: float) -> int:
    """One benchmark run; ``started`` is when the process began."""
    os.makedirs(RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUNS_DIR)
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        spans.install_layers(tracer)
        tracer.active = True
    load = make_load(args, workdir)
    try:
        load.setup()
        setup_samples = [time.perf_counter() - started]
        if args.setup_only:
            print(json.dumps({"setup_s": setup_samples[0]}))
            return 0
        probes = SETUP_PROBES if tracer is None else 0

        def probe_due(timed_s: float) -> None:
            taken = len(setup_samples) - 1
            if taken < probes and timed_s >= taken * args.seconds / probes:
                setup_samples.append(probe_setup(args))

        phase = timed_phase(load, args.seconds, tracer, probe_due)
        if tracer is not None:
            tracer.active = False
        while len(setup_samples) <= probes:  # due after the last round
            setup_samples.append(probe_setup(args))
        failures = run_checks(load, phase)
        report = {
            "e2e": end_to_end(phase, setup_samples),
            "setup_samples": setup_samples,
            "counts": phase.counts,
            "rounds": len(phase.rounds),
            "timed_s": phase.timed_s,
            "requests": [[label, 1e3 * latency] for label, latency
                         in zip(phase.labels, phase.latencies)],
            "failures": failures,
        }
        if isinstance(load, loads.RemoteRerun):
            report["server_start_s"] = load.server_start_s
        if tracer is not None:
            report["layers"] = per_layer(args, load, phase, tracer)
    finally:
        load.close()
        shutil.rmtree(workdir, ignore_errors=True)
    path = os.path.join(RUNS_DIR, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    metrics = report["layers"] if tracer is not None else report["e2e"]
    print(json.dumps({
        "correct": not failures,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not failures else 1
