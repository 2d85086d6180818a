"""Fast tests of the benchmark: each workload at a tiny size through its checks.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import types

import pytest

import bench
import loads
import props
import spans

TINY_BENCHMARKS = ("SHA-1", "DMC")


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload: one round over two Table II benchmarks."""
    monkeypatch.chdir(bench.ROOT)
    monkeypatch.setattr(bench, "FIXED_ROUNDS", 1)
    monkeypatch.setattr(loads, "BENCHMARK_NAMES", TINY_BENCHMARKS)
    monkeypatch.setattr(loads, "LONG_BATCHES", 40)
    monkeypatch.setattr(loads, "FF_REQUESTS", 1)
    monkeypatch.setattr(loads, "FF_SEEDS", 1)
    monkeypatch.setattr(loads, "REMOTE_SEEDS", 1)
    os.makedirs(bench.RUNS_DIR, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="test-", dir=bench.RUNS_DIR)
    yield workdir
    shutil.rmtree(workdir, ignore_errors=True)


def run_tiny(load, tracer=None):
    load.setup()
    try:
        phase = bench.timed_phase(load, 1e-9, tracer)
        failures = bench.run_checks(load, phase)
    finally:
        load.close()
    return phase, failures


def assert_whole_run(phase, failures):
    assert failures == []
    assert phase.failed == 0 and phase.attempted == len(phase.latencies)
    metrics = bench.end_to_end(phase, [1.0])
    assert set(metrics) == {m["name"] for m in benchmark_config()["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())


def benchmark_config() -> dict:
    with open(os.path.join(bench.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_paper_cold_tiny(tiny):
    phase, failures = run_tiny(loads.PaperCold(5, tiny))
    assert_whole_run(phase, failures)
    assert {c.policy for c in phase.cells} == {"cilk", "cilk-d", "wats", "eewa"}
    assert all(c.source == "sim" and not c.from_cache for c in phase.cells)


def test_longhorizon_auto_tiny(tiny):
    load = loads.LongHorizonAuto(5, tiny)
    phase, failures = run_tiny(load)
    assert_whole_run(phase, failures)
    assert any(c.source == "model" for c in phase.cells)
    assert any(c.batches_fast_forwarded > 0 for c in phase.cells)


def test_remote_rerun_tiny(tiny):
    load = loads.RemoteRerun(5, tiny, root=bench.ROOT)
    phase, failures = run_tiny(load)
    assert_whole_run(phase, failures)
    assert all(c.from_cache for c in phase.cells)
    assert load.server_stats[0]["executed"] == 0
    assert load.server is None  # stopped after its round


def test_traced_run_reports_every_layer(tiny):
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    tracer.active = True
    try:
        phase, failures = run_tiny(loads.LongHorizonAuto(5, tiny), tracer)
    finally:
        tracer.restore()
    assert failures == []
    metrics = spans.layer_metrics(
        spans.SpanTable(spans.tagged(tracer.spans, "client")),
        requests=phase.attempted, fixed_cells=phase.fixed_cells,
        all_cells=phase.cells, counts=phase.counts, frame_kb=0.0,
        service_overhead_ms=0.0,
    )
    assert set(metrics) == {m["name"] for m in benchmark_config()["per_layer"]}
    assert metrics["model.decline_reason_calls_per_cell"][0] == 2.0
    for name in ("workloads.generate_ms", "parallel.cell_key_ms", "model.predict_ms",
                 "sim.ms_per_ff_cell", "sweep.overhead_ms_per_cell"):
        assert metrics[name][0] > 0, name


def test_traced_remote_attributes_the_service(tiny):
    tracer = spans.Tracer()
    spans.install_layers(tracer)
    tracer.active = True
    load = loads.RemoteRerun(5, tiny, root=bench.ROOT, traced=True)
    try:
        phase, failures = run_tiny(load, tracer)
    finally:
        tracer.restore()
    assert failures == []
    metrics = bench.per_layer(
        types.SimpleNamespace(workload="remote-rerun", seed=5), load, phase, tracer
    )
    assert metrics["service.frame_kb_per_cell"][0] > 0
    assert 0 < metrics["service.overhead_ms_per_request"][0] < 1e3 * min(phase.latencies)
    assert metrics["parallel.cache_get_ms"][0] > 0  # read inside the server
    assert metrics["sweep.executed"][0] == 0


def test_checks_catch_broken_cells(tiny):
    phase, failures = run_tiny(loads.PaperCold(5, tiny))
    assert failures == []
    cell = phase.cells[0]
    broken = [
        dataclasses.replace(cell, tasks_executed=cell.tasks_executed + 1),
        dataclasses.replace(cell, baseline_joules=cell.baseline_joules * 1.01),
        dataclasses.replace(cell, total_time=cell.total_time * 1e-3),
    ]
    for bad in broken:
        assert props.cell_invariants([bad], makespan_cells=[bad]), bad
    swapped = [
        dataclasses.replace(c, total_joules=c.total_joules * (3 if c.policy == "eewa" else 1))
        for c in phase.cells
    ]
    assert props.paper_claims(swapped)


def test_run_refuses_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
