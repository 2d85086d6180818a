"""Correctness checks, run after the timed phase.

They test properties the method must have, not a copy of today's output:

* every cell executed ``batches x sum(class counts)`` tasks;
* energy adds up: ``total = core + baseline`` and ``baseline = P_base x T``;
* no makespan beats the program's cycles spread over every core at F_0;
* on every Table II benchmark of the paper's 12-batch programs EEWA uses
  less energy than Cilk at a small time cost, and cilk-d uses no more
  energy than Cilk (Fig. 6/7);
* workload-specific: cilk and cilk-d model cells lie within the model's
  error envelope, fast-forwarded cells match full simulation, streamed
  cells equal their in-process results.

Each function returns a list of failure messages (empty = passed).
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Sequence

from repro.model.bounds import MAX_RELATIVE_ERROR
from repro.scenario import Session
from repro.scenario.spec import ScenarioSpec
from repro.sim.fingerprint import result_scalars
from repro.workloads.benchmarks import BENCHMARK_NAMES

import loads

#: "Little slowdown" (Fig. 6): EEWA's summed makespan may exceed Cilk's by
#: at most this share on any Table II benchmark.
EEWA_MAX_SLOWDOWN = 0.10

#: Model-served policies whose cells the envelope check re-simulates.
ENVELOPE_POLICIES = ("cilk", "cilk-d")

#: Relative distance allowed between a fast-forwarded and a fully
#: simulated float on a machine whose arithmetic is not exact: 120
#: batches of accumulated rounding stay near 1e-14.
FF_FLOAT_TOLERANCE = 1e-9


class _Programs:
    """Per-(workload, batches) spec facts and per-seed program cycles."""

    def __init__(self) -> None:
        self._specs: dict = {}
        self._cycles: dict = {}

    def spec(self, cell) -> ScenarioSpec:
        key = (cell.workload, cell.batches)
        if key not in self._specs:
            self._specs[key] = ScenarioSpec.from_dict(
                {k: v for k, v in cell.scenario.items() if k != "policy"}
                | {"policy": "cilk"}
            )
        return self._specs[key]

    def cycles(self, cell) -> float:
        key = (cell.workload, cell.batches, cell.seed)
        if key not in self._cycles:
            program = self.spec(cell).program(cell.seed)
            self._cycles[key] = sum(
                task.cpu_cycles for batch in program for task in batch.specs
            )
        return self._cycles[key]


def cell_invariants(cells: Iterable, *, makespan_cells: Iterable = ()) -> list[str]:
    """Task counts and energy identities on ``cells``; the makespan lower
    bound (it regenerates each program) on ``makespan_cells``."""
    programs = _Programs()
    failures = []
    for cell in cells:
        spec = programs.spec(cell)
        workload = spec.resolve_workload()
        batches = cell.batches or workload.default_batches
        where = f"{cell.workload}/{cell.policy}/seed {cell.seed}"
        if cell.batches_executed != batches:
            failures.append(f"{where}: {cell.batches_executed} batches, expected {batches}")
        if cell.tasks_executed != batches * workload.tasks_per_batch:
            failures.append(
                f"{where}: {cell.tasks_executed} tasks, expected "
                f"{batches} x {workload.tasks_per_batch}"
            )
        if cell.total_joules != cell.core_joules + cell.baseline_joules:
            failures.append(f"{where}: total joules != core + baseline")
        base_watts = spec.build_machine().power.machine_base_power
        if not math.isclose(cell.baseline_joules, base_watts * cell.total_time,
                            rel_tol=1e-9):
            failures.append(f"{where}: baseline joules != base watts x time")
    for cell in makespan_cells:
        machine = programs.spec(cell).build_machine()
        bound = programs.cycles(cell) / (machine.num_cores * machine.scale.fastest)
        if cell.total_time < bound * (1 - 1e-12):
            failures.append(
                f"{cell.workload}/{cell.policy}/seed {cell.seed}: makespan "
                f"{cell.total_time:.6g} s below the work bound {bound:.6g} s"
            )
    return failures


def _matched(cells: Iterable, policies: Sequence[str]) -> dict:
    """Table II cells grouped ``{benchmark: {policy: [cells]}}`` over the
    (benchmark, seed) pairs that have every one of ``policies``."""
    by_pair: dict = defaultdict(dict)
    for cell in cells:
        if cell.workload in BENCHMARK_NAMES and cell.policy in policies:
            by_pair[(cell.workload, cell.seed)][cell.policy] = cell
    grouped: dict = defaultdict(lambda: defaultdict(list))
    for (bench, _), row in sorted(by_pair.items()):
        if all(p in row for p in policies):
            for policy in policies:
                grouped[bench][policy].append(row[policy])
    return grouped


def paper_claims(cells: Iterable) -> list[str]:
    """Fig. 6/7 on every Table II benchmark present in ``cells``."""
    failures = []
    for bench, row in sorted(_matched(cells, ("cilk", "cilk-d", "eewa")).items()):
        joules = {p: sum(c.total_joules for c in row[p]) for p in row}
        times = {p: sum(c.total_time for c in row[p]) for p in row}
        if not joules["eewa"] < joules["cilk"]:
            failures.append(f"{bench}: EEWA energy {joules['eewa']:.6g} J not below Cilk {joules['cilk']:.6g} J")
        if times["eewa"] > times["cilk"] * (1 + EEWA_MAX_SLOWDOWN):
            failures.append(f"{bench}: EEWA time {times['eewa']:.6g} s exceeds Cilk's by more than {EEWA_MAX_SLOWDOWN:.0%}")
        if joules["cilk-d"] > joules["cilk"]:
            failures.append(f"{bench}: cilk-d energy above Cilk")
    return failures


def eewa_ratios(cells: Iterable) -> tuple[float, float]:
    """(sum EEWA J / sum Cilk J, sum EEWA T / sum Cilk T) over matched cells."""
    grouped = _matched(cells, ("cilk", "eewa"))
    sums = defaultdict(float)
    for row in grouped.values():
        for policy in ("cilk", "eewa"):
            sums[policy, "J"] += sum(c.total_joules for c in row[policy])
            sums[policy, "T"] += sum(c.total_time for c in row[policy])
    return sums["eewa", "J"] / sums["cilk", "J"], sums["eewa", "T"] / sums["cilk", "T"]


def model_envelope(cells: Sequence, benchmarks: Sequence[str]) -> list[str]:
    """Re-simulate the model-served cells of ``benchmarks`` (no cache).

    Only ENVELOPE_POLICIES are sampled: 120-batch eewa predictions on
    jittered programs leave the envelope on some seeds (see CHANGES.md),
    and a check that fails on some seeds only cannot gate a run.
    """
    failures = []
    sample = [c for c in cells if c.source == "model" and c.workload in benchmarks
              and c.policy in ENVELOPE_POLICIES]
    if not sample:
        return [f"no model-served cells among {list(benchmarks)}"]
    with Session(workers=0, cache_dir=None, fidelity="sim") as session:
        for cell in sample:
            (outcome,) = session.run_detailed(ScenarioSpec.from_dict(cell.scenario))
            sim = outcome.result
            for name, got, want in (("time", cell.total_time, sim.total_time),
                                    ("energy", cell.total_joules, sim.total_joules)):
                error = abs(got - want) / want
                if error > MAX_RELATIVE_ERROR:
                    failures.append(
                        f"{cell.workload}/{cell.policy}/seed {cell.seed}: model "
                        f"{name} off by {error:.2%} (envelope {MAX_RELATIVE_ERROR:.0%})"
                    )
    return failures


def _schedule(result) -> tuple:
    """Every discrete observable of a simulated run."""
    return (
        result.tasks_executed, result.batches_executed,
        [(t.task_id, t.function, t.batch_index, t.stolen, t.executed_on,
          t.executed_level) for t in result.tasks],
        [(b.batch_index, b.tasks_completed, b.level_histogram)
         for b in result.trace.batches],
        [(tr.core_id, tr.from_level, tr.to_level) for tr in result.trace.transitions],
    )


def ff_parity(session: Session, cells: Sequence) -> list[str]:
    """Fast-forwarded cells against ``fast_forward=False``.

    Replay adds per-batch deltas where simulation accumulates event by
    event, so on the Opteron machine floats may differ in the last places
    (the reason ``fast_forward`` is part of the cache key): the schedule
    must be identical and every float equal to ``FF_FLOAT_TOLERANCE``.
    Bit-identity on a machine with exact arithmetic is the conformance
    battery's ``fast_forward_parity`` check.
    """
    failures = []
    sample = [c for c in cells if c.batches_fast_forwarded > 0]
    if not sample:
        return ["no fast-forwarded cells to compare"]
    with Session(workers=0, cache_dir=None, fast_forward=False) as full:
        for cell in sample:
            where = f"{cell.workload}/{cell.policy}/seed {cell.seed}"
            (spec,) = loads.resolve(session, [cell.scenario])
            (replayed,) = session.run_detailed(spec)
            (reference,) = full.run_detailed(spec)
            a, b = replayed.result, reference.result
            if b.batches_fast_forwarded != 0:
                failures.append(f"{where}: fast_forward=False still fast-forwarded")
            if _schedule(a) != _schedule(b):
                failures.append(f"{where}: FF schedule differs from full simulation")
            floats = list(zip(result_scalars(a).values(), result_scalars(b).values()))
            floats += [(x.finish_time, y.finish_time) for x, y in zip(a.tasks, b.tasks)]
            if any(not math.isclose(x, y, rel_tol=FF_FLOAT_TOLERANCE,
                                    abs_tol=FF_FLOAT_TOLERANCE * b.total_time)
                   for x, y in floats):
                failures.append(f"{where}: FF floats beyond rounding of full simulation")
    return failures
