"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of each layer *from the benchmark's own
files*: it replaces a module or class attribute with a timing wrapper
(``Tracer.restore`` puts it back). Nothing inside ``src/`` changes. Where a caller
imported a function by name, the wrapper is installed on the caller's
module, since that is the reference the caller uses.

A span is one layer call: ``(id, parent id, request id, name, start,
end, info)``. Spans stay in a list until the run ends, then go to disk as
JSON lines. The parent is the innermost traced call open on the same
thread, so a span's *self time* is its duration minus that of its direct
children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterable, Optional

#: Span record field order (also the key order of the JSON lines).
FIELDS = ("id", "parent", "request", "name", "start", "end", "info")


class Tracer:
    """Collects spans while :attr:`active`; wrappers stay cheap when not."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.active = False
        self._ids = itertools.count(1)
        self._requests = itertools.count(0)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- request context ---------------------------------------------------

    def begin_request(self, request_id: int) -> None:
        """Tag this thread's next root spans with ``request_id`` (0 = set-up)."""
        self._local.request = request_id

    def _state(self) -> tuple[list[int], int]:
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
            local.request = 0
        return stack, local.request

    # -- wrapping ------------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        info: Optional[Callable[[Any], Any]] = None,
        new_request: bool = False,
    ) -> None:
        """Replace ``owner.attr`` by a traced wrapper.

        ``info`` maps the call's return value to the span's ``info`` field.
        ``new_request`` starts a fresh request id for the call and
        everything it calls (the service's per-request entry point).
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return func(*args, **kwargs)
            stack, request = tracer._state()
            if new_request:
                request = next(tracer._requests)
                tracer._local.request = request
            span_id = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            except BaseException:
                stack.pop()
                tracer.spans.append(
                    (span_id, parent, request, name, start,
                     time.perf_counter(), "error")
                )
                raise
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append(
                (span_id, parent, request, name, start, end,
                 None if info is None else info(result))
            )
            return result

        setattr(owner, attr, classmethod(traced) if is_classmethod else traced)
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- output ------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")


def load_spans(path: str) -> list[tuple]:
    """Read a :meth:`Tracer.dump` file back into span tuples."""
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)[f] for f in FIELDS) for line in fh]


def install_layers(tracer: Tracer) -> None:
    """Wrap one public entry point per layer, as its callers see it."""
    from repro.experiments import parallel, sweep
    from repro.model import bounds
    from repro.model import predict as model_predict
    from repro.scenario.spec import ScenarioSpec
    from repro.service import server
    from repro.workloads import generators

    tracer.wrap(parallel, "benchmark_program", "workloads.generate")
    tracer.wrap(generators, "generate_program", "workloads.generate")
    tracer.wrap(sweep, "cell_key", "parallel.cell_key")
    tracer.wrap(
        parallel.ResultCache, "get", "parallel.cache_get",
        info=lambda payload: payload is not None,
    )
    tracer.wrap(parallel.ResultCache, "put", "parallel.cache_put")
    tracer.wrap(sweep.SweepEngine, "submit", "sweep.submit")
    tracer.wrap(sweep.SweepTicket, "result", "sweep.result")
    tracer.wrap(
        parallel, "simulate", "sim.simulate",
        info=lambda r: (r.tasks_executed, r.batches_simulated,
                        r.batches_fast_forwarded),
    )
    tracer.wrap(sweep, "classify_cell", "model.classify", info=bool)
    tracer.wrap(
        sweep, "predict_cell", "model.predict",
        info=lambda r: r is not None,
    )
    for module in (sweep, bounds, model_predict):
        tracer.wrap(module, "decline_reason", "model.decline_reason")
    tracer.wrap(ScenarioSpec, "from_dict", "scenario.parse")
    tracer.wrap(server, "resolve_scenario", "scenario.resolve")
    tracer.wrap(parallel.CellSpec, "from_scenario", "scenario.expand")
    tracer.wrap(server, "parse_sweep_request", "service.parse", new_request=True)
    tracer.wrap(server, "stream_request", "service.stream")


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------


class SpanTable:
    """Durations, self times and call counts of a span collection."""

    def __init__(self, spans: Iterable[tuple]) -> None:
        self.spans = list(spans)
        child_time: dict[tuple[str, int], float] = defaultdict(float)
        self._by_id: dict[tuple[str, int], tuple] = {}
        for span in self.spans:
            process, span_id, parent = span[-1], span[0], span[1]
            self._by_id[(process, span_id)] = span
            if parent:
                child_time[(process, parent)] += span[5] - span[4]
        self._child_time = child_time

    def named(self, *names: str) -> list[tuple]:
        return [s for s in self.spans if s[3] in names]

    def count(self, *names: str) -> int:
        return len(self.named(*names))

    def mean_ms(self, *names: str) -> float:
        spans = self.named(*names)
        if not spans:
            return 0.0
        return 1e3 * sum(s[5] - s[4] for s in spans) / len(spans)

    def self_seconds(self, span: tuple) -> float:
        return (span[5] - span[4]) - self._child_time.get((span[-1], span[0]), 0.0)

    def parent_of(self, span: tuple) -> Optional[tuple]:
        return self._by_id.get((span[-1], span[1]))


def tagged(spans: Iterable[tuple], process: str) -> list[tuple]:
    """Append the owning process to each span (ids are per process)."""
    return [tuple(span) + (process,) for span in spans]


def _sim_info(span: tuple) -> Optional[tuple]:
    info = span[6]
    return tuple(info) if isinstance(info, (list, tuple)) else None


def layer_metrics(
    table: SpanTable,
    *,
    requests: int,
    fixed_cells: list,
    all_cells: list,
    counts: dict,
    frame_kb: float,
    service_overhead_ms: float,
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``{name: (value, unit)}``.

    Times are per call over every traced span of the run (set-up and timed
    phase). Counts cover the run's fixed rounds only, so they repeat
    exactly for a given seed. A layer that did no work reports 0.
    """
    sims = [(s, _sim_info(s)) for s in table.named("sim.simulate")]
    full = [(s, i) for s, i in sims if i is not None and i[2] == 0]
    replayed = [s for s, i in sims if i is not None and i[2] > 0]
    full_tasks = sum(i[0] for _, i in full)
    full_seconds = sum(s[5] - s[4] for s, _ in full)

    sweep_spans = table.named("sweep.submit", "sweep.result")
    submissions = table.count("sweep.submit")
    sweep_self = sum(table.self_seconds(s) for s in sweep_spans)

    served = [s for s in table.named("model.predict") if s[6] is True]
    attributed = 0
    for span in table.named("model.decline_reason"):
        parent = table.parent_of(span)
        if parent is not None and parent[6] is True and parent[3] in (
            "model.predict", "model.classify"
        ):
            attributed += 1

    scenario_self = sum(
        table.self_seconds(s)
        for s in table.named("scenario.parse", "scenario.resolve", "scenario.expand")
        if s[2] > 0
    )

    simulated = [c for c in fixed_cells if c.source == "sim" and not c.from_cache]
    adjusted = {c.key: c for c in all_cells
                if c.source == "sim" and c.adjuster_decisions > 0}
    decisions = sum(c.adjuster_decisions for c in adjusted.values())
    adjuster_s = sum(c.adjuster_wallclock_s for c in adjusted.values())

    return {
        "workloads.generate_ms": (table.mean_ms("workloads.generate"), "ms"),
        "parallel.cell_key_ms": (table.mean_ms("parallel.cell_key"), "ms"),
        "parallel.cache_put_ms": (table.mean_ms("parallel.cache_put"), "ms"),
        "parallel.cache_get_ms": (table.mean_ms("parallel.cache_get"), "ms"),
        "sweep.overhead_ms_per_cell": (
            1e3 * sweep_self / submissions if submissions else 0.0, "ms"),
        "sweep.executed": (counts.get("executed", 0), "count"),
        "sweep.cache_hits": (counts.get("cache_hits", 0), "count"),
        "sweep.memo_hits": (counts.get("memo_hits", 0), "count"),
        "sweep.model_cells": (counts.get("model_cells", 0), "count"),
        "sweep.deduplicated": (counts.get("deduplicated", 0), "count"),
        "sim.us_per_task": (1e6 * full_seconds / full_tasks if full_tasks else 0.0, "us"),
        "sim.ms_per_ff_cell": (
            1e3 * sum(s[5] - s[4] for s in replayed) / len(replayed) if replayed else 0.0,
            "ms"),
        "sim.tasks": (sum(c.tasks_executed for c in simulated), "count"),
        "sim.batches_simulated": (sum(c.batches_simulated for c in simulated), "count"),
        "sim.batches_fast_forwarded": (
            sum(c.batches_fast_forwarded for c in simulated), "count"),
        "core.adjuster_ms_per_decision": (
            1e3 * adjuster_s / decisions if decisions else 0.0, "ms"),
        "model.classify_ms": (table.mean_ms("model.classify"), "ms"),
        "model.predict_ms": (table.mean_ms("model.predict"), "ms"),
        "model.decline_reason_calls_per_cell": (
            attributed / len(served) if served else 0.0, "count"),
        "scenario.resolve_ms_per_request": (1e3 * scenario_self / requests, "ms"),
        "service.frame_kb_per_cell": (frame_kb, "KB"),
        "service.overhead_ms_per_request": (service_overhead_ms, "ms"),
    }
