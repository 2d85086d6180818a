"""The benchmark's three workloads.

Each workload is one caller in a closed loop: it sends a request, waits
for its last cell, then sends the next. A *request* is the scenario list
for one workload and its seeds, as JSON-shaped scenario dicts, exactly
what a client of ``repro serve`` would send. Requests come in *rounds*: a
fixed list of requests whose seeds are drawn from the run's ``--seed``.
A run executes whole rounds only.

Seeds are drawn from ``random.Random(--seed)``, never from the scenario
layer's ``DEFAULT_SEEDS``. EEWA's modal levels for ``wats`` are derived
on ``DEFAULT_SEEDS[0]`` (the service's rule, ``resolve_scenario``), so
those derivation cells are warmed during set-up and never timed.
"""

from __future__ import annotations

import dataclasses
import os
import random
import resource
import select
import signal
import subprocess
import sys
import time
from typing import Any, Optional, Sequence

from repro.scenario import Session
from repro.scenario.spec import DEFAULT_SEEDS, SCENARIO_SCHEMA_VERSION, ScenarioSpec
from repro.service import server
from repro.service.client import ServiceError, SweepServiceClient
from repro.service.protocol import encode_frame
from repro.sim.export import result_to_dict
from repro.workloads.benchmarks import BENCHMARK_NAMES

#: Policies of one Table II request, Fig. 6/7's line-up (wats runs on
#: EEWA's modal levels, resolved by the scenario layer).
PAPER_POLICIES = ("cilk", "cilk-d", "wats", "eewa")

#: Long-horizon length: long enough for fast-forward to replay most
#: batches of a periodic program (107-110 of 120).
LONG_BATCHES = 120

#: Seeds per benchmark in the remote-rerun grid (7 x 4 x 3 = 84 cells).
REMOTE_SEEDS = 3

#: Periodic eewa/wats requests per longhorizon-auto round, each over
#: FF_SEEDS seeds: replayed (FF) cells then carry a share of the round
#: comparable to the model cells, and a replay request costs about as
#: much as a model request, so the median request is not on the edge
#: between two clusters of request times.
FF_REQUESTS = 4
FF_SEEDS = 3


def scenario(workload: str, policy: str, seeds: Sequence[int],
             batches: Optional[int] = None) -> dict:
    data: dict[str, Any] = {
        "schema": SCENARIO_SCHEMA_VERSION,
        "workload": workload,
        "policy": policy,
        "seeds": list(seeds),
    }
    if batches is not None:
        data["batches"] = batches
    return data


class Seeds:
    """The run's seed stream: the same ``--seed`` gives the same inputs."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)
        self._used = set(DEFAULT_SEEDS)

    def draw(self) -> int:
        while True:
            value = self._rng.randrange(1000, 1_000_000)
            if value not in self._used:
                self._used.add(value)
                return value


@dataclasses.dataclass(frozen=True)
class Request:
    workload: str
    seeds: tuple[int, ...]
    scenarios: tuple[dict, ...]

    def cell_scenarios(self) -> list[dict]:
        """One single-seed scenario per cell, in the order cells are submitted."""
        return [dict(data, seeds=[seed]) for data in self.scenarios for seed in data["seeds"]]


#: Cell fields read off the outcome (or the frame) and off its result.
OUTCOME_FIELDS = ("key", "source", "from_cache", "adjuster_wallclock_s",
                  "adjuster_decisions")
RESULT_FIELDS = ("total_time", "total_joules", "core_joules", "baseline_joules",
                 "tasks_executed", "batches_executed", "batches_simulated",
                 "batches_fast_forwarded")


@dataclasses.dataclass(frozen=True)
class Cell:
    """The scalars of one returned cell that the checks and metrics read.

    ``scenario`` is the cell's single-seed scenario dict.
    """

    workload: str
    policy: str
    seed: int
    batches: Optional[int]
    key: str
    source: str
    from_cache: bool
    total_time: float
    total_joules: float
    core_joules: float
    baseline_joules: float
    tasks_executed: int
    batches_executed: int
    batches_simulated: int
    batches_fast_forwarded: int
    adjuster_wallclock_s: float
    adjuster_decisions: int
    scenario: dict

    @classmethod
    def of(cls, data: dict, outcome: dict, result: dict) -> "Cell":
        return cls(
            workload=data["workload"], policy=data["policy"],
            seed=data["seeds"][0], batches=data.get("batches"), scenario=data,
            **{name: outcome[name] for name in OUTCOME_FIELDS},
            **{name: result[name] for name in RESULT_FIELDS},
        )

    @classmethod
    def from_outcome(cls, data: dict, outcome) -> "Cell":
        """An in-process ``CellOutcome``. Not through ``protocol.cell_frame``:
        its ``result_to_dict`` fails on model-served results."""
        return cls.of(
            data,
            {name: getattr(outcome, name) for name in OUTCOME_FIELDS},
            {name: getattr(outcome.result, name) for name in RESULT_FIELDS},
        )

    @classmethod
    def from_frame(cls, data: dict, frame: dict) -> "Cell":
        """A streamed cell frame."""
        result = dict(frame["result"], total_time=frame["result"]["total_time_s"])
        return cls.of(data, frame, result)


def paper_request(workload: str, seeds: Sequence[int], policies=PAPER_POLICIES,
                  batches: Optional[int] = None) -> Request:
    return Request(workload, tuple(seeds), tuple(
        scenario(workload, policy, seeds, batches) for policy in policies
    ))


def resolve(session: Session, scenarios: Sequence[dict]) -> list[ScenarioSpec]:
    """Parse scenario dicts and fill modal levels as the service does."""
    return [
        server.resolve_scenario(session, ScenarioSpec.from_dict(data))
        for data in scenarios
    ]


def dir_bytes(root: str) -> int:
    total = 0
    for base, _, files in os.walk(root):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                continue  # a temp file renamed away while walking
    return total


# ----------------------------------------------------------------------
# in-process workloads
# ----------------------------------------------------------------------


class InProcessLoad:
    """A :class:`Session` with ``workers=0`` over a fresh cache directory."""

    fidelity = "sim"

    def __init__(self, seed: int, workdir: str) -> None:
        self.seeds = Seeds(seed)
        self.cache_dir = os.path.join(workdir, "cache")
        self.session: Optional[Session] = None

    def warm_specs(self) -> list[dict]:
        raise NotImplementedError

    def setup(self) -> None:
        self.session = Session(
            workers=0, cache_dir=self.cache_dir, fidelity=self.fidelity
        )
        self.execute(Request("warm-up", DEFAULT_SEEDS[:1], tuple(self.warm_specs())))

    def before_round(self) -> None:
        pass

    def after_round(self) -> None:
        pass

    def execute(self, request: Request) -> tuple[Optional[float], list]:
        """Resolve, expand and run one request; returns (first-cell time, raw)."""
        first = None
        outcomes = []
        for _, outcome in self.session.iter_grid_cells(resolve(self.session, request.scenarios)):
            if first is None:
                first = time.perf_counter()
            outcomes.append(outcome)
        return first, outcomes

    def cells(self, request: Request, raw: list) -> list[Cell]:
        return [
            Cell.from_outcome(data, outcome)
            for data, outcome in zip(request.cell_scenarios(), raw)
        ]

    def stats(self) -> dict[str, int]:
        return dataclasses.asdict(self.session.stats)

    def snapshot(self) -> dict[str, float]:
        stats = self.session.stats
        stored = stats.executed + stats.model_cells
        return {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "cache_kb_per_cell": dir_bytes(self.cache_dir) / 1024.0 / stored,
        }

    def close(self) -> None:
        if self.session is not None:
            self.session.close()


class PaperCold(InProcessLoad):
    """Table II x (cilk, cilk-d, wats, eewa), cold cache, ``fidelity=sim``."""


    def warm_specs(self) -> list[dict]:
        return [scenario(b, "wats", DEFAULT_SEEDS[:1]) for b in BENCHMARK_NAMES]

    def round_requests(self) -> list[Request]:
        seed = self.seeds.draw()
        return [paper_request(b, [seed]) for b in BENCHMARK_NAMES]


class LongHorizonAuto(InProcessLoad):
    """120-batch programs at ``fidelity=auto``: model cells and FF cells."""

    fidelity = "auto"

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        #: Benchmarks whose first-round model cells are re-simulated.
        self.envelope_benchmarks = (
            BENCHMARK_NAMES[seed % len(BENCHMARK_NAMES)],
            BENCHMARK_NAMES[(seed + 3) % len(BENCHMARK_NAMES)],
        )

    def warm_specs(self) -> list[dict]:
        return [scenario("periodic", "wats", DEFAULT_SEEDS[:1], LONG_BATCHES)]

    def round_requests(self) -> list[Request]:
        seed = self.seeds.draw()
        requests = [
            paper_request(b, [seed], ("cilk", "cilk-d", "eewa"), LONG_BATCHES)
            for b in BENCHMARK_NAMES
        ]
        requests += [
            paper_request(
                "periodic", [self.seeds.draw() for _ in range(FF_SEEDS)],
                ("eewa", "wats"), LONG_BATCHES,
            )
            for _ in range(FF_REQUESTS)
        ]
        requests.append(
            paper_request("periodic", [seed], ("cilk", "cilk-d"), LONG_BATCHES)
        )
        return requests


# ----------------------------------------------------------------------
# remote workload
# ----------------------------------------------------------------------


class ServerChild:
    """One ``repro serve --workers 0`` child on a unix socket.

    ``spans_path`` runs it through ``perfbench/traced_serve.py``, which
    wraps the same layer functions inside the server and writes its spans
    to that path when the server stops.
    """

    def __init__(self, root: str, cache_dir: str, socket_path: str,
                 spans_path: Optional[str] = None) -> None:
        serve_args = [
            "serve", "--workers", "0", "--unix-socket", socket_path,
            "--cache-dir", cache_dir,
        ]
        if spans_path is None:
            argv = [sys.executable, "-u", "-m", "repro.cli", *serve_args]
        else:
            argv = [sys.executable, "-u",
                    os.path.join(root, "perfbench", "traced_serve.py"),
                    "--spans", spans_path, *serve_args]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True,
        )
        self.url = f"unix:{socket_path}"

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 0.5)
            if ready:
                line = self.proc.stdout.readline()
                if line.startswith("serving sweeps on"):
                    return
                if not line:
                    break
        self.stop()
        raise RuntimeError("repro serve did not come up")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM for the server process")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            self.proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


class RemoteRerun:
    """Rerun a filled cache through a fresh ``repro serve`` child per round.

    Set-up fills the cache in-process with the grid (Table II x
    PAPER_POLICIES x REMOTE_SEEDS seeds, plus the modal-level cells) and
    starts the server. Each round streams every grid cell once, one
    request per (benchmark, seed). The server is restarted between rounds
    (outside the timed phase), so every round reads the disk cache with
    an empty engine memo.
    """

    def __init__(self, seed: int, workdir: str, *, root: str,
                 traced: bool = False) -> None:
        seeds = Seeds(seed)
        grid_seeds = [seeds.draw() for _ in range(REMOTE_SEEDS)]
        self.grid = [paper_request(b, [s]) for s in grid_seeds for b in BENCHMARK_NAMES]
        #: The modal-level cells every grid request's wats scenario resolves to.
        self.warm_specs = [scenario(b, "eewa", DEFAULT_SEEDS[:1]) for b in BENCHMARK_NAMES]
        self.workdir = workdir
        self.root = root
        self.cache_dir = os.path.join(workdir, "cache")
        self.socket_path = os.path.relpath(os.path.join(workdir, "s.sock"), root)
        self.traced = traced
        self.server: Optional[ServerChild] = None
        self.client: Optional[SweepServiceClient] = None
        self.server_stats: list[dict] = []
        self.server_rss: list[float] = []
        self.server_start_s: list[float] = []
        self.span_files: list[str] = []
        self.frame_bytes = 0
        self.frames = 0
        #: (cells requested, terminal frame) per streamed request.
        self.terminals: list[tuple[int, dict]] = []
        #: Streamed cells that differ from their in-process result.
        self.mismatches: list[str] = []
        #: In-process (key, result dict) of each grid request's cells, in
        #: submission order, recorded by the fill.
        self.expected: dict[tuple, list[tuple[str, dict]]] = {}
        self._stats_before: dict = {}

    def setup(self) -> None:
        with Session(workers=0, cache_dir=self.cache_dir) as fill:
            for request in self.grid:
                outcomes = fill.run_grid_detailed(resolve(fill, request.scenarios))
                self.expected[request.workload, request.seeds] = [
                    (outcome.key, result_to_dict(outcome.result))
                    for row in outcomes for outcome in row
                ]
            stored = fill.stats.executed
        self.cache_kb_per_cell = dir_bytes(self.cache_dir) / 1024.0 / stored
        self._start_server()

    def _start_server(self) -> None:
        started = time.perf_counter()
        spans = None
        if self.traced:
            spans = os.path.join(self.workdir, f"server-{len(self.span_files)}.jsonl")
            self.span_files.append(spans)
        self.server = ServerChild(self.root, self.cache_dir, self.socket_path, spans)
        self.server.wait_ready()
        self.client = SweepServiceClient(self.server.url, retries=0)
        self.client.run(self.warm_specs)
        self.server_start_s.append(time.perf_counter() - started)

    def before_round(self) -> None:
        if self.server is None:
            self._start_server()
        self._stats_before = self.client.stats()["engine"]

    def after_round(self) -> None:
        after = self.client.stats()["engine"]
        self.server_stats.append({
            name: after[name] - self._stats_before[name]
            for name in ("cells", "executed", "cache_hits", "memo_hits",
                         "model_cells", "deduplicated")
        })
        self.server_rss.append(self.server.peak_rss_mb())
        self.server.stop()
        self.server = None

    def round_requests(self) -> list[Request]:
        return self.grid

    def execute(self, request: Request) -> tuple[Optional[float], list]:
        first = None
        frames = []
        terminal = None
        for frame in self.client.stream(request.scenarios):
            if frame["frame"] != "cell":
                terminal = frame
                break
            if first is None:
                first = time.perf_counter()
            frames.append(frame)
        if terminal is None or terminal["frame"] != "end" or not frames:
            raise ServiceError(f"stream ended with {terminal!r}")
        return first, frames + [terminal]

    def cells(self, request: Request, raw: list) -> list[Cell]:
        *frames, terminal = raw
        self.frame_bytes += sum(len(encode_frame(frame)) for frame in frames)
        self.frames += len(frames)
        cell_scenarios = request.cell_scenarios()
        self.terminals.append((len(cell_scenarios), terminal))
        expected = self.expected[request.workload, request.seeds]
        for frame in frames:
            key, result = expected[frame["index"]]
            if frame["key"] != key or frame["result"] != result:
                self.mismatches.append(
                    f"{frame['benchmark']}/{frame['policy']}/seed {frame['seed']}: "
                    "streamed cell differs from the in-process result"
                )
        return [Cell.from_frame(cell_scenarios[frame["index"]], frame) for frame in frames]

    def stats(self) -> dict[str, int]:
        """Engine counters summed over the rounds' servers so far."""
        total: dict[str, int] = {}
        for stats in self.server_stats:
            for name, value in stats.items():
                total[name] = total.get(name, 0) + value
        return total

    def snapshot(self) -> dict[str, float]:
        return {
            "peak_rss_mb": max(self.server_rss),
            "cache_kb_per_cell": self.cache_kb_per_cell,
        }

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
