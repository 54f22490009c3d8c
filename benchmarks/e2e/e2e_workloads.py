"""The four closed-loop workloads: one client, ``processes=2``.

Each workload is a set-up (reference solve, warm-up), a *cycle* of rep
kinds that the measuring loop repeats until its time is up, and a
tear-down.  A rep is one call into a public function of the program,
timed from the call to the combined solution in hand and checked
against the sequential reference solved in set-up.

Rep kinds:

``main``     the call the workload is named after
``control``  ``pool_faults_l5`` only — the same resilient loop with
             nothing injected, bracketing the faulted reps (A-B-A)
``seq``      the plain single-threaded run of the same problem,
             interleaved so host drift hits both alike (the paper's st)
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Runtime,
    run_application,
)
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    make_worker_definition,
    protocol_mw,
)
from repro.restructured import run_multiprocessing, shutdown_pool
from repro.sparsegrid import SequentialApplication
from repro.sparsegrid.registry import make_problem
from repro.trace import TraceAnalysis, TraceRecorder, recording

from e2e_core import SpanRecorder

ROOT = 2
TOL = 1.0e-3
PROCESSES = 2
PROBLEM = "rotating-cone"

#: one real worker ``os._exit`` and one transient exception per run.
#: Fixed, not drawn from the seed: recovery costs 0.17–0.25 s depending
#: on which grids fault, and the crash must be dispatched before the
#: raise or the run stalls for the 60 s deadline (README, finding F1)
FAULT_KEYS = ((2, 2), (1, 3))
FAULTS = "crash@{},{};raise@{},{}".format(*FAULT_KEYS[0], *FAULT_KEYS[1])
#: names a grid outside every family: the resilient loop, nothing injected
NO_FAULTS = "crash@99,99"


@dataclass
class Rep:
    """One timed call: how long, whether its output was right, and what
    the program handed back (for the traced decomposition)."""

    seconds: float
    ok: bool
    result: object = None
    #: the ``TraceRecorder`` the program wrote into, on a traced rep
    recorder: Optional[TraceRecorder] = None


@dataclass
class Tracing:
    """Where a traced rep hangs its benchmark-side spans."""

    spans: SpanRecorder
    parent: int
    rep: int


def sequential_reference(level: int, problem_kwargs: dict):
    problem = make_problem(PROBLEM, **problem_kwargs)
    return SequentialApplication(
        root=ROOT, level=level, tol=TOL, problem=problem
    ).run()


def timed(call: Callable[[], object]) -> tuple[float, float, object]:
    """``(start, end, value)`` on ``time.monotonic`` — the clock of the
    program's worker-side stamps; an exception becomes the value."""
    start = time.monotonic()
    try:
        value = call()
    except Exception as exc:  # a rep that raises is a failed rep
        value = exc
    return start, time.monotonic(), value


# ----------------------------------------------------------------------
# sparse-grid workloads
# ----------------------------------------------------------------------
class GridWorkload:
    """``run_multiprocessing`` at one level, checked bitwise."""

    def __init__(
        self,
        name: str,
        inputs: dict,
        *,
        level: int,
        warmup: int,
        cycle: tuple[str, ...],
        main: dict,
        control: Optional[dict] = None,
        main_faults: tuple[int, int, int] = (0, 0, 0),
    ) -> None:
        self.name = name
        self.level = level
        self.warmup = warmup
        self.cycle = cycle
        self.problem_kwargs = inputs["problem_kwargs"]
        self.calls = {"main": main}
        if control is not None:
            self.calls["control"] = control
        #: (faults, recovered, fallbacks) a correct rep of each kind reports
        self.expected = {"main": main_faults, "control": (0, 0, 0)}
        self.reference: Optional[np.ndarray] = None

    def setup(self) -> None:
        self.reference = sequential_reference(
            self.level, self.problem_kwargs
        ).combined
        # warm up through the fault-free variant where there is one: a
        # crash on a cold pool is the stall of finding F1
        kind = "control" if "control" in self.calls else "main"
        for _ in range(self.warmup):
            if not self.run(kind).ok:
                raise RuntimeError(f"{self.name}: warm-up rep failed")

    def teardown(self) -> None:
        shutdown_pool()

    def run(self, kind: str, tracing: Optional[Tracing] = None) -> Rep:
        if kind == "seq":
            return self._run_sequential(tracing)
        recorder = TraceRecorder() if tracing is not None else None
        start, end, result = timed(lambda: run_multiprocessing(
            root=ROOT, level=self.level, tol=TOL,
            problem_kwargs=self.problem_kwargs, processes=PROCESSES,
            trace=recorder, **self.calls[kind],
        ))
        if isinstance(result, Exception):
            return Rep(end - start, False, result)
        if tracing is not None:
            call = tracing.spans.add(
                "parallel.call", start, end, tracing.parent, tracing.rep
            )
            lift_trace(tracing.spans, call, tracing.rep, result, recorder)
        ok = self.check(result, self.expected[kind], tracing)
        return Rep(end - start, ok, result, recorder)

    def _run_sequential(self, tracing: Optional[Tracing]) -> Rep:
        start, end, result = timed(
            lambda: sequential_reference(self.level, self.problem_kwargs)
        )
        if isinstance(result, Exception):
            return Rep(end - start, False, result)
        if tracing is not None:
            tracing.spans.add(
                "sparsegrid.sequential", start, end, tracing.parent,
                tracing.rep,
            )
        return Rep(end - start, self.check(result, None, tracing), result)

    def check(self, result, expected_faults, tracing) -> bool:
        start = time.monotonic()
        ok = np.array_equal(result.combined, self.reference)
        if expected_faults is not None:
            seen = (result.faults, result.recovered, result.fallbacks)
            ok = ok and seen == expected_faults
        if tracing is not None:
            tracing.spans.add(
                "harness.check", start, time.monotonic(), tracing.parent,
                tracing.rep,
            )
        return bool(ok)


def lift_trace(
    spans: SpanRecorder, call: int, rep: int, result, recorder: TraceRecorder
) -> None:
    """Hang the program's own timeline under our ``parallel.call`` span.

    The recorder passed through ``trace=`` holds the ``fanout`` and
    ``prolongation`` phases and every job's worker-side start/finish, on
    the same monotonic clock; the spawn share comes from the result's
    ``pool_cold_start_seconds``.  Nothing is added to the program.
    """
    socket = result.engine == "socket"
    events = recorder.events()
    begun: dict[int, float] = {}
    fanout: Optional[int] = None
    for event in events:
        if event.kind == "span_begin":
            begun[event.data["span_id"]] = event.t
        elif event.kind == "span_end":
            name = {
                "fanout": "netengine.fanout" if socket else "parallel.fanout",
                "prolongation": "sparsegrid.combine",
            }.get(event.data["span"])
            if name is None:
                continue
            index = spans.add(
                name, begun[event.data["span_id"]], event.t, call, rep
            )
            if event.data["span"] == "fanout":
                fanout = index
    if fanout is None:
        return
    began = spans.spans[fanout].start
    if result.pool_cold_start_seconds > 0.0:
        spans.add(
            "netengine.spawn" if socket else "pool.cold_start",
            began, began + result.pool_cold_start_seconds, fanout, rep,
        )
    for job in TraceAnalysis(events).jobs:
        spans.add("sparsegrid.subsolve", job.start_t, job.done_t, fanout, rep)
    detected: dict[tuple, float] = {}
    for event in events:
        if event.kind == "fault":
            detected[event.key] = event.t
        elif event.kind == "retry" and event.key in detected:
            spans.add(
                "resilience.backoff", detected.pop(event.key), event.t,
                fanout, rep,
            )


# ----------------------------------------------------------------------
# the MANIFOLD no-op pool
# ----------------------------------------------------------------------
def run_noop_pools(
    pools: list[list[int]], compute: Callable = lambda x: x
) -> list[list]:
    """One coordinator, one ``ProtocolMW`` pool per entry of ``pools``,
    one no-op worker per payload; returns each pool's result units.

    Built as ``run_noop_pools`` in ``benchmarks/bench_protocol_runtime.py``
    (which, being a pytest file, is not importable from here), except
    that the master keeps what its dataport returned so it can be
    checked.
    """
    worker_defn = make_worker_definition("Worker", compute)
    collected: list[list] = []

    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=60)
        for payloads in pools:
            collected.append(client.run_pool(
                [WorkerJob(i, value) for i, value in enumerate(payloads)]
            ))
        client.finished()

    master_defn = AtomicDefinition(
        "Master", master_body, in_ports=("input", "dataport")
    )
    runtime = Runtime("bench")

    def main_body():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            ctx.run_block(protocol_mw(master, worker_defn))
            ctx.terminated(master)
            ctx.halt()

        return block

    main = Coordinator(runtime, "Main", main_body, deadline=60)
    run_application(runtime, main, timeout=60)
    return collected


def noop_pools_ok(pools: list[list[int]], collected) -> bool:
    """Every pool's dataport returned every unit, each with its value."""
    if isinstance(collected, Exception) or len(collected) != len(pools):
        return False
    return all(
        sorted((unit.job_id, unit.payload) for unit in units)
        == list(enumerate(payloads))
        for payloads, units in zip(pools, collected)
    )


class NoopWorkload:
    """One pool of 31 no-op workers through Runtime/Coordinator.

    Pinned to one CPU.  On two, the same code takes 2.1–2.5× as long and
    moves ±20 % from run to run with where the kernel happens to place
    33 GIL-bound threads (README, finding F2): that is a property of the
    host's scheduler, and a gate built on it could not tell a regression
    from a reschedule.  The two-CPU cost is recorded per layer
    (``manifold.per_worker_s`` and the other ``manifold.*`` probes run
    unpinned).
    """

    name = "manifold_noop31"
    warmup = 50
    cycle = ("main",) * 40 + ("seq",) * 2

    def __init__(self, inputs: dict) -> None:
        payloads = inputs["noop_payloads"]
        self.pools = {
            "main": [payloads],
            # the same 31 jobs, one worker at a time
            "seq": [[value] for value in payloads],
        }
        self.affinity = os.sched_getaffinity(0)

    def setup(self) -> None:
        # threads inherit the affinity of the thread that starts them
        os.sched_setaffinity(0, {max(self.affinity)})
        for _ in range(self.warmup):
            if not self.run("main").ok:
                raise RuntimeError(f"{self.name}: warm-up rep failed")

    def teardown(self) -> None:
        os.sched_setaffinity(0, self.affinity)

    def run(self, kind: str, tracing: Optional[Tracing] = None) -> Rep:
        pools = self.pools[kind]
        recorder = TraceRecorder() if tracing is not None else None
        with recording(recorder):
            start, end, collected = timed(lambda: run_noop_pools(pools))
        if tracing is not None:
            tracing.spans.add(
                "manifold.pool", start, end, tracing.parent, tracing.rep
            )
        return Rep(
            end - start, noop_pools_ok(pools, collected), collected, recorder
        )


# ----------------------------------------------------------------------
def make_workload(name: str, inputs: dict):
    if name == "pool_warm_l7":
        return GridWorkload(
            name, inputs, level=7, warmup=5,
            cycle=("main",) * 8 + ("seq",),
            main={},
        )
    if name == "pool_faults_l5":
        return GridWorkload(
            name, inputs, level=5, warmup=5,
            cycle=(
                ("control",) * 10 + ("main",) * 20 + ("control",) * 10
                + ("seq",) * 3
            ),
            main={"faults": FAULTS}, control={"faults": NO_FAULTS},
            main_faults=(2, 2, 0),
        )
    if name == "socket_cold_l5":
        return GridWorkload(
            name, inputs, level=5, warmup=3,
            cycle=("main",) * 4 + ("seq",) * 2,
            main={"engine": "socket", "hosts": f"localhost:{PROCESSES}"},
        )
    if name == "manifold_noop31":
        return NoopWorkload(inputs)
    raise ValueError(f"unknown workload {name!r}")
