"""Real multi-core execution via ``multiprocessing`` — the GIL workaround.

The coordination-faithful configurations in :mod:`mainprog` demonstrate
the protocol; this module is the measurement configuration for *actual*
speedup on the present machine: the same grids, the same ``subsolve``,
fanned out over a process pool, with the same prolongation at the end.
Because ``subsolve`` touches only its own grid (the paper's cut
criterion), the fan-out is embarrassingly parallel and results are
bitwise identical to the sequential loop.

The warm path (the defaults) removes the seed's coordination-layer
overhead in three ways:

* the pool is the process-wide **persistent** pool of :mod:`pool` —
  repeat runs find warm workers instead of re-forking;
* workers serve operators and LU factors from their process-local
  **cache** (:mod:`repro.sparsegrid.cache`) instead of re-assembling;
* jobs are dispatched **longest-predicted-first**, one job per free
  worker, and each worker that comes free is handed the next — LPT
  scheduling — instead of ``pool.map``'s static contiguous chunks,
  which lose makespan on the geometrically-skewed grid family (the
  biggest diagonal sits at the *end* of the paper's loop order).

``warm_pool=False`` reproduces the seed's throwaway pool and per-run
assembly, so the benchmarks can measure the cold/warm gap.  Both
configurations are bitwise identical in their output.

**Fault tolerance.**  Every run — with or without ``escalation`` or
``faults`` — is driven by the shared dispatch core
(:mod:`~repro.restructured.dispatch`); there is no other way onto a
pool worker.  This module only *drives* the core, through the socket
master's loop (:func:`~repro.restructured.dispatch.drive`): ``place``
takes an idle task instance from the pool, ``launch`` sends the attempt
down that worker's pipe and registers the pipe with the lease's
selector, ``retire`` unregisters it and gives the worker back or
replaces it.  The pool's two signals are translated into core calls —

1. a **readable pipe**: the worker's ``("ok", payload)`` is the job's
   result, its ``("error", text)`` a transient exception, and EOF a
   **crashed** worker — the master placed the job there, so the death
   convicts exactly that job the moment the process is gone, and only
   that process is replaced;
2. the core's per-job **deadline**: a **hung** worker trips it, is
   killed and replaced — that one worker, nothing else in flight is
   touched — and the job re-dispatched.

Completed results are keyed by grid ``(l, m)`` and never recomputed,
and because ``subsolve`` is deterministic, replays are idempotent: the
combined solution stays bitwise identical to a fault-free run.  A run
that fails or is interrupted replaces every worker it still holds on
its way out, so nothing is left queued or running behind it.
Escalation is the core's: retry → reassign → in-master sequential
``subsolve`` → fail the run with a structured
:class:`~repro.resilience.policy.FaultReport` inside
:class:`~repro.resilience.policy.FaultToleranceExhausted`.
"""

from __future__ import annotations

import multiprocessing
import selectors
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Optional, Union

import numpy as np

from repro.manifold.timers import TimerWheel
from repro.resilience import EscalationPolicy, FaultPlan, FaultReport
from repro.sparsegrid.combination import combine
from repro.sparsegrid.grid import Grid, nested_loop_grids
from repro.trace.analysis import TraceAnalysis
from repro.trace.recorder import recording, trace_span

from .dispatch import (
    DispatchCore,
    DispatchOutcome,
    Driver,
    Job,
    Slot,
    drive,
)
from .pool import (
    ParkedFleet,
    PersistentWorkerPool,
    acquire_pool,
    park_fleet,
    take_fleet,
)
from .worker import SubsolveJobSpec, SubsolvePayload

__all__ = [
    "RunResult",
    "order_longest_first",
    "run_multiprocessing",
]

#: execution substrates: ``pool`` is the persistent pool of local task
#: instances (warm path), ``socket`` dispatches over real TCP to worker
#: daemons (:mod:`repro.restructured.netengine`)
ENGINES = ("pool", "socket")


def order_longest_first(specs: list[SubsolveJobSpec]) -> list[SubsolveJobSpec]:
    """Longest-predicted-first (LPT) dispatch order; ties keep loop
    order (the sort is stable).

    The prediction is a structural proxy, the interior unknown count:
    ``n_interior`` grows geometrically with the diagonal ``l+m``
    (separating the two diagonals of the family by ~4x) and, within a
    diagonal, peaks at the square grid — matching the measured per-grid
    profile, where assembly, factorization bandwidth and per-solve cost
    all scale with the unknowns.
    """
    return sorted(specs, key=lambda s: s.grid.n_interior, reverse=True)


@dataclass
class RunResult:
    """What one run of the restructured application produced, however
    it was deployed: the MANIFOLD master/worker protocol
    (:func:`~repro.restructured.mainprog.run_concurrent`), the fork
    pool or the socket fleet (:func:`run_multiprocessing`)."""

    root: int
    level: int
    tol: float
    #: jobs the run had in flight at most: its ``processes``, however
    #: large the warm pool it ran on
    processes: int
    payloads: dict[tuple[int, int], SubsolvePayload]
    target_grid: Grid
    combined: np.ndarray
    total_seconds: float
    pool_seconds: float
    #: master-side seconds resampling/folding grids into the target
    combine_seconds: float = 0.0
    #: execution substrate of this run ("manifold", "pool" or "socket")
    engine: str = "pool"
    # ------------------------------------------------------------------
    # warm-path observability
    # ------------------------------------------------------------------
    #: the shared pool — on the socket engine, the shared fleet —
    #: pre-existed this call (warm workers)
    warm_pool: bool = False
    #: seconds spent forking a pool, or the fleet's daemons, inside
    #: this call (0.0 when warm)
    pool_cold_start_seconds: float = 0.0
    #: grids in the order jobs were handed to the pool
    dispatch_order: tuple[tuple[int, int], ...] = ()
    #: grids in the order their results arrived
    completion_order: tuple[tuple[int, int], ...] = ()
    # ------------------------------------------------------------------
    # fault tolerance (a fault-free run reports attempts == n jobs and
    # an empty report)
    # ------------------------------------------------------------------
    #: job dispatches, replays included
    attempts: int = 0
    #: how each pool worker lost to a fault was succeeded, in order:
    #: ``"standby"`` (its warm standby promoted) or ``"cold"`` (forked)
    replacements: tuple[str, ...] = ()
    #: the detection-ordered fault history and the grids it recovered
    fault_report: FaultReport = FaultReport()
    # ------------------------------------------------------------------
    # the socket engine (zero on the other engines)
    # ------------------------------------------------------------------
    #: the resolved ``--hosts`` spec ("" off the socket engine)
    hosts: str = ""
    #: worker daemons the master talked to
    daemons: int = 0
    #: connections re-established after a drop, silence, or daemon kill
    reconnects: int = 0
    #: framed bytes that crossed the sockets, each direction
    net_bytes_sent: int = 0
    net_bytes_received: int = 0
    #: master-side seconds inside socket send / result-body receive
    net_send_seconds: float = 0.0
    net_recv_seconds: float = 0.0

    @property
    def faults(self) -> int:
        return self.fault_report.faults

    @property
    def recovered(self) -> int:
        return self.fault_report.recovered

    @property
    def fallbacks(self) -> int:
        return self.fault_report.fallbacks

    @property
    def n_workers(self) -> int:
        return len(self.payloads)

    @property
    def operator_cache_hits(self) -> int:
        return sum(1 for p in self.payloads.values() if p.operator_cache_hit)

    @property
    def operator_cache_misses(self) -> int:
        return len(self.payloads) - self.operator_cache_hits

    @property
    def operator_cache_hit_ratio(self) -> float:
        if not self.payloads:
            return 0.0
        return self.operator_cache_hits / len(self.payloads)

    @property
    def factor_cache_hits(self) -> int:
        return sum(p.factor_cache_hits for p in self.payloads.values())

    @property
    def factor_reuse_ratio(self) -> float:
        """Pooled over all grids: prepares served without a fresh LU."""
        prepares = sum(p.prepare_calls for p in self.payloads.values())
        if prepares == 0:
            return 0.0
        reused = sum(p.factor_reuse_hits for p in self.payloads.values())
        return reused / prepares

    def report_lines(self, trace=None) -> list[str]:
        """The run's one report: what the result knows, then its fault
        report when it had faults, then — given the run's
        :class:`~repro.trace.TraceRecorder` — the trace's report, the
        text ``repro analyze-trace`` prints for the written trace."""
        start = f"{self.pool_cold_start_seconds * 1e3:.1f} ms"
        lines = []
        if self.engine == "socket":
            fleet = (
                "warm (no spawn paid)" if self.warm_pool
                else f"cold (spawn {start})"
            )
            lines.append(
                f"socket engine: {self.daemons} daemon(s) on "
                f"{self.hosts or 'localhost'}, fleet: {fleet}, "
                f"{self.net_bytes_sent + self.net_bytes_received} framed "
                f"bytes ({self.net_bytes_sent} sent / "
                f"{self.net_bytes_received} received), "
                f"{self.net_send_seconds + self.net_recv_seconds:.3f}s on "
                f"the wire, {self.reconnects} reconnect(s)"
            )
        else:
            lines.append(
                "pool: warm" if self.warm_pool else f"pool: cold (fork {start})"
            )
        if self.faults:
            lines.append(
                f"attempts: {self.attempts} for {self.n_workers} grids"
                + "".join(
                    f", worker replaced by a "
                    f"{'warm standby' if how == 'standby' else 'cold fork'}"
                    for how in self.replacements
                )
            )
        pickled = sum(int(p.solution.nbytes) for p in self.payloads.values())
        if pickled:
            lines.append(
                f"result transport: {pickled} bytes through the pickle "
                f"channel, combine {self.combine_seconds * 1e3:.1f} ms"
            )
        # the dispatch order scored on the run's own measured durations:
        # a scheduling metric free of this machine's core count
        workers = max(2, self.processes)
        seconds = [self.payloads[k].wall_seconds for k in self.dispatch_order]
        lines += [
            f"operator cache: {self.operator_cache_hits} hits / "
            f"{self.operator_cache_misses} misses "
            f"(hit ratio {self.operator_cache_hit_ratio:.2f})",
            f"factorization reuse: ratio {self.factor_reuse_ratio:.2f}, "
            f"{self.factor_cache_hits} cross-run factor-cache hits",
            f"makespan @{workers} workers: dispatched "
            f"{_greedy_makespan(seconds, workers):.3f}s (lower bound "
            f"{sum(seconds) / workers:.3f}s)",
            f"pool {self.pool_seconds:.3f}s, total {self.total_seconds:.3f}s",
        ]
        if self.faults:
            lines += self.fault_report.lines()
        if trace is not None:
            lines += TraceAnalysis(trace.events()).report_lines()
        return lines


def _greedy_makespan(durations: list[float], n_workers: int) -> float:
    """Elapsed time of a greedy list schedule: each of ``n_workers``
    workers pulls the next duration when it becomes free."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    loads = [0.0] * min(n_workers, len(durations))
    for d in durations:
        if d < 0:
            raise ValueError(f"durations must be non-negative, got {d}")
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads, default=0.0)


# ----------------------------------------------------------------------
# the pool driver of the dispatch core
# ----------------------------------------------------------------------
class _PoolLease:
    """The pool a run dispatches into, shared or private, the at most
    ``processes`` of its workers the run may hold at once, and the
    selector their pipes are watched with."""

    def __init__(self, processes: int, shared: bool) -> None:
        self.processes = processes
        self.shared = shared
        if shared:
            self.pool, self.was_warm = acquire_pool(processes)
        else:
            self.pool, self.was_warm = PersistentWorkerPool(processes), False
        self.cold_start_seconds = (
            0.0 if self.was_warm else self.pool.cold_start_seconds
        )
        #: how each worker the run lost was succeeded ("standby"/"cold")
        self.replacements: list[str] = []
        self.selector = selectors.DefaultSelector()
        #: what the run's timers are read off
        self.clock = time.monotonic

    def release(self) -> None:
        self.selector.close()
        if not self.shared:
            self.pool.shutdown()


class _FleetLease:
    """The socket fleet a run dispatches over, shared or private — the
    socket engine's :class:`_PoolLease`.

    A shared lease takes the fleet parked under its key out of the slot
    in :mod:`pool` and re-enters it, provided the fleet was released
    less than half ``FLEET_IDLE_EXIT`` ago on ``clock`` — its daemons
    started their idle clocks no earlier than that release, so none can
    have decided to leave — and every daemon answers.  Otherwise, and
    for every private lease, the daemons are forked here.
    :meth:`release` parks a shared fleet again if the run left it clean
    (:attr:`~netengine.SocketTaskEngine.reusable`) and closes it if
    not; a private one is always closed.
    """

    def __init__(self, hosts: str, shared: bool, clock=time.monotonic) -> None:
        # lazy: keeps the socket machinery out of pool-only runs
        from .netengine import FLEET_IDLE_EXIT, SocketTaskEngine

        self.shared = shared
        self.clock = clock
        fleet = take_fleet(hosts) if shared else None
        self.was_warm = fleet is not None and self._reenter(
            fleet, FLEET_IDLE_EXIT / 2
        )
        if not self.was_warm:
            engine = SocketTaskEngine(
                hosts, idle_exit=FLEET_IDLE_EXIT if shared else None
            )
            fleet = ParkedFleet(hosts, engine, released_at=0.0, runs_served=0)
        self.fleet = fleet
        self.engine = fleet.engine
        self.cold_start_seconds = (
            0.0 if self.was_warm else self.engine.spawn_seconds
        )

    def _reenter(self, fleet: ParkedFleet, window: float) -> bool:
        """Reconnect a fleet taken out of the slot, or close it — also
        on an interrupt: out of the slot, it is this lease's to end."""
        fresh = False
        try:
            fresh = (
                self.clock() - fleet.released_at < window
                and fleet.engine.resume()
            )
            return fresh
        finally:
            if not fresh:
                fleet.engine.close()

    def release(self) -> None:
        # read before the disconnect that starts the daemons' idle clocks
        self.fleet.released_at = self.clock()
        self.fleet.runs_served += 1
        if self.shared and self.engine.park():
            park_fleet(self.fleet)
        else:
            self.engine.close()


def _run_pool(
    lease: _PoolLease,
    ordered: list[SubsolveJobSpec],
    *,
    use_cache: bool,
    plan,
    escalation,
    trace=None,
) -> DispatchOutcome:
    """Drive the dispatch core over the pool's task instances.

    Nothing of the job lifecycle is decided here: this function only
    gives the core the pool's way to place, launch and retire an
    attempt, and its channels — a busy worker's pipe, registered with
    its attempt from ``launch`` to ``retire`` — whose result, error or
    EOF ``ready`` turns into :class:`DispatchCore` calls.
    """
    pool, selector = lease.pool, lease.selector

    def place() -> Optional[Slot]:
        if len(core.pending) >= lease.processes:
            return None  # a larger warm pool lends no more than asked
        worker = pool.take()
        return None if worker is None else Slot(worker, worker.process.pid)

    def launch(job: Job) -> None:
        selector.register(job.worker.channel, selectors.EVENT_READ, job)
        try:
            job.worker.channel.send((job.spec, plan, job.attempt, use_cache))
        except OSError:
            pass  # died since take(): its pipe reads EOF in the loop

    def retire(job: Job, kind: Optional[str]) -> None:
        selector.unregister(job.worker.channel)
        if kind is None or kind == "exception":
            pool.give(job.worker)
            return
        # dead, or wedged and killed here: that one worker is replaced
        wedged = kind != "crash"
        promoted = pool.replace(job.worker, wedged=wedged)
        lease.replacements.append("standby" if promoted else "cold")
        if wedged and trace is not None:
            trace.record("respawn", key=job.key, attempt=job.attempt)

    def ready(job: Job, channel: Connection) -> None:
        # every call names the attempt: the core drops a superseded one's
        try:
            status, body = channel.recv()
        except (EOFError, OSError):
            error = f"worker pid {job.worker.process.pid} died"
            core.fault(job.key, "crash", detected_by="liveness", error=error,
                       attempt=job.attempt)
            return
        if status == "ok":
            core.result(job.key, job.attempt, body)
        else:
            core.fault(job.key, "exception", detected_by="exception", error=body,
                       attempt=job.attempt)

    def starved() -> None:
        # nothing of ours is busy, so no timer can give a worker back
        raise RuntimeError(
            "no pool worker is free and none is ours to wait for: "
            "another run holds them all"
        )

    core = DispatchCore(
        ordered,
        Driver(place=place, launch=launch, retire=retire),
        escalation=escalation,
        timers=TimerWheel(lease.clock),
        use_cache=use_cache,
        seconds_per_unknown=pool.seconds_per_unknown,
        trace=trace,
    )
    try:
        outcome = drive(core, selector, ready, starved=starved)
        pool.seconds_per_unknown = core.seconds_per_unknown
        if use_cache:
            pool.keep_standbys(core.completed.values())
        return outcome
    finally:
        # a failed or interrupted run leaves nothing running behind it
        # (the lease closes the selector that still watches their pipes)
        for job in list(core.pending.values()):
            pool.replace(job.worker)


def run_multiprocessing(
    root: int = 2,
    level: int = 2,
    tol: float = 1.0e-3,
    problem_name: str = "rotating-cone",
    problem_kwargs: Optional[dict] = None,
    *,
    processes: Optional[int] = None,
    t_end: Optional[float] = None,
    scheme: str = "upwind",
    target_cap: int | None = 8,
    warm_pool: bool = True,
    escalation=None,
    faults: Union[str, object, None] = None,
    trace=None,
    engine: str = "pool",
    hosts: Optional[str] = None,
) -> RunResult:
    """Run the whole application with a process pool over the grids.

    The defaults are the warm path; ``warm_pool=False`` is the one
    cold switch, for cold measurements: a throwaway pool — on the
    socket engine, throwaway daemons — whose workers reuse no operator
    or factor (the seed behaviour).

    Every run is driven by the dispatch core under the default ladder
    ``EscalationPolicy(RetryPolicy(), DeadlinePolicy())``: a crashed,
    hung or transiently failing worker costs a re-dispatch, not the
    run, and an error that survives every retry and the in-master
    fallback surfaces as :class:`~repro.resilience.FaultToleranceExhausted`
    with the worker's exception as its ``__cause__``.  ``escalation``
    (:class:`~repro.resilience.EscalationPolicy`, whose ``retry`` and
    ``deadline`` fields default) replaces the ladder; ``faults`` (a
    :class:`~repro.resilience.FaultPlan` or its spec string) injects
    failures into the workers.  The core prices each job's deadline
    from the run's own results; the pool or fleet keeps the rate it
    learned, so a warm run starts with it and a ``warm_pool=False``
    run learns it afresh.

    ``trace`` (a :class:`~repro.trace.TraceRecorder`) records the run's
    structured event timeline: job lifecycle, faults and recovery
    actions, and — because the recorder is installed globally for the
    duration — the pool's worker spawns/deaths too.

    Every result comes home the one way: pickled through the engine's
    channel, and folded by :func:`~repro.sparsegrid.combination.combine`
    once the last grid has landed.

    ``engine`` picks the execution substrate: ``"pool"`` (default) is
    the fork pool of the warm path; ``"socket"`` dispatches over real
    TCP to worker daemons per ``hosts`` (see
    :func:`repro.restructured.netengine.parse_hosts`; default: one
    local daemon per process), each of which computes its one job at a
    time in a task instance like the pool's, and which are leased
    across calls like the pool
    (``docs/distributed.md``, *Warm fleet*).  Both are drivers of the
    one dispatch core (:mod:`~repro.restructured.dispatch`).
    """
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    if hosts is not None and engine != "socket":
        raise ValueError("hosts requires engine='socket'")
    if processes is not None and processes < 1:
        raise ValueError(f"processes must be >= 1, got {processes}")
    plan = FaultPlan.parse(faults) if isinstance(faults, str) else faults
    if escalation is None:
        escalation = EscalationPolicy()

    t_start = time.perf_counter()
    kw_pairs = tuple(sorted((problem_kwargs or {}).items()))
    specs = [
        SubsolveJobSpec(
            problem_name=problem_name,
            root=root,
            l=g.l,
            m=g.m,
            tol=tol,
            t_end=t_end,
            scheme=scheme,
            problem_kwargs=kw_pairs,
        )
        for g in nested_loop_grids(root, level)
    ]
    n_proc = processes or min(len(specs), multiprocessing.cpu_count())
    ordered = order_longest_first(specs)

    #: the socket engine's counters (zero on the fork pool)
    net_stats: dict = {}
    replacements: tuple[str, ...] = ()

    t_pool = time.perf_counter()
    with recording(trace):
        with trace_span("fanout"):
            if engine == "socket":
                hosts = hosts or f"localhost:{n_proc}"
                lease = _FleetLease(hosts, shared=warm_pool)
                net = lease.engine
                try:
                    outcome = net.run(
                        ordered,
                        escalation=escalation,
                        plan=plan,
                        use_cache=warm_pool,
                        trace=trace,
                    )
                finally:
                    lease.release()
                n_proc = len(net.links)  # one job per daemon
                net_stats = {
                    "daemons": len(net.links),
                    "reconnects": net.reconnects,
                    "net_bytes_sent": net.bytes_sent,
                    "net_bytes_received": net.bytes_received,
                    "net_send_seconds": net.net_send_seconds,
                    "net_recv_seconds": net.net_recv_seconds,
                }
            else:
                lease = _PoolLease(n_proc, shared=warm_pool)
                try:
                    outcome = _run_pool(
                        lease,
                        ordered,
                        use_cache=warm_pool,
                        plan=plan,
                        escalation=escalation,
                        trace=trace,
                    )
                finally:
                    lease.release()
                replacements = tuple(lease.replacements)
            payloads = outcome.payloads
        pool_seconds = time.perf_counter() - t_pool

        t_combine = time.perf_counter()
        solutions = {key: p.solution for key, p in payloads.items()}
        with trace_span("prolongation"):
            target_grid, combined = combine(
                solutions, root, level, target_cap=target_cap
            )
        combine_seconds = time.perf_counter() - t_combine

    return RunResult(
        root=root,
        level=level,
        tol=tol,
        processes=n_proc,
        payloads=payloads,
        target_grid=target_grid,
        combined=combined,
        total_seconds=time.perf_counter() - t_start,
        pool_seconds=pool_seconds,
        warm_pool=lease.was_warm,
        pool_cold_start_seconds=lease.cold_start_seconds,
        dispatch_order=tuple((s.l, s.m) for s in ordered),
        completion_order=outcome.completion_order,
        attempts=outcome.attempts,
        replacements=replacements,
        fault_report=outcome.report,
        combine_seconds=combine_seconds,
        engine=engine,
        hosts=hosts or "",
        **net_stats,
    )
