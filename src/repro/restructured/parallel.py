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
* jobs are dispatched **longest-predicted-first** through
  ``imap_unordered`` with chunksize 1 — LPT scheduling — instead of
  ``pool.map``'s static contiguous chunks, which lose makespan on the
  geometrically-skewed grid family (the biggest diagonal sits at the
  *end* of the paper's loop order).

``dispatch="static"``, ``warm_pool=False`` and ``operator_cache=False``
reproduce the seed behaviour exactly, so the benchmarks can measure the
cold/warm gap.  Every configuration is bitwise identical in its output.

**Fault tolerance.**  Passing any of ``retry``, ``deadline``,
``escalation`` or ``faults`` switches the fan-out to the resilient
dispatch loop: every job is submitted individually (``apply_async``,
preserving the greedy LPT pull order), workers report heartbeats, and
the master watches three fault channels —

1. a job's exception (e.g. an injected transient fault) surfaces
   through its ``AsyncResult``;
2. a **crashed** worker is caught by PID liveness: the heartbeat names
   the worker holding each job, so a vanished PID convicts exactly one
   lost job, which is re-dispatched immediately (``multiprocessing``
   itself would let its ``AsyncResult`` wait forever);
3. a **hung** worker trips its per-job deadline (cost-model-scaled via
   :class:`~repro.resilience.policy.DeadlinePolicy`); the wedged pool
   is force-respawned and only the in-flight jobs re-dispatched —
   completed results are keyed by grid ``(l, m)`` and never recomputed,
   and because ``subsolve`` is deterministic, replays are idempotent:
   the combined solution stays bitwise identical to a fault-free run.

Escalation follows :class:`~repro.resilience.policy.EscalationPolicy`:
retry → reassign → in-master sequential ``subsolve`` → fail the run
with a structured :class:`~repro.resilience.policy.FaultReport` inside
:class:`~repro.resilience.policy.FaultToleranceExhausted`.
"""

from __future__ import annotations

import multiprocessing
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Optional, Union

import numpy as np

from repro.sparsegrid.combination import combine
from repro.sparsegrid.grid import Grid, nested_loop_grids
from repro.trace.recorder import recording, trace_span

from .pool import PersistentWorkerPool, acquire_pool, respawn_pool
from .worker import (
    SubsolveJobSpec,
    SubsolvePayload,
    execute_job,
    execute_job_uncached,
    shm_entry,
)

__all__ = [
    "MultiprocessingResult",
    "predicted_spec_seconds",
    "order_longest_first",
    "resolve_split_map",
    "run_multiprocessing",
]

DISPATCH_POLICIES = ("longest-first", "static")

#: execution substrates: ``pool`` is the fork pool (warm path), ``task``
#: fans threads out over one :class:`~repro.restructured.taskengine.
#: TaskInstanceEngine` (the MLINK semantics, in-machine), ``socket``
#: dispatches over real TCP to worker daemons
#: (:mod:`repro.restructured.netengine`)
ENGINES = ("pool", "task", "socket")

#: result transports: ``pickle`` is the seed channel (serialize → pipe →
#: deserialize per payload, barriered combine); ``shm`` is the zero-copy
#: data plane of :mod:`repro.perf.dataplane` with streaming combination
DATA_PLANES = ("pickle", "shm")


def _trace_payload(trace, payload, *, attempt: int = 1, fallback: bool = False) -> None:
    """Emit one completed job's lifecycle onto the trace timeline.

    The start/finish timestamps were measured by the worker process's
    own monotonic clock and carried home in the payload; on Linux that
    is the same ``CLOCK_MONOTONIC`` the recorder's default clock reads,
    so they land directly on the shared time axis.
    """
    if trace is None:
        return
    key = (payload.l, payload.m)
    worker = payload.worker_pid or None
    started = payload.started_monotonic or None
    trace.record(
        "cache_hit" if payload.operator_cache_hit else "cache_miss",
        key=key,
        worker=worker,
        t=started,
    )
    trace.record("job_start", key=key, worker=worker, attempt=attempt, t=started)
    extra = {"fallback": True} if fallback else {}
    trace.record(
        "job_done",
        key=key,
        worker=worker,
        attempt=attempt,
        t=payload.finished_monotonic or None,
        wall_seconds=payload.wall_seconds,
        **extra,
    )
    if getattr(payload, "split_k", 1) > 1:
        # sharded job: the strips ran inside the worker process, where
        # the global emit() hook is a no-op — lift the counters the
        # payload carried home onto the master's timeline as one
        # aggregate event per kind
        trace.record(
            "strip_factor",
            key=key,
            worker=worker,
            attempt=attempt,
            split_k=payload.split_k,
            count=payload.strip_factorizations,
            seconds=payload.strip_factor_seconds,
            critical_seconds=payload.critical_strip_factor_seconds,
        )
        trace.record(
            "halo_exchange",
            key=key,
            worker=worker,
            attempt=attempt,
            exchanges=payload.halo_exchanges,
            payload_bytes=payload.halo_bytes,
        )
        trace.record(
            "schur_solve",
            key=key,
            worker=worker,
            attempt=attempt,
            count=payload.interface_solves,
            seconds=payload.interface_solve_seconds,
            interface_unknowns=payload.interface_unknowns,
        )


def predicted_spec_seconds(spec: SubsolveJobSpec, cost_model=None) -> float:
    """Predicted ``subsolve`` cost of one job, for dispatch ordering.

    With a calibrated :class:`~repro.perf.costmodel.CostModel` the
    prediction is its fitted wall time.  Without one, a structural
    proxy: the interior unknown count.  ``n_interior`` grows
    geometrically with the diagonal ``l+m`` (separating the two
    diagonals of the family by ~4x) and, within a diagonal, peaks at
    the square grid — matching the measured per-grid profile, where
    assembly, factorization bandwidth and per-solve cost all scale with
    the unknowns.
    """
    if cost_model is not None:
        return float(cost_model.predict_seconds(spec.l, spec.m, spec.tol))
    return float(spec.grid.n_interior)


def order_longest_first(
    specs: list[SubsolveJobSpec], cost_model=None
) -> list[SubsolveJobSpec]:
    """Longest-predicted-first (LPT) dispatch order; ties keep loop
    order (the sort is stable)."""
    return sorted(
        specs,
        key=lambda s: predicted_spec_seconds(s, cost_model),
        reverse=True,
    )


def resolve_split_map(
    split: Union[str, int],
    specs: list[SubsolveJobSpec],
    *,
    level: int,
    tol: float,
    n_workers: int,
    cost_model=None,
) -> dict[tuple[int, int], int]:
    """Which grids to shard, and into how many strips: ``{(l, m): k}``.

    ``"off"`` (or a single worker — splitting cannot shorten a one-lane
    schedule) splits nothing.  An integer ``k`` splits the head-of-line
    grids — every grid tied at the maximal interior size, which on the
    even diagonal means both square-ish twins.  ``"auto"`` asks the
    calibrated cost model where splitting beats LPT packing
    (:meth:`~repro.perf.costmodel.CostModel.plan_split`: split only when
    the predicted makespan drops); without a calibrated model it falls
    back to the structural choice ``k=2`` on the top grids, mirroring
    the integer path.
    """
    if split == "off" or n_workers < 2 or not specs:
        return {}
    if split == "auto":
        if cost_model is not None and hasattr(cost_model, "plan_split"):
            planned = cost_model.plan_split(level, tol, n_workers=n_workers)
            if planned is not None:
                return dict(planned)
        split = 2
    k = int(split)
    if k < 1:
        raise ValueError(f"split must be 'off', 'auto' or k >= 1, got {k}")
    if k == 1:
        return {}
    top = max(s.grid.n_interior for s in specs)
    return {
        (s.l, s.m): k for s in specs if s.grid.n_interior == top
    }


@dataclass
class MultiprocessingResult:
    root: int
    level: int
    tol: float
    processes: int
    payloads: dict[tuple[int, int], SubsolvePayload]
    target_grid: Grid
    combined: np.ndarray
    total_seconds: float
    pool_seconds: float
    # ------------------------------------------------------------------
    # warm-path observability
    # ------------------------------------------------------------------
    #: dispatch policy used ("longest-first" or "static")
    dispatch: str = "static"
    #: the shared pool pre-existed this call (warm workers)
    warm_pool: bool = False
    #: seconds spent forking a pool inside this call (0.0 when warm)
    pool_cold_start_seconds: float = 0.0
    #: grids in the order jobs were handed to the pool
    dispatch_order: tuple[tuple[int, int], ...] = ()
    #: grids in the order their results arrived
    completion_order: tuple[tuple[int, int], ...] = ()
    # ------------------------------------------------------------------
    # fault tolerance (the resilient dispatch loop fills these in; a
    # fault-free run on the plain path reports attempts == n jobs)
    # ------------------------------------------------------------------
    #: job dispatches, replays and collateral re-dispatches included
    attempts: int = 0
    #: observed fault events (crash, hang/deadline, transient exception)
    faults: int = 0
    #: grids that faulted at least once but ultimately completed
    recovered: int = 0
    #: grids completed by the in-master sequential fallback
    fallbacks: int = 0
    #: pool generations force-respawned to reclaim wedged workers
    pool_respawns: int = 0
    #: the detection-ordered fault history
    fault_events: tuple = ()
    #: grids behind the ``recovered`` / ``fallbacks`` counters
    recovered_keys: tuple[tuple[int, int], ...] = ()
    fallback_keys: tuple[tuple[int, int], ...] = ()

    # ------------------------------------------------------------------
    # data plane (the shm transport + streaming combination fill these
    # in; a pickle run reports every payload on the pickle channel)
    # ------------------------------------------------------------------
    #: result transport of this run ("pickle" or "shm")
    data_plane: str = "pickle"
    #: combination was fed per-arrival instead of after the barrier
    streaming: bool = False
    #: payloads whose solution traveled through a shared-memory lease
    shm_payloads: int = 0
    #: payloads that fell back to the pickle channel on an shm run
    shm_fallbacks: int = 0
    #: solution bytes that crossed each transport
    transport_shm_bytes: int = 0
    transport_pickle_bytes: int = 0
    #: worker-side seconds writing + checksumming shm payloads
    shm_write_seconds: float = 0.0
    #: master-side seconds verifying + attaching descriptors
    attach_seconds: float = 0.0
    #: master-side seconds resampling/folding grids into the target
    combine_seconds: float = 0.0
    #: the subset of ``combine_seconds`` spent while subsolves were
    #: still outstanding — work the barriered path serializes
    combine_overlap_seconds: float = 0.0
    #: the :class:`~repro.perf.dataplane.DataPlaneAudit` of the run
    data_plane_audit: Optional[object] = None

    # ------------------------------------------------------------------
    # the socket engine (zero on the in-machine engines)
    # ------------------------------------------------------------------
    #: execution substrate of this run ("pool", "task" or "socket")
    engine: str = "pool"
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

    # ------------------------------------------------------------------
    # intra-grid decomposition (sharded jobs; "off" runs report nothing)
    # ------------------------------------------------------------------
    #: the resolved ``split`` request ("off", "auto", or "k=<n>")
    split: str = "off"
    #: the grids actually split, as ``((l, m), k)`` pairs
    split_grids: tuple = ()

    @property
    def split_payloads(self) -> int:
        """Payloads computed by strip substructuring."""
        return sum(
            1
            for p in self.payloads.values()
            if getattr(p, "split_k", 1) > 1
        )

    @property
    def halo_bytes(self) -> int:
        """Halo/interface vector bytes exchanged by split solves."""
        return sum(
            getattr(p, "halo_bytes", 0) for p in self.payloads.values()
        )

    @property
    def halo_exchanges(self) -> int:
        return sum(
            getattr(p, "halo_exchanges", 0) for p in self.payloads.values()
        )

    @property
    def strip_respawns(self) -> int:
        """Strip children respawned by the team executors' fault path."""
        return sum(
            getattr(p, "strip_respawns", 0) for p in self.payloads.values()
        )

    @property
    def overlap_ratio(self) -> float:
        """Fraction of combination time hidden behind the fan-out."""
        if self.combine_seconds <= 0.0:
            return 0.0
        return self.combine_overlap_seconds / self.combine_seconds

    @property
    def fault_report(self):
        """The run's failure history as a structured report."""
        from repro.resilience import FaultReport

        return FaultReport(
            events=tuple(self.fault_events),
            recovered_keys=self.recovered_keys,
            fallback_keys=self.fallback_keys,
        )

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


# ----------------------------------------------------------------------
# the streaming fan-in
# ----------------------------------------------------------------------
@contextmanager
def _plane_guard(plane):
    """Close the data plane on every exit path; yields a dict that holds
    the :class:`~repro.perf.dataplane.DataPlaneAudit` after unwinding."""
    holder: dict = {}
    try:
        yield holder
    finally:
        if plane is not None:
            holder["audit"] = plane.close()


class _PayloadSink:
    """Consumes payloads as they land: descriptor resolution + streaming
    combination + the transport-vs-compute accounting.

    One sink per shm run.  ``consume`` resolves a descriptor-carrying
    payload into a zero-copy view (:meth:`DataPlane.attach` verifies
    generation and checksum first), feeds the grid to the streaming
    combiner, then returns the segment to the arena — so a block is
    reusable the moment its grid has been resampled.  Combine time
    accrued while other subsolves were still outstanding is the overlap
    the barriered path cannot have.
    """

    def __init__(
        self, plane, combiner, *, n_expected: int, streaming: bool, trace=None
    ) -> None:
        self.plane = plane
        self.combiner = combiner
        self.n_expected = n_expected
        self.streaming = streaming
        self.trace = trace
        self.arrived = 0
        self.shm_payloads = 0
        self.shm_fallbacks = 0
        self.transport_shm_bytes = 0
        self.transport_pickle_bytes = 0
        self.attach_seconds = 0.0
        self.combine_seconds = 0.0
        self.overlap_seconds = 0.0

    def lease_for(self, spec: SubsolveJobSpec):
        """A lease sized for the job's full nodal solution."""
        from repro.perf.dataplane import payload_nbytes

        return self.plane.lease(
            (spec.l, spec.m), payload_nbytes(spec.grid.n_nodes)
        )

    def consume(self, key, payload: SubsolvePayload, *, attempt: int = 1) -> None:
        """Fold one arrived payload into the combined solution.

        Raises :class:`~repro.perf.dataplane.DataPlaneError` (notably
        its stale-generation subclass) *before* any state changes, so
        the resilient loop can treat a rejected descriptor like any
        other fault and re-dispatch the job.
        """
        descriptor = payload.descriptor
        if descriptor is not None:
            t_attach = time.perf_counter()
            values = self.plane.attach(descriptor)
            attach_dt = time.perf_counter() - t_attach
            self.attach_seconds += attach_dt
            self.shm_payloads += 1
            self.transport_shm_bytes += descriptor.payload_bytes
            if self.trace is not None:
                self.trace.record(
                    "payload_shm_write",
                    key=key,
                    worker=payload.worker_pid or None,
                    attempt=attempt,
                    payload_bytes=descriptor.payload_bytes,
                    seconds=payload.shm_write_seconds,
                )
                self.trace.record(
                    "payload_attach",
                    key=key,
                    attempt=attempt,
                    payload_bytes=descriptor.payload_bytes,
                    seconds=attach_dt,
                )
        else:
            values = payload.solution
            self.shm_fallbacks += 1
            self.transport_pickle_bytes += int(values.nbytes)
        self.arrived += 1
        overlapped = self.streaming and self.arrived < self.n_expected
        t_combine = time.perf_counter()
        folded = self.combiner.add(key, values)
        combine_dt = time.perf_counter() - t_combine
        self.combine_seconds += combine_dt
        if overlapped:
            self.overlap_seconds += combine_dt
        if self.trace is not None:
            self.trace.record(
                "combine_chunk",
                key=key,
                seconds=combine_dt,
                folded=folded,
                pending=self.n_expected - self.arrived,
                payload_bytes=int(np.asarray(values).nbytes),
            )
        if descriptor is not None:
            # the combiner copied anything it parked: drop the view and
            # hand the block back for the next lease
            del values
            self.plane.release(descriptor.name)


# ----------------------------------------------------------------------
# the resilient dispatch loop
# ----------------------------------------------------------------------
@dataclass
class _Pending:
    """Master-side bookkeeping of one in-flight job attempt."""

    spec: SubsolveJobSpec
    attempt: int
    handle: object          # the AsyncResult
    deadline_at: float      # monotonic absolute deadline
    submitted_at: float
    pid: Optional[int] = None  # worker PID, once its heartbeat arrives
    lease: Optional[object] = None  # the attempt's ShmLease, if any


class _PoolLease:
    """The pool the resilient loop dispatches into, shared or private,
    with a uniform respawn path for wedged generations."""

    def __init__(self, processes: int, shared: bool) -> None:
        self.processes = processes
        self.shared = shared
        self.respawns = 0
        if shared:
            self.pool, self.was_warm = acquire_pool(processes)
            self.cold_start_seconds = (
                0.0 if self.was_warm else self.pool.cold_start_seconds
            )
        else:
            self.pool = PersistentWorkerPool(processes)
            self.was_warm = False
            self.cold_start_seconds = self.pool.cold_start_seconds

    def respawn(self) -> None:
        """Terminate the wedged generation; fork a fresh one."""
        self.respawns += 1
        if self.shared:
            self.pool = respawn_pool(self.processes)
        else:
            self.pool.shutdown(force=True)
            self.pool = PersistentWorkerPool(self.processes)

    def release(self) -> None:
        if not self.shared:
            self.pool.shutdown()


@dataclass
class _ResilientOutcome:
    payloads: dict[tuple[int, int], SubsolvePayload]
    completion_order: tuple[tuple[int, int], ...]
    attempts: int
    events: tuple
    recovered_keys: tuple[tuple[int, int], ...]
    fallback_keys: tuple[tuple[int, int], ...]
    respawns: int


def _run_resilient(
    lease: _PoolLease,
    ordered: list[SubsolveJobSpec],
    *,
    use_cache: bool,
    plan,
    escalation,
    cost_model,
    fault_log=None,
    poll_interval: float = 0.02,
    trace=None,
    sink: Optional[_PayloadSink] = None,
) -> _ResilientOutcome:
    """Dispatch ``ordered`` with crash/hang/exception recovery.

    Completed payloads are keyed by grid ``(l, m)``; a replayed job
    simply overwrites nothing (it only ever completes once), so
    recovery is idempotent and the result set is exactly one payload
    per grid, bitwise identical to a fault-free run.

    With a ``sink`` (the shm data plane) every attempt carries a fresh
    lease, faults reclaim the faulted attempt's segment, a pool respawn
    bumps the plane's generation — invalidating every outstanding lease
    of the dead generation — and a descriptor the generation check
    rejects is escalated like any other fault instead of being
    attached.
    """
    from repro.resilience import (
        EscalationStep,
        FaultEvent,
        FaultLog,
        FaultToleranceExhausted,
        resilient_entry,
    )

    log = fault_log if fault_log is not None else FaultLog()
    retry, deadline_policy = escalation.retry, escalation.deadline
    completed: dict[tuple[int, int], SubsolvePayload] = {}
    completion_order: list[tuple[int, int]] = []
    pending: dict[tuple[int, int], _Pending] = {}
    recovered_keys: list[tuple[int, int]] = []
    fallback_keys: list[tuple[int, int]] = []
    attempts = 0

    def predicted(spec: SubsolveJobSpec) -> Optional[float]:
        if cost_model is None:
            return None
        return float(cost_model.predict_seconds(spec.l, spec.m, spec.tol))

    def submit(spec: SubsolveJobSpec, attempt: int) -> None:
        nonlocal attempts
        attempts += 1
        now = time.monotonic()
        if trace is not None:
            trace.record("job_submit", key=(spec.l, spec.m), attempt=attempt)
        shm_lease = sink.lease_for(spec) if sink is not None else None
        handle = lease.pool.submit(
            resilient_entry, (spec, plan, attempt, use_cache, shm_lease)
        )
        pending[(spec.l, spec.m)] = _Pending(
            spec=spec,
            attempt=attempt,
            handle=handle,
            deadline_at=now + deadline_policy.deadline_seconds(predicted(spec)),
            submitted_at=now,
            lease=shm_lease,
        )

    def complete(key: tuple[int, int], payload: SubsolvePayload) -> None:
        from repro.perf.dataplane import DataPlaneError, StaleLeaseError

        job = pending[key]
        if sink is not None:
            try:
                sink.consume(key, payload, attempt=job.attempt)
            except StaleLeaseError as exc:
                # a descriptor written before a respawn: its block may be
                # re-leased already, so the result is discarded and the
                # job escalated (decide() retries unknown kinds)
                handle_fault(
                    key, "stale", detected_by="dataplane", error=repr(exc)
                )
                return
            except DataPlaneError as exc:
                handle_fault(
                    key, "transport", detected_by="dataplane", error=repr(exc)
                )
                return
        was_replay = job.attempt > 1
        del pending[key]
        completed[key] = payload
        completion_order.append(key)
        _trace_payload(trace, payload, attempt=job.attempt)
        if was_replay and key not in recovered_keys:
            recovered_keys.append(key)

    def fail_run(cause: Optional[BaseException] = None) -> None:
        report = log.report(
            recovered_keys=recovered_keys,
            fallback_keys=fallback_keys,
            failed_key=log.events()[-1].key if len(log) else None,
        )
        raise FaultToleranceExhausted(report) from cause

    def respawn_generation(key: tuple[int, int], attempt: int) -> None:
        """A worker is wedged and occupies a slot forever: reclaim it by
        respawning the pool, then re-dispatch every job that was in
        flight (their handles died with the old generation); completed
        results are untouched."""
        collateral = list(pending.values())
        pending.clear()
        lease.respawn()
        if sink is not None:
            # the old generation's workers are dead: reclaim all
            # outstanding leases and invalidate their in-flight
            # descriptors (attach will refuse them as stale)
            sink.plane.bump_generation()
        if trace is not None:
            trace.record(
                "respawn",
                key=key,
                attempt=attempt,
                collateral=len(collateral),
            )
        for other in collateral:
            submit(other.spec, other.attempt)

    def handle_fault(
        key: tuple[int, int], kind: str, detected_by: str, error: str = ""
    ) -> None:
        job = pending.pop(key)
        if kind == "crash":
            # the dead worker's job never completes; forget its handle
            # so the pool can still be drained gracefully later
            lease.pool.discard(job.handle)
        if (
            sink is not None
            and job.lease is not None
            and kind not in ("hang", "deadline")
        ):
            # the faulted attempt's segment has no live writer (crashed,
            # raised before writing, or its descriptor was just refused)
            # — reclaim it for the arena before the retry leases anew.
            # A hung worker may still write later, so its block is NOT
            # returned here: the respawn below terminates the generation
            # and bump_generation reclaims every outstanding lease, and
            # on the no-respawn path close() reaps it late — never while
            # a wedged writer could still scribble into a re-leased block
            sink.plane.revoke(job.lease.name, reason=kind)
        step = escalation.decide(job.attempt, kind)
        event = FaultEvent(
            key=key,
            kind=kind,
            attempt=job.attempt,
            action=step.value,
            detected_by=detected_by,
            error=error,
            seconds_lost=time.monotonic() - job.submitted_at,
        )
        log.record(event)
        if trace is not None:
            trace.record_fault(event)
        if step in (EscalationStep.RETRY, EscalationStep.REASSIGN):
            if kind in ("hang", "deadline"):
                respawn_generation(key, job.attempt)
            delay = retry.delay_seconds(job.attempt, key)
            time.sleep(delay)
            if trace is not None:
                trace.record(
                    "retry",
                    key=key,
                    attempt=job.attempt + 1,
                    cause=kind,
                    backoff_seconds=delay,
                )
            submit(job.spec, job.attempt + 1)
        elif step is EscalationStep.FALLBACK:
            if kind in ("hang", "deadline"):
                # the wedged worker outlives the job it ruined: without
                # this respawn it keeps its pool slot *and* its shm
                # attachment past the run, so the plane's close-audit
                # reaps its lease late and the next warm acquisition
                # inherits a busy worker — reclaim the generation here
                # exactly like the retry path does
                respawn_generation(key, job.attempt)
            # graceful degradation: the master computes the grid itself,
            # sequentially and without injection — the paper's original
            # loop body as the last safety net before failing the run.
            # This path never touches the data plane: the in-master
            # payload carries its array directly (no lease, no
            # descriptor), so a closed or bumped plane cannot reject it
            try:
                payload = execute_job(job.spec, use_cache=use_cache)
            except Exception as exc:
                log.record(
                    FaultEvent(
                        key=key,
                        kind="exception",
                        attempt=job.attempt,
                        action="fail",
                        detected_by="fallback",
                        error=repr(exc),
                    )
                )
                fail_run(exc)
            if sink is not None:
                # in-master payloads carry their array directly; the
                # sink still folds them so the streaming combiner sees
                # every grid exactly once
                sink.consume(key, payload, attempt=job.attempt + 1)
            completed[key] = payload
            completion_order.append(key)
            fallback_keys.append(key)
            if trace is not None:
                trace.record("fallback", key=key, attempt=job.attempt, cause=kind)
                # attempt + 1: the in-master replay is a fresh attempt,
                # distinct from the failed one on the (key, attempt) axis
                _trace_payload(
                    trace, payload, attempt=job.attempt + 1, fallback=True
                )
            if key not in recovered_keys:
                recovered_keys.append(key)
        else:  # EscalationStep.FAIL
            fail_run()

    for spec in ordered:
        submit(spec, 1)

    while pending:
        progressed = False
        # 1) heartbeats: learn which worker PID holds which job
        for beat in lease.pool.drain_heartbeats():
            phase, key, attempt, pid = beat
            job = pending.get(key)
            if job is not None and job.attempt == attempt:
                job.pid = pid if phase == "start" else None
        # 2) finished handles: results and job-raised exceptions
        for key in list(pending):
            job = pending[key]
            if not job.handle.ready():
                continue
            progressed = True
            try:
                payload = job.handle.get()
            except Exception as exc:
                handle_fault(
                    key, "exception", detected_by="exception", error=repr(exc)
                )
            else:
                complete(key, payload)
        # 3) liveness: a vanished PID convicts exactly its lost job
        dead = lease.pool.reap_dead_workers()
        if dead:
            for key in list(pending):
                job = pending.get(key)
                if job is None or job.pid not in dead:
                    continue
                if job.handle.ready():
                    continue  # finished just before dying; handled above
                progressed = True
                handle_fault(
                    key,
                    "crash",
                    detected_by="liveness",
                    error=f"worker pid {job.pid} died",
                )
        # 4) deadlines: hung (or undetectably lost) jobs
        now = time.monotonic()
        for key in list(pending):
            job = pending.get(key)
            if job is None or now < job.deadline_at or job.handle.ready():
                continue
            progressed = True
            handle_fault(
                key,
                "deadline",
                detected_by="deadline",
                error=(
                    f"no result within "
                    f"{job.deadline_at - job.submitted_at:.2f}s"
                ),
            )
        if not progressed and pending:
            time.sleep(poll_interval)

    return _ResilientOutcome(
        payloads=completed,
        completion_order=tuple(completion_order),
        attempts=attempts,
        events=tuple(log.events()),
        recovered_keys=tuple(recovered_keys),
        fallback_keys=tuple(fallback_keys),
        respawns=lease.respawns,
    )


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
    dispatch: str = "longest-first",
    cost_model=None,
    warm_pool: bool = True,
    operator_cache: bool = True,
    retry=None,
    deadline=None,
    escalation=None,
    faults: Union[str, object, None] = None,
    fault_seed: int = 0,
    fault_log=None,
    trace=None,
    data_plane: str = "pickle",
    engine: str = "pool",
    hosts: Optional[str] = None,
    engine_options: Optional[dict] = None,
    split: Union[str, int] = "off",
) -> MultiprocessingResult:
    """Run the whole application with a process pool over the grids.

    The defaults are the warm path; ``warm_pool=False`` forks a
    throwaway pool (the seed behaviour) and ``operator_cache=False``
    disables worker-side operator/factor reuse, for cold measurements.

    Passing any of ``retry`` (:class:`~repro.resilience.RetryPolicy`),
    ``deadline`` (:class:`~repro.resilience.DeadlinePolicy`),
    ``escalation`` (:class:`~repro.resilience.EscalationPolicy`) or
    ``faults`` (a :class:`~repro.resilience.FaultPlan` or its spec
    string, seeded by ``fault_seed``) enables the fault-tolerant
    dispatch loop; ``fault_log`` optionally shares one
    :class:`~repro.resilience.FaultLog` with other detectors (e.g. the
    protocol supervisor) so a run has a single failure history.

    ``trace`` (a :class:`~repro.trace.TraceRecorder`) records the run's
    structured event timeline: job lifecycle, faults and recovery
    actions, and — because the recorder is installed globally for the
    duration — the pool's worker spawns/deaths too.

    ``data_plane="shm"`` switches the result transport to the zero-copy
    shared-memory arena of :mod:`repro.perf.dataplane` and the fan-in to
    streaming: each payload is resampled and folded into the
    preallocated target the moment it lands, overlapping combination
    with the remaining subsolves.  ``"pickle"`` (the default) is the
    barriered seed channel; both are bitwise identical in their output.

    ``engine`` picks the execution substrate: ``"pool"`` (default) is
    the fork pool of the warm path; ``"task"`` fans worker threads out
    over one :class:`~repro.restructured.taskengine.TaskInstanceEngine`
    (per-worker OS task instances with perpetual reuse); ``"socket"``
    dispatches over real TCP to worker daemons per ``hosts`` (see
    :func:`repro.restructured.netengine.parse_hosts`; default: one
    local daemon per process).  The socket engine always runs the
    resilient ladder — a network has failure modes whether or not
    faults are injected; ``engine_options`` passes constructor knobs
    (heartbeat timeout, reconnect budget) through to
    :class:`~repro.restructured.netengine.SocketTaskEngine`.

    ``split`` shards the critical-path grids into ``k``-strip Schur
    subsolves (:mod:`repro.sparsegrid.decompose`): ``"off"`` (default)
    leaves every job whole — bitwise identical to previous behaviour —
    while an integer ``k`` or ``"auto"`` (cost-model-planned) replaces
    the head-of-line specs per :func:`resolve_split_map`.  Sharded jobs
    run on every engine: the strips execute serially inside whichever
    worker owns the job, so the job-level fault ladder re-dispatches a
    lost strip-job unchanged and the ``StaleLeaseError`` discipline is
    untouched.  Split solutions match the unsplit oracle within
    :func:`~repro.sparsegrid.decompose.split_tolerance`.
    """
    if dispatch not in DISPATCH_POLICIES:
        raise ValueError(
            f"unknown dispatch policy {dispatch!r}; choose from {DISPATCH_POLICIES}"
        )
    if data_plane not in DATA_PLANES:
        raise ValueError(
            f"unknown data plane {data_plane!r}; choose from {DATA_PLANES}"
        )
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    if hosts is not None and engine != "socket":
        raise ValueError("hosts requires engine='socket'")
    if engine_options is not None and engine != "socket":
        raise ValueError("engine_options requires engine='socket'")
    resilient = any(
        option is not None for option in (retry, deadline, escalation, faults)
    )
    if engine == "task" and (resilient or data_plane == "shm"):
        raise ValueError(
            "engine='task' supports neither fault injection nor the shm "
            "data plane; use engine='pool' or engine='socket'"
        )
    # the socket engine is always resilient: connection loss and daemon
    # silence need the escalation ladder even on a fault-free run
    resilient = resilient or engine == "socket"
    plan = None
    if faults is not None:
        from repro.resilience import FaultPlan

        plan = (
            FaultPlan.parse(faults, seed=fault_seed)
            if isinstance(faults, str)
            else faults
        )
    if resilient and escalation is None:
        from repro.resilience import (
            DeadlinePolicy,
            EscalationPolicy,
            RetryPolicy,
        )

        escalation = EscalationPolicy(
            retry=retry if retry is not None else RetryPolicy(),
            deadline=deadline if deadline is not None else DeadlinePolicy(),
        )

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
    job = execute_job if operator_cache else execute_job_uncached
    if dispatch == "longest-first":
        ordered = order_longest_first(specs, cost_model)
    else:
        ordered = specs
    split_map = resolve_split_map(
        split,
        specs,
        level=level,
        tol=tol,
        n_workers=n_proc,
        cost_model=cost_model,
    )
    if split_map:
        ordered = [
            replace(s, split_k=split_map[(s.l, s.m)])
            if (s.l, s.m) in split_map
            else s
            for s in ordered
        ]

    attempts = len(specs)
    events: tuple = ()
    recovered_keys: tuple = ()
    fallback_keys: tuple = ()
    respawns = 0
    daemons = reconnects = 0
    net_bytes_sent = net_bytes_received = 0
    net_send_seconds = net_recv_seconds = 0.0
    completion_order: tuple[tuple[int, int], ...]

    plane = None
    sink: Optional[_PayloadSink] = None
    if data_plane == "shm":
        # lazy: repro.perf pulls this module in at package import
        from repro.perf.dataplane import DataPlane
        from repro.sparsegrid.combination import combine_incremental

        plane = DataPlane()
        sink = _PayloadSink(
            plane,
            combine_incremental(root, level, target_cap=target_cap),
            n_expected=len(specs),
            # map_static barriers on the full batch, so its combine
            # work cannot overlap the fan-out even on the shm plane
            streaming=resilient or dispatch != "static",
            trace=trace,
        )

    t_pool = time.perf_counter()
    # contexts unwind inner-first: the plane guard closes (and trace-
    # emits any late reap) while the recorder is still installed, on
    # every exit path — success, fault escalation, KeyboardInterrupt
    with recording(trace), _plane_guard(plane) as plane_audit:
        with trace_span("fanout"):
            if engine == "socket":
                # lazy: keeps the socket machinery out of pool-only runs
                from .netengine import SocketTaskEngine

                hosts = hosts or f"localhost:{n_proc}"
                net = SocketTaskEngine(
                    hosts, trace=trace, **(engine_options or {})
                )
                try:
                    outcome = net.run(
                        ordered,
                        escalation=escalation,
                        plan=plan,
                        use_cache=operator_cache,
                        cost_model=cost_model,
                        fault_log=fault_log,
                        sink=sink,
                        trace=trace,
                    )
                finally:
                    net.close()
                was_warm = False
                cold_start = net.spawn_seconds
                n_proc = net.total_capacity
                payloads = outcome.payloads
                completion_order = outcome.completion_order
                attempts = outcome.attempts
                events = outcome.events
                recovered_keys = outcome.recovered_keys
                fallback_keys = outcome.fallback_keys
                daemons = outcome.daemons
                reconnects = outcome.reconnects
                net_bytes_sent = outcome.bytes_sent
                net_bytes_received = outcome.bytes_received
                net_send_seconds = outcome.net_send_seconds
                net_recv_seconds = outcome.net_recv_seconds
            elif engine == "task":
                # thread fan-out over per-worker OS task instances: the
                # MLINK {load 1} {perpetual} semantics, in-machine
                from concurrent.futures import ThreadPoolExecutor

                from .taskengine import TaskInstanceEngine

                was_warm = False
                t_fork = time.perf_counter()
                tengine = TaskInstanceEngine(max_instances=n_proc)
                cold_start = time.perf_counter() - t_fork
                if trace is not None:
                    for s in ordered:
                        trace.record("job_submit", key=(s.l, s.m), attempt=1)
                try:
                    with ThreadPoolExecutor(max_workers=n_proc) as executor:
                        payload_list = list(
                            executor.map(
                                lambda s: tengine.compute(
                                    s, use_cache=operator_cache
                                ),
                                ordered,
                            )
                        )
                finally:
                    tengine.close()
                for p in payload_list:
                    _trace_payload(trace, p)
                payloads = {(p.l, p.m): p for p in payload_list}
                completion_order = tuple((p.l, p.m) for p in payload_list)
            elif resilient:
                lease = _PoolLease(n_proc, shared=warm_pool)
                try:
                    outcome = _run_resilient(
                        lease,
                        ordered,
                        use_cache=operator_cache,
                        plan=plan,
                        escalation=escalation,
                        cost_model=cost_model,
                        fault_log=fault_log,
                        trace=trace,
                        sink=sink,
                    )
                finally:
                    lease.release()
                was_warm = lease.was_warm
                cold_start = lease.cold_start_seconds
                n_proc = lease.pool.processes
                payloads = outcome.payloads
                completion_order = outcome.completion_order
                attempts = outcome.attempts
                events = outcome.events
                recovered_keys = outcome.recovered_keys
                fallback_keys = outcome.fallback_keys
                respawns = outcome.respawns
            elif warm_pool:
                pool, was_warm = acquire_pool(n_proc)
                cold_start = 0.0 if was_warm else pool.cold_start_seconds
                if trace is not None:
                    for s in ordered:
                        trace.record("job_submit", key=(s.l, s.m), attempt=1)
                if sink is not None:
                    items = [
                        (s, sink.lease_for(s), operator_cache)
                        for s in ordered
                    ]
                    if dispatch == "static":
                        arrivals = pool.map_static(shm_entry, items)
                    else:
                        arrivals = pool.imap_unordered(shm_entry, items)
                    payload_list = []
                    for p in arrivals:
                        sink.consume((p.l, p.m), p)
                        payload_list.append(p)
                elif dispatch == "static":
                    payload_list = pool.map_static(job, ordered)
                else:
                    payload_list = list(pool.imap_unordered(job, ordered))
                n_proc = pool.processes
                for p in payload_list:
                    _trace_payload(trace, p)
                payloads = {(p.l, p.m): p for p in payload_list}
                completion_order = tuple((p.l, p.m) for p in payload_list)
            else:
                was_warm = False
                t_fork = time.perf_counter()
                fresh = multiprocessing.get_context("fork").Pool(n_proc)
                cold_start = time.perf_counter() - t_fork
                if trace is not None:
                    for s in ordered:
                        trace.record("job_submit", key=(s.l, s.m), attempt=1)
                try:
                    if sink is not None:
                        items = [
                            (s, sink.lease_for(s), operator_cache)
                            for s in ordered
                        ]
                        if dispatch == "static":
                            arrivals = fresh.map(shm_entry, items)
                        else:
                            arrivals = fresh.imap_unordered(shm_entry, items, 1)
                        payload_list = []
                        for p in arrivals:
                            sink.consume((p.l, p.m), p)
                            payload_list.append(p)
                    elif dispatch == "static":
                        payload_list = fresh.map(job, ordered)
                    else:
                        payload_list = list(fresh.imap_unordered(job, ordered, 1))
                finally:
                    fresh.close()
                    fresh.join()
                for p in payload_list:
                    _trace_payload(trace, p)
                payloads = {(p.l, p.m): p for p in payload_list}
                completion_order = tuple((p.l, p.m) for p in payload_list)
        pool_seconds = time.perf_counter() - t_pool

        t_combine = time.perf_counter()
        if sink is not None:
            # streaming already folded every grid; this is the (cheap)
            # completeness check + hand-over of the preallocated buffer
            with trace_span("prolongation"):
                target_grid, combined = sink.combiner.result()
            combine_seconds = sink.combine_seconds
        else:
            solutions = {key: p.solution for key, p in payloads.items()}
            with trace_span("prolongation"):
                target_grid, combined = combine(
                    solutions, root, level, target_cap=target_cap
                )
            combine_seconds = time.perf_counter() - t_combine

    data_plane_audit = plane_audit.get("audit")
    if sink is not None:
        transport_pickle_bytes = sink.transport_pickle_bytes
    else:
        transport_pickle_bytes = sum(
            int(p.solution.nbytes) for p in payloads.values()
        )
    return MultiprocessingResult(
        root=root,
        level=level,
        tol=tol,
        processes=n_proc,
        payloads=payloads,
        target_grid=target_grid,
        combined=combined,
        total_seconds=time.perf_counter() - t_start,
        pool_seconds=pool_seconds,
        dispatch=dispatch,
        warm_pool=was_warm,
        pool_cold_start_seconds=cold_start,
        dispatch_order=tuple((s.l, s.m) for s in ordered),
        completion_order=completion_order,
        attempts=attempts,
        faults=len(events),
        recovered=len(recovered_keys),
        fallbacks=len(fallback_keys),
        pool_respawns=respawns,
        fault_events=events,
        recovered_keys=recovered_keys,
        fallback_keys=fallback_keys,
        data_plane=data_plane,
        streaming=sink.streaming if sink is not None else False,
        shm_payloads=sink.shm_payloads if sink is not None else 0,
        shm_fallbacks=sink.shm_fallbacks if sink is not None else 0,
        transport_shm_bytes=sink.transport_shm_bytes if sink is not None else 0,
        transport_pickle_bytes=transport_pickle_bytes,
        shm_write_seconds=sum(
            p.shm_write_seconds for p in payloads.values()
        ),
        attach_seconds=sink.attach_seconds if sink is not None else 0.0,
        combine_seconds=combine_seconds,
        combine_overlap_seconds=(
            sink.overlap_seconds if sink is not None else 0.0
        ),
        data_plane_audit=data_plane_audit,
        engine=engine,
        hosts=hosts or "",
        daemons=daemons,
        reconnects=reconnects,
        net_bytes_sent=net_bytes_sent,
        net_bytes_received=net_bytes_received,
        net_send_seconds=net_send_seconds,
        net_recv_seconds=net_recv_seconds,
        split=split if isinstance(split, str) else f"k={split}",
        split_grids=tuple(sorted(split_map.items())),
    )
