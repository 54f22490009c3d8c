"""The persistent worker pool — ``processes`` task instances that
outlive a run.

The seed's real-parallel path paid a coordination tax the paper warns
about: every :func:`~repro.restructured.parallel.run_multiprocessing`
call forked fresh workers and tore them down again, so the five-run
averaging protocol re-paid start-up five times and warm per-process
state (the operator cache of :mod:`repro.sparsegrid.cache`) was thrown
away with the workers.

This module keeps **one** pool alive for the whole process, and the pool
is nothing but the paper's MLINK ``{task * {perpetual} {load 1}}`` on
this machine: ``processes`` eagerly forked task instances
(:class:`~repro.restructured.taskengine._TaskInstance` — one OS process,
one duplex pipe, one job at a time) and a list of the idle ones.  A
pool is the only owner of task instances: ``run_multiprocessing``'s
driver, :class:`TaskInstanceEngine` and a socket daemon (a private pool
of one) all take, give back and replace workers under its rules.

* levels and runs share it — a second ``run_multiprocessing`` call
  finds warm workers whose operator/factor caches survived the previous
  job batch;
* acquiring with a larger ``processes`` requirement stops the old pool
  gracefully and grows a new one;
* the master always knows who holds what, because it placed it: a
  worker is taken (:meth:`PersistentWorkerPool.take`), sent one job on
  its own pipe, and given back (:meth:`~PersistentWorkerPool.give`) or —
  dead or wedged — replaced, that one process only
  (:meth:`~PersistentWorkerPool.replace`).  A death is the EOF of the
  dead worker's pipe; there is no queue between master and workers, no
  helper thread, and nothing to poll: a taker that must have a worker
  (:meth:`~PersistentWorkerPool.take_waiting`) sleeps until a ``give``
  or ``replace`` wakes it;
* a replacement is warm when it can be: a warm worker keeps a
  **standby**, a fork of itself with its caches
  (:meth:`PersistentWorkerPool.keep_standbys`), and its successor is that
  standby promoted; only a worker with none is succeeded by a cold fork;
* taking from a pool that has been (or is being) shut down raises a
  clean :class:`PoolClosedError`, and an ``atexit`` hook winds the pool
  down at interpreter exit.

Cold-start cost is recorded so a run's report
(:meth:`~repro.restructured.parallel.RunResult.report_lines`) can say
whether its pool was warm or cold and what the fork cost.

The socket engine's daemons are leased the same way: beside the shared
pool sits one slot for a **parked fleet** — a
:class:`~repro.restructured.netengine.SocketTaskEngine` between two
runs, its daemons alive and their caches warm.  The slot shares the
pool's lock and its ``atexit`` hook, and :func:`shutdown_pool` empties
both; what may go into it and when it may come out again is decided by
``parallel._FleetLease``.  This module only ever calls ``close()`` on
what it holds, so a pool-only process never imports the socket engine.
"""

from __future__ import annotations

import atexit
import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Any, Optional

from repro.trace.recorder import emit as trace_emit

from .taskengine import PARKED_EXIT, _TaskInstance
from .worker import ComputeEngine, SubsolveJobSpec, SubsolvePayload

__all__ = [
    "PoolClosedError",
    "PersistentWorkerPool",
    "TaskInstanceEngine",
    "ParkedFleet",
    "acquire_pool",
    "take_fleet",
    "park_fleet",
    "shutdown_pool",
    "pool_diagnostics",
]


class PoolClosedError(RuntimeError):
    """Raised on dispatch to a pool that has been (or is being) shut down.

    A ``RuntimeError`` subclass so callers that guarded against the old
    generic error keep working; new code should catch this type.
    """


class PersistentWorkerPool:
    """Task instances that outlive individual job batches."""

    def __init__(self, processes: int) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        started = time.perf_counter()
        self.processes = processes
        #: notified when a worker is given back or replaced, and when
        #: the pool shuts down
        self._ready = threading.Condition()
        self._context = multiprocessing.get_context("fork")
        self.jobs_dispatched = 0
        #: the dispatch core's learned job rate, kept for the next run
        self.seconds_per_unknown: Optional[float] = None
        self.closed = False
        #: every live worker, and the ones no run holds
        self._workers: list[_TaskInstance] = []
        self._idle = [self._fork() for _ in range(processes)]
        self.cold_start_seconds = time.perf_counter() - started

    def _fork(self, **how) -> _TaskInstance:
        worker = _TaskInstance(self._context)
        self._workers.append(worker)
        trace_emit(
            "worker_spawn",
            worker=worker.process.pid,
            processes=self.processes,
            **how,
        )
        return worker

    def _bury(self, worker: _TaskInstance) -> None:
        worker.kill()
        self._workers.remove(worker)
        trace_emit("death_worker", worker=worker.process.pid)

    def _succeed(self, worker: _TaskInstance) -> tuple[_TaskInstance, bool]:
        """Bury ``worker`` — dead, or wedged and killed here — and
        return its successor: its standby promoted (``True``), or, with
        none alive, a cold fork of this process (``False``)."""
        global _promotions
        standby, worker.standby = worker.standby, None
        self._bury(worker)
        if standby is None:
            return self._fork(repopulated=True), False
        if not standby.process.is_alive():
            standby.kill()  # gone too: close what the master holds of it
            return self._fork(repopulated=True), False
        _promotions += 1
        self._workers.append(standby)
        trace_emit(
            "worker_spawn",
            worker=standby.process.pid,
            processes=self.processes,
            promoted=True,
        )
        return standby, True

    # ------------------------------------------------------------------
    # dispatch: take a worker, send it one job, give it back
    # ------------------------------------------------------------------
    def take(self) -> Optional[_TaskInstance]:
        """An idle worker — the caller's until it gives it back — or
        ``None`` when every one is busy."""
        with self._ready:
            if self.closed:
                raise PoolClosedError("pool has been shut down")
            if not self._idle:
                return None
            worker = self._idle.pop()
            parked_at, worker.parked_at = worker.parked_at, None
            if not worker.process.is_alive() or (
                parked_at is not None
                and time.monotonic() - parked_at > PARKED_EXIT / 2
            ):
                # died with nothing on it (an OOM kill between two
                # runs), or parked long enough to be leaving: never
                # handed out
                worker, _ = self._succeed(worker)
            self.jobs_dispatched += 1
            return worker

    def take_waiting(self) -> _TaskInstance:
        """An idle worker, waiting while every one is busy; a shutdown
        raises :class:`PoolClosedError` in every waiter."""
        with self._ready:  # re-entrant: take() acquires it again
            while (worker := self.take()) is None:
                self._ready.wait()
            return worker

    def give(self, worker: _TaskInstance) -> None:
        """``worker`` has answered and is idle again; a pool shut down
        in the meantime stops it instead."""
        with self._ready:
            if not self.closed:
                self._idle.append(worker)
                self._ready.notify()
                return
        worker.stop()

    def replace(self, worker: _TaskInstance, *, wedged: bool = False) -> bool:
        """Kill that one process and put its successor, idle, in its
        place: its standby if it has one alive, else a cold fork.
        Returns whether the successor was a promoted standby.

        ``wedged`` says the process was alive and not answering — a
        hang, as opposed to a death already observed — which is what
        :func:`pool_diagnostics` counts as a respawn.
        """
        global _respawns
        with self._ready:
            if wedged:
                _respawns += 1
            if self.closed:
                self._bury(worker)
                return False
            successor, promoted = self._succeed(worker)
            self._idle.append(successor)
            self._ready.notify()
            return promoted

    def keep_standbys(self, payloads) -> None:
        """After a run that used the caches, have each idle worker whose
        caches did not grow in it — no operator assembled, no LU
        factorized — copy itself if its standby is missing or older
        than its caches.  A worker whose caches grew is left alone: the
        copy waits for a run that adds nothing, so a pool is not copied
        after every warming run (each copy costs the next run the
        copy-on-write faults of the pages it writes)."""
        grew = {
            p.worker_pid
            for p in payloads
            if not p.operator_cache_hit or p.factorizations
        }
        with self._ready:
            for worker in self._idle:
                if worker.process.pid in grew:
                    worker.cache_generation += 1
                elif worker.cache_generation and (
                    worker.standby is None
                    or worker.standby.cache_generation < worker.cache_generation
                ):
                    worker.copy()

    def park(self) -> None:
        """End of a lease no run may follow: each idle worker leaves by
        itself, its standby with it, unless it is taken within
        ``PARKED_EXIT`` seconds — as a parked fleet's daemons do."""
        with self._ready:
            for worker in self._idle:
                worker.park()

    def worker_pids(self) -> set[int]:
        """PIDs of the pool's current worker processes."""
        with self._ready:
            if self.closed:
                return set()
            return {worker.process.pid for worker in self._workers}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, *, force: bool = False) -> None:
        """Wind the pool down; idempotent.

        Graceful (default): stop the idle workers now and each busy one
        when it is given back, so a job in flight still finishes.
        ``force=True``: kill every worker, busy or not — the only way
        out when a hung worker would never be given back.
        """
        with self._ready:
            if self.closed:
                return
            self.closed = True
            idle, self._idle = self._idle, []
            leaving = list(self._workers) if force else idle
            self._ready.notify_all()
        # outside the lock: takers must fail fast with PoolClosedError
        # instead of queueing behind a long drain; stop() and kill() end
        # a worker's standby too
        for worker in leaving:
            if force:
                worker.kill()
            else:
                worker.stop()


# ----------------------------------------------------------------------
# the shared process-wide pool
# ----------------------------------------------------------------------
_shared: Optional[PersistentWorkerPool] = None
_shared_lock = threading.Lock()
#: how many times a shared pool had to be (re)created — cold starts
_cold_starts = 0
#: how many acquisitions found a warm pool
_warm_acquisitions = 0
#: how many wedged workers were killed and replaced
_respawns = 0
#: how many lost workers were succeeded by their standby
_promotions = 0


@dataclass
class ParkedFleet:
    """A socket fleet between two runs, as the slot holds it."""

    #: the resolved ``hosts`` string it was built for
    key: str
    #: the parked ``SocketTaskEngine``; only ever ``close()``d here
    engine: Any
    #: the releasing lease's clock reading, taken before it disconnected
    released_at: float
    runs_served: int


_fleet: Optional[ParkedFleet] = None


def acquire_pool(processes: int) -> tuple[PersistentWorkerPool, bool]:
    """Return ``(pool, was_warm)`` — the shared pool, creating or
    growing it only when needed.

    A requirement larger than the current pool drains it and grows a
    replacement.  Serialized against concurrent
    ``acquire_pool``/``shutdown_pool`` callers.
    """
    global _shared, _cold_starts, _warm_acquisitions
    with _shared_lock:
        if (
            _shared is not None
            and not _shared.closed
            and _shared.processes >= processes
        ):
            _warm_acquisitions += 1
            return _shared, True
        if _shared is not None:
            _shared.shutdown()
        _shared = PersistentWorkerPool(processes)
        _cold_starts += 1
        return _shared, False


class TaskInstanceEngine(ComputeEngine):
    """``run_concurrent``'s compute engine: a lease on the shared pool,
    so each worker's job runs in a task instance that outlives it, warm.
    A job's own error gives its worker back; a worker lost under a job
    (:class:`~repro.restructured.taskengine.TaskInstanceDied`, or an
    interrupt while its reply is pending) is replaced, as the pool
    driver's ``retire`` does.

    Each job leases the shared pool anew, so a pool grown or rebuilt
    since the last job is followed.  The lease shares the pool with
    ``run_multiprocessing``, which does not wait: a pool run that finds
    every worker held by an engine raises its starved ``RuntimeError``,
    and a pool grown under a job waiting here fails that job with
    :class:`PoolClosedError`."""

    def __init__(self) -> None:
        #: the shared pool as last leased
        self.pool, _ = acquire_pool(multiprocessing.cpu_count())
        self._payloads: list[SubsolvePayload] = []
        self._closed = False

    def compute(
        self, spec: SubsolveJobSpec, *, use_cache: bool = True
    ) -> SubsolvePayload:
        if self._closed:
            raise RuntimeError("engine is closed")
        # a local: another worker's job may lease a rebuilt pool meanwhile
        self.pool = pool = acquire_pool(multiprocessing.cpu_count())[0]
        worker = pool.take_waiting()
        try:
            status, body = worker.run(spec, use_cache=use_cache)
        except BaseException:
            # dead, or interrupted with its reply pending
            pool.replace(worker)
            raise
        pool.give(worker)
        if status == "error":
            raise RuntimeError(f"task instance failed: {body}")
        self._payloads.append(body)
        return body

    def close(self) -> None:
        """End the lease, not the pool: as after a pool run, its idle
        workers copy their standbys, and then they are parked, so a
        lease that no run follows leaves no process behind."""
        if not self._closed:
            self._closed = True
            self.pool.keep_standbys(self._payloads)
            self.pool.park()


def take_fleet(key: str) -> Optional[ParkedFleet]:
    """Empty the fleet slot; returns what was parked there under
    ``key``.  A fleet parked under another key is closed: one fleet at
    a time, like one pool.  The caller owns what it gets — to park it
    again, or to close it."""
    global _fleet
    with _shared_lock:
        parked, _fleet = _fleet, None
    if parked is not None and parked.key != key:
        parked.engine.close()
        return None
    return parked


def park_fleet(parked: Optional[ParkedFleet]) -> None:
    """Put a fleet (or nothing) into the slot, closing what it
    displaces — a concurrent run's, or the one being shut down."""
    global _fleet
    with _shared_lock:
        displaced, _fleet = _fleet, parked
    if displaced is not None:
        displaced.engine.close()


def shutdown_pool() -> None:
    """Gracefully wind down the shared pool (drain, join, forget) and
    the parked socket fleet (stop, wait, forget)."""
    global _shared
    park_fleet(None)
    with _shared_lock:
        pool, _shared = _shared, None
    if pool is not None:
        pool.shutdown()


def pool_diagnostics() -> dict[str, float]:
    """The shared pool's and the parked fleet's counters, as
    ``repro run-concurrent --engine task-instances`` prints them and the
    e2e probes read ``respawns``."""
    fleet = _fleet
    return {
        "fleet_hosts": fleet.key if fleet is not None else "",
        "fleet_daemons": len(fleet.engine.links) if fleet is not None else 0,
        "fleet_runs_served": fleet.runs_served if fleet is not None else 0,
        "fleet_idle_s": (
            time.monotonic() - fleet.released_at if fleet is not None else 0.0
        ),
        "alive": _shared is not None and not _shared.closed,
        "processes": _shared.processes if _shared is not None else 0,
        "cold_starts": _cold_starts,
        "warm_acquisitions": _warm_acquisitions,
        "respawns": _respawns,
        "promotions": _promotions,
        "jobs_dispatched": _shared.jobs_dispatched if _shared is not None else 0,
        "cold_start_seconds": (
            _shared.cold_start_seconds if _shared is not None else 0.0
        ),
    }


atexit.register(shutdown_pool)
