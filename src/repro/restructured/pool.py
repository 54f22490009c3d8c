"""The persistent worker pool — one long-lived fork pool per process.

The seed's real-parallel path paid a coordination tax the paper warns
about: every :func:`~repro.restructured.parallel.run_multiprocessing`
call forked a fresh ``multiprocessing.Pool`` and tore it down again,
so the five-run averaging protocol re-paid pool start-up five times and
warm per-process state (the operator cache of
:mod:`repro.sparsegrid.cache`) was thrown away with the workers.

This module keeps **one** fork pool alive for the whole process:

* levels, runs and engines share it — a second ``run_multiprocessing``
  call (or a second :class:`~repro.restructured.worker.ProcessPoolEngine`)
  finds warm workers whose operator/factor caches survived the previous
  job batch;
* acquiring with a larger ``processes`` requirement drains the old pool
  gracefully and grows a new one (never ``terminate()`` on the graceful
  path — in-flight jobs finish);
* shutdown is ``close()``/``join()``, and an ``atexit`` hook winds the
  pool down at interpreter exit.

Beyond the warm path, the pool is the *observable substrate* of the
fault-tolerant execution layer (:mod:`repro.resilience`):

* every dispatch and the shutdown path are serialized on a lock, so a
  job submitted while another thread (or the ``atexit`` hook) shuts the
  pool down raises a clean :class:`PoolClosedError` instead of racing
  ``multiprocessing`` internals or hanging;
* a **heartbeat queue** is created *before* the fork, so pool children
  inherit it and the resilient job wrapper can report which worker PID
  holds which job;
* :meth:`PersistentWorkerPool.reap_dead_workers` checks OS process
  liveness, letting the master attribute a vanished PID to its lost job
  immediately instead of waiting out the job's deadline;
* :meth:`PersistentWorkerPool.shutdown` grows a ``force`` mode
  (``terminate()``) for pools wedged by hung workers, and
  :func:`respawn_pool` replaces the shared pool with a fresh one
  without touching results the master already holds.

Cold-start cost is recorded so the warm-path observability layer can
report cold-vs-warm pool timings.

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
import itertools
import multiprocessing
import threading
import time
from dataclasses import dataclass
from multiprocessing import resource_tracker
from typing import Any, Callable, Optional

from repro.trace.recorder import emit as trace_emit

__all__ = [
    "PoolClosedError",
    "PersistentWorkerPool",
    "ParkedFleet",
    "acquire_pool",
    "take_fleet",
    "park_fleet",
    "shutdown_pool",
    "respawn_pool",
    "pool_diagnostics",
    "child_heartbeat_queue",
]


class PoolClosedError(RuntimeError):
    """Raised on dispatch to a pool that has been (or is being) shut down.

    A ``RuntimeError`` subclass so callers that guarded against the old
    generic error keep working; new code should catch this type.
    """


# the queue pool *children* inherit at fork; set immediately before the
# fork so each pool generation gets its own channel (see resilient_entry
# in repro.resilience.inject)
_child_heartbeats = None


def child_heartbeat_queue():
    """The heartbeat queue of the pool this process was forked into.

    In the master process this is the queue of the most recently created
    pool; in a pool child it is the queue inherited at fork time.
    Returns ``None`` when no pool has ever been created.
    """
    return _child_heartbeats


#: monotonically increasing id across every pool this process forks;
#: respawned generations get fresh ids (the ``worker_spawn`` trace event
#: and :func:`pool_diagnostics` report them)
_pool_generations = itertools.count(1)


class PersistentWorkerPool:
    """A fork pool that outlives individual job batches."""

    def __init__(self, processes: int) -> None:
        global _child_heartbeats
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        started = time.perf_counter()
        self.processes = processes
        self.generation = next(_pool_generations)
        self._lock = threading.RLock()
        # start the resource tracker before forking so children inherit
        # it: shared-memory attaches in workers then re-register into
        # the master's tracker (a set no-op) instead of spawning per-
        # child trackers that would report phantom leaks at exit
        resource_tracker.ensure_running()
        context = multiprocessing.get_context("fork")
        # created before the fork so pool children inherit it; workers
        # report ("phase", (l, m), attempt, pid) tuples here
        self._heartbeats = context.SimpleQueue()
        _child_heartbeats = self._heartbeats
        self._pool = context.Pool(processes)
        self._known_pids: set[int] = {
            proc.pid for proc in self._pool._pool  # type: ignore[attr-defined]
        }
        self.cold_start_seconds = time.perf_counter() - started
        for pid in sorted(self._known_pids):
            trace_emit(
                "worker_spawn",
                worker=pid,
                processes=processes,
                generation=self.generation,
            )
        self.jobs_dispatched = 0
        self.closed = False

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def apply(self, fn: Callable, args: tuple) -> Any:
        """One synchronous job (the engine path)."""
        with self._lock:
            self._require_open()
            self.jobs_dispatched += 1
            handle = self._pool.apply_async(fn, args)
        return handle.get()

    def submit(
        self,
        fn: Callable,
        item: Any,
        *,
        callback: Optional[Callable] = None,
        error_callback: Optional[Callable] = None,
    ):
        """One asynchronous job; returns the ``AsyncResult`` handle.

        The pool driver of the dispatch core submits every job this way
        so it can enforce per-job deadlines and re-dispatch individual
        lost jobs.  The callbacks run on the pool's result-handler thread
        the moment the job's result (or exception) arrives: they must
        only hand it over to the dispatch thread, never block or raise.
        """
        with self._lock:
            self._require_open()
            self.jobs_dispatched += 1
            return self._pool.apply_async(
                fn, (item,), callback=callback, error_callback=error_callback
            )

    # ------------------------------------------------------------------
    # observability: heartbeats and process liveness
    # ------------------------------------------------------------------
    def drain_heartbeats(self) -> list[tuple]:
        """All heartbeat tuples workers have sent since the last drain."""
        beats: list[tuple] = []
        while not self._heartbeats.empty():
            beats.append(self._heartbeats.get())
        return beats

    def worker_pids(self) -> set[int]:
        """PIDs of the pool's current worker processes."""
        with self._lock:
            if self.closed:
                return set()
            return {
                proc.pid
                for proc in list(self._pool._pool)  # type: ignore[attr-defined]
            }

    def reap_dead_workers(self) -> set[int]:
        """PIDs that died since the last check.

        ``multiprocessing.Pool`` quietly repopulates a crashed worker,
        but the job it was running is lost forever — its ``AsyncResult``
        never completes.  Comparing the previously seen PID set against
        the currently *alive* one surfaces exactly those deaths, so the
        master can re-dispatch the lost job immediately.
        """
        with self._lock:
            if self.closed:
                return set()
            alive = {
                proc.pid
                for proc in list(self._pool._pool)  # type: ignore[attr-defined]
                if proc.is_alive()
            }
            dead = self._known_pids - alive
            self._known_pids = alive | (self._known_pids - dead)
            # repopulated replacements join the watch set
            current = {
                proc.pid
                for proc in list(self._pool._pool)  # type: ignore[attr-defined]
            }
            fresh = current - self._known_pids
            self._known_pids |= current
            for pid in sorted(dead):
                trace_emit("death_worker", worker=pid, detected_by="liveness")
            for pid in sorted(fresh):
                trace_emit("worker_spawn", worker=pid, repopulated=True)
            return dead

    def discard(self, handle) -> None:
        """Forget a lost job's ``AsyncResult``.

        A crashed worker's job never completes, and ``Pool`` keeps its
        result entry in the internal cache forever — which makes the
        graceful ``close()``/``join()`` path wait forever too (the
        worker handler refuses to exit while the cache is non-empty).
        Dropping the entry lets a pool that survived crashes still shut
        down gracefully once every *re-dispatched* job has finished.
        """
        with self._lock:
            if not self.closed:
                self._pool._cache.pop(  # type: ignore[attr-defined]
                    handle._job, None
                )

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def shutdown(self, *, force: bool = False) -> None:
        """Wind the pool down; idempotent.

        Graceful (default): drain in-flight jobs and join the workers.
        ``force=True``: ``terminate()`` — the only way out when a hung
        worker would block ``close()``/``join()`` forever; used by the
        respawn path after a deadline fault.
        """
        with self._lock:
            if self.closed:
                return
            self.closed = True
            if force:
                self._pool.terminate()
            else:
                self._pool.close()
        # join outside the lock: submitters must fail fast with
        # PoolClosedError instead of queueing behind a long drain
        self._pool.join()

    def _require_open(self) -> None:
        if self.closed:
            raise PoolClosedError("pool has been shut down")


# ----------------------------------------------------------------------
# the shared process-wide pool
# ----------------------------------------------------------------------
_shared: Optional[PersistentWorkerPool] = None
_shared_lock = threading.Lock()
#: how many times a shared pool had to be (re)created — cold starts
_cold_starts = 0
#: how many acquisitions found a warm pool
_warm_acquisitions = 0
#: how many times a wedged shared pool was force-replaced
_respawns = 0


@dataclass
class ParkedFleet:
    """A socket fleet between two runs, as the slot holds it."""

    #: ``(hosts, engine options)`` it was built for
    key: tuple
    #: the parked ``SocketTaskEngine``; only ever ``close()``d here
    engine: Any
    #: the releasing lease's clock reading, taken before it disconnected
    released_at: float
    runs_served: int


_fleet: Optional[ParkedFleet] = None


def acquire_pool(processes: Optional[int] = None) -> tuple[PersistentWorkerPool, bool]:
    """Return ``(pool, was_warm)`` — the shared pool, creating or
    growing it only when needed.

    ``processes=None`` accepts any live pool (defaulting to the CPU
    count on a cold start); an explicit requirement larger than the
    current pool drains it and grows a replacement.  Serialized against
    concurrent ``acquire_pool``/``shutdown_pool`` callers.
    """
    global _shared, _cold_starts, _warm_acquisitions
    needed = processes or multiprocessing.cpu_count()
    with _shared_lock:
        if (
            _shared is not None
            and not _shared.closed
            and (processes is None or _shared.processes >= needed)
        ):
            _warm_acquisitions += 1
            return _shared, True
        if _shared is not None:
            _shared.shutdown()
        _shared = PersistentWorkerPool(needed)
        _cold_starts += 1
        return _shared, False


def take_fleet(key: tuple) -> Optional[ParkedFleet]:
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


def respawn_pool(processes: Optional[int] = None) -> PersistentWorkerPool:
    """Force-replace the shared pool with a fresh one.

    The recovery path for a wedged pool: hung workers never drain, so
    the old pool is ``terminate()``d and a new generation forked.
    Results the master already collected are untouched — only jobs that
    were in flight need re-dispatching, which the caller does from its
    own bookkeeping.
    """
    global _shared, _respawns
    with _shared_lock:
        old, _shared = _shared, None
    if old is not None:
        old.shutdown(force=True)
    with _shared_lock:
        needed = processes or (old.processes if old is not None else None)
        _shared = PersistentWorkerPool(needed or multiprocessing.cpu_count())
        _respawns += 1
        return _shared


def pool_diagnostics() -> dict[str, float]:
    """Counters for the warm-path report."""
    fleet = _fleet
    return {
        "fleet_hosts": fleet.key[0] if fleet is not None else "",
        "fleet_daemons": len(fleet.engine.links) if fleet is not None else 0,
        "fleet_runs_served": fleet.runs_served if fleet is not None else 0,
        "fleet_idle_s": (
            time.monotonic() - fleet.released_at if fleet is not None else 0.0
        ),
        "alive": _shared is not None and not _shared.closed,
        "processes": _shared.processes if _shared is not None else 0,
        "generation": _shared.generation if _shared is not None else 0,
        "cold_starts": _cold_starts,
        "warm_acquisitions": _warm_acquisitions,
        "respawns": _respawns,
        "jobs_dispatched": _shared.jobs_dispatched if _shared is not None else 0,
        "cold_start_seconds": (
            _shared.cold_start_seconds if _shared is not None else 0.0
        ),
    }


atexit.register(shutdown_pool)
