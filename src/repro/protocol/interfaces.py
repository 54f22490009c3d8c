"""Behaviour interfaces of the master and the worker (§4.3).

The paper wraps the legacy C routines in master/worker "manifolds"
written as C wrappers over a special ANSI C interface library.  This
module is that library's Python equivalent:

* :class:`MasterProtocolClient` drives the master side of the protocol —
  the numbered steps 3(a)–3(h) and 4 — so an application master only
  supplies *what* to compute, never *how* to communicate;
* :func:`make_worker_definition` builds a compliant worker manifold
  (steps 1–4 of the worker interface) around a plain compute callable.

Neither helper knows anything about sparse grids; they are reused by the
examples and tests for entirely different computations, which is the
re-usability point of the paper.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from repro.manifold import (
    AtomicDefinition,
    AtomicProcess,
    Event,
    EventMemory,
    EventOccurrence,
    ProcessError,
    ProcessReference,
)

from .events import events_for

__all__ = [
    "WorkerJob",
    "WorkerResult",
    "FailedWorkerResult",
    "WorkerPoolError",
    "MasterProtocolClient",
    "make_worker_definition",
]


@dataclass(frozen=True)
class WorkerJob:
    """One unit of delegated work: an identifier plus opaque payload."""

    job_id: object
    payload: Any


@dataclass(frozen=True)
class WorkerResult:
    """A worker's answer: the job identifier, result payload, timing."""

    job_id: object
    payload: Any
    compute_seconds: float = 0.0
    worker_name: str = ""


@dataclass(frozen=True)
class FailedWorkerResult:
    """A supervision-injected stand-in for a crashed worker's result.

    Delivered to the master's dataport by the coordinator (the
    ``supervise=True`` protocol extension) so the master's result count
    still closes when a worker dies without producing output.
    """

    worker_name: str
    error: str


class WorkerPoolError(RuntimeError):
    """Raised by the master client when pool workers failed.

    The protocol itself completes cleanly first (the rendezvous counts
    the failures), so the application can decide whether to retry the
    failed jobs or abort.
    """

    def __init__(self, failures: list[FailedWorkerResult]) -> None:
        names = ", ".join(f.worker_name for f in failures)
        super().__init__(f"{len(failures)} worker(s) failed: {names}")
        self.failures = failures


class _ClientMemory(EventMemory):
    """The master client's event memory: it keeps ``a_rendezvous``, the
    one event the protocol sends a master, and lets every other
    broadcast of the application pass."""

    def __init__(self, owner_name: str, a_rendezvous: Event) -> None:
        super().__init__(owner_name)
        self._a_rendezvous = a_rendezvous

    def deliver(self, occurrence: EventOccurrence) -> None:
        if occurrence.event == self._a_rendezvous:
            super().deliver(occurrence)


class MasterProtocolClient:
    """Drives the master side of the master/worker protocol.

    The wrapped process must declare a ``dataport`` input port in
    addition to the standard ports (the paper's ``Master <input,
    dataport / output, error>``).

    Typical master body::

        def master_body(proc):
            client = MasterProtocolClient(proc)
            ...sequential initialization...
            results = client.run_pool([WorkerJob(i, data_i) for i in ...])
            ...more pools as needed...
            client.finished()
            ...final sequential prolongation...
    """

    def __init__(self, proc: AtomicProcess, timeout: Optional[float] = None) -> None:
        if "dataport" not in proc.ports:
            raise ProcessError(
                f"{proc.name} must declare a 'dataport' input port to act as master"
            )
        self.proc = proc
        self.timeout = timeout
        # Step 1: make the extern events available to the master — this
        # master's own set (see events.py), so concurrent or nested
        # protocols cannot steal each other's occurrences.  The master
        # observes coordinator events through its own memory.
        self.events = events_for(proc)
        self._memory = _ClientMemory(f"{proc.name}.client", self.events.a_rendezvous)
        proc.runtime.subscribe(self._memory)
        #: pools run so far (for traces and tests)
        self.pools_run = 0
        #: failure units of the most recent pool (supervision extension)
        self.last_failures: list[FailedWorkerResult] = []

    # ------------------------------------------------------------------
    # step 3: one workers-pool
    # ------------------------------------------------------------------
    def run_pool(
        self, jobs: Sequence[WorkerJob], *, raise_on_failure: bool = True
    ) -> list[WorkerResult]:
        """Create a pool with one worker per job; return all results.

        Results are returned in *arrival* order — workers finish in any
        order; callers match them to jobs via ``job_id``.

        Under a supervising protocol, crashed workers surface as
        :class:`FailedWorkerResult` units; the pool still completes its
        rendezvous, after which this method raises
        :class:`WorkerPoolError` (or, with ``raise_on_failure=False``,
        returns only the successful results and records the failures on
        :attr:`last_failures`).
        """
        jobs = list(jobs)
        self.last_failures = []
        if not jobs:
            return []
        # (a) request an empty pool of workers
        self.proc.raise_event(self.events.create_pool)
        for job in jobs:
            # (b) request one worker in the pool
            self.proc.raise_event(self.events.create_worker)
            # (c) read the worker's reference from your own input port
            ref = self.proc.read("input", timeout=self.timeout)
            if not isinstance(ref, ProcessReference):
                raise ProcessError(
                    f"master expected a process reference, got {type(ref).__name__}"
                )
            ref.process.activate()
            # (d) write the information the worker needs on your own
            #     output port (the coordinator has wired it already)
            self.proc.write(job, "output", timeout=self.timeout)
            # (e) repeat for each worker as needed
        # (f) collect the computational results from your own dataport
        results: list[WorkerResult] = []
        failures: list[FailedWorkerResult] = []
        for _ in jobs:
            unit = self._read_result()
            if isinstance(unit, FailedWorkerResult):
                failures.append(unit)
            else:
                results.append(unit)
        # (g) request the rendezvous
        self.proc.raise_event(self.events.rendezvous)
        # (h) wait for the acknowledgement
        self.wait_for(self.events.a_rendezvous)
        self.pools_run += 1
        self.last_failures = failures
        if failures and raise_on_failure:
            raise WorkerPoolError(failures)
        return results

    def _read_result(self) -> WorkerResult | FailedWorkerResult:
        payload = self.proc.read("dataport", timeout=self.timeout)
        if not isinstance(payload, (WorkerResult, FailedWorkerResult)):
            raise ProcessError(
                f"master expected a WorkerResult on dataport, got {type(payload).__name__}"
            )
        return payload

    # ------------------------------------------------------------------
    # step 4: no more pools
    # ------------------------------------------------------------------
    def finished(self) -> None:
        """Inform the coordinator the master needs no more workers."""
        self.proc.raise_event(self.events.finished)
        self.proc.runtime.unsubscribe(self._memory)

    # ------------------------------------------------------------------
    # event plumbing
    # ------------------------------------------------------------------
    def wait_for(self, event: Event) -> EventOccurrence:
        """Block until an occurrence of ``event`` is observed.

        The client observes the protocol's acknowledgement only.
        """
        if event != self.events.a_rendezvous:
            raise ProcessError(
                f"{self.proc.name} cannot wait for {event.name!r}: the master "
                "client observes a_rendezvous only"
            )
        occ = self._memory.wait_for_match({event: 0}, timeout=self.timeout)
        if occ is None:
            raise ProcessError(
                f"{self.proc.name} timed out waiting for event {event.name!r}"
            )
        return occ


def make_worker_definition(
    name: str,
    compute: Callable[[Any], Any],
) -> AtomicDefinition:
    """Build a protocol-compliant worker manifold around ``compute``.

    The worker's behaviour interface, verbatim from the paper:

    1. read the information you need from your own input port;
    2. do the computational job;
    3. write the computed results to your own output port;
    4. raise ``death_worker`` to signal you are done and going to die.

    ``compute`` receives the job payload and returns the result payload;
    everything else — ports, events, timing — is handled here.
    """

    def body(proc: AtomicProcess, death_worker: Event) -> None:
        job = proc.read()                                      # step 1
        if not isinstance(job, WorkerJob):
            raise ProcessError(
                f"worker {proc.name} expected a WorkerJob, got {type(job).__name__}"
            )
        started = time.perf_counter()
        result_payload = compute(job.payload)                   # step 2
        elapsed = time.perf_counter() - started
        proc.write(                                             # step 3
            WorkerResult(
                job_id=job.job_id,
                payload=result_payload,
                compute_seconds=elapsed,
                worker_name=proc.name,
            )
        )
        proc.raise_event(death_worker)                          # step 4

    return AtomicDefinition(name, body)
