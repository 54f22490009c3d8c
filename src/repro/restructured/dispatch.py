"""The one dispatch core under the local pool and the socket engine.

The paper's argument is that the coordination protocol is *one* generic
module that computation plugs into unchanged.  This module is that
argument applied to the resilient job lifecycle: :class:`DispatchCore`
is the only implementation of it, and the local pool
(:mod:`~repro.restructured.parallel`) and the socket master
(:mod:`~repro.restructured.netengine`) are *drivers* that translate
their substrate's signals into core calls and plug three callables
(:class:`Driver`) back in.

What the core owns, identically for every driver:

* the **ledger** — every grid ``(l, m)`` is in exactly one
  :class:`JobState`: ``ready → in-flight → done | ready | backoff |
  fallback | failed``.  A reassign goes straight back to the head of
  ``ready``; a retry waits in ``backoff`` until its timer fires or a
  slot would otherwise sit idle, whichever comes first;
* **attempt counting and stale-attempt rejection** — a result or error
  whose attempt is not the outstanding one is dropped, so a worker that
  answers after being declared lost cannot corrupt the run;
* **deadlines** — per attempt, priced from the run's own completions
  (:attr:`DispatchCore.seconds_per_unknown`), armed on the timer wheel,
  read off the wheel's clock (as is ``seconds_lost``);
* the **escalation ladder** — :meth:`EscalationPolicy.decide` per
  fault: a reassign re-queued at once (the fresh worker is the remedy),
  a retry parked on the wheel (never slept, and never while a slot is
  free with nothing ready), in-master ``execute_job`` fallback,
  :class:`FaultToleranceExhausted`;
* the ``FaultLog`` and every trace event of the lifecycle, in the
  per-key order ``fault`` → (driver: ``respawn``) → ``retry`` →
  ``job_submit``, the ``retry`` carrying the seconds actually parked.

What a driver is, identically on both substrates: ``place`` names a
free slot (an idle task instance, a daemon link with no job on it),
``launch`` sends the attempt there, and ``retire(job, kind)`` gives the
slot back or replaces its one worker — the contract is only that once
it returns, the attempt's slot is free again.  A crashed worker is
already gone when its loss is reported (the EOF of its pipe, the
daemon's dropped link); only a per-job ``deadline`` on a worker that is
still alive makes ``retire`` do the kill, before the retry *and* before
the fallback.  A worker of either kind holds one job, so replacing it
costs nobody else anything, and a key is only ever re-submitted at its
next attempt.

The core never sleeps and never advances the clock: it schedules on the
injected :class:`~repro.manifold.timers.TimerWheel`, and :func:`drive`, the one loop over a
core on either substrate, decides when time passes.  A *channel* is what
a driver registers with its selector: a busy pool worker's pipe, a
daemon link's socket.  That is what makes both testable with a fake
clock, a fake selector and scripted channels, no process or socket.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, NamedTuple, Optional

from repro.manifold.timers import TimerWheel
from repro.resilience import (
    EscalationStep,
    FaultEvent,
    FaultLog,
    FaultReport,
    FaultToleranceExhausted,
)

from .worker import SubsolveJobSpec, SubsolvePayload, execute_job

__all__ = [
    "DispatchCore",
    "DispatchOutcome",
    "Driver",
    "Job",
    "JobState",
    "Slot",
    "drive",
]

#: scheduling slack added to deadline timers so a conviction never
#: lands a clock-granularity tick *before* its full window has elapsed
_DEADLINE_GRACE = 0.005


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


# ----------------------------------------------------------------------
# the ledger's vocabulary
# ----------------------------------------------------------------------
class JobState(Enum):
    """Where one grid ``(l, m)`` stands; the last three are terminal."""

    READY = "ready"
    IN_FLIGHT = "in-flight"
    BACKOFF = "backoff"
    DONE = "done"
    FALLBACK = "fallback"
    FAILED = "failed"


class Slot(NamedTuple):
    """Where the next ready job can run, as a driver's ``place`` names it."""

    worker: object
    #: the ``worker`` field of the attempt's ``job_submit`` trace event
    name: Optional[object] = None


@dataclass(eq=False)
class Job:
    """One attempt in flight — the pending record of every driver."""

    spec: SubsolveJobSpec
    attempt: int
    worker: object              # what the driver's place() put it on
    deadline_at: float          # on the wheel's clock
    submitted_at: float

    @property
    def key(self) -> tuple[int, int]:
        return (self.spec.l, self.spec.m)


@dataclass(eq=False)
class _Parked:
    """A failed attempt waiting out its retry backoff."""

    job: Job
    kind: str
    since: float                # on the wheel's clock
    due: float


class Driver(NamedTuple):
    """What a substrate plugs into the core.  None of the three may call
    :meth:`DispatchCore.dispatch_ready`: the core relies on nothing
    being launched while it is mid-transition."""

    #: a free slot for the next ready job, ``None`` when there is none
    place: Callable[[], Optional[Slot]]
    #: ship the attempt to ``job.worker`` (it is already pending, and its
    #: deadline armed, so a send that fails may fault it right away)
    launch: Callable[[Job], None]
    #: the attempt left flight — ``kind`` is ``None`` on completion, else
    #: the fault kind: free its slot before returning
    retire: Callable[[Job, Optional[str]], None]


@dataclass
class DispatchOutcome:
    """What one resilient run produced, on any substrate."""

    payloads: dict[tuple[int, int], SubsolvePayload]
    completion_order: tuple[tuple[int, int], ...]
    attempts: int
    report: FaultReport


# ----------------------------------------------------------------------
# the core
# ----------------------------------------------------------------------
class DispatchCore:
    """The resilient job lifecycle, driven by events and a timer wheel.

    Completed payloads are keyed by grid ``(l, m)``; a key completes
    exactly once, so recovery is idempotent and the result set is one
    payload per grid, bitwise identical to a fault-free run.
    """

    def __init__(
        self,
        ordered: Iterable[SubsolveJobSpec],
        driver: Driver,
        *,
        escalation,
        timers: TimerWheel,
        use_cache: bool = True,
        seconds_per_unknown: Optional[float] = None,
        trace=None,
    ) -> None:
        self.driver = driver
        self.escalation = escalation
        self.timers = timers
        self.clock = timers.clock
        self.use_cache = use_cache
        #: the largest worker-measured ``wall_seconds / n_interior`` of
        #: an accepted result (``None`` until one is in); the driver
        #: seeds it from its substrate and keeps it for the next run
        self.seconds_per_unknown = seconds_per_unknown
        self.log = FaultLog()
        self.trace = trace
        self.ready: deque[tuple[SubsolveJobSpec, int]] = deque(
            (spec, 1) for spec in ordered
        )
        self.state = {(spec.l, spec.m): JobState.READY for spec, _ in self.ready}
        self.pending: dict[tuple[int, int], Job] = {}
        #: retries in backoff, in the order they were parked
        self.parked: dict[tuple[int, int], _Parked] = {}
        self.completed: dict[tuple[int, int], SubsolvePayload] = {}
        self.completion_order: list[tuple[int, int]] = []
        self.recovered_keys: list[tuple[int, int]] = []
        self.fallback_keys: list[tuple[int, int]] = []
        self.attempts = 0
        self._open = len(self.state)

    @property
    def done(self) -> bool:
        """Every key is in a terminal state."""
        return self._open == 0

    def outcome(self) -> DispatchOutcome:
        return DispatchOutcome(
            payloads=self.completed,
            completion_order=tuple(self.completion_order),
            attempts=self.attempts,
            report=self._report(),
        )

    def _report(self, failed_key: Optional[tuple] = None) -> FaultReport:
        return self.log.report(
            recovered_keys=self.recovered_keys,
            fallback_keys=self.fallback_keys,
            failed_key=failed_key,
        )

    # ------------------------------------------------------------------
    # ready → in-flight
    # ------------------------------------------------------------------
    def dispatch_ready(self) -> None:
        """Launch ready jobs, in queue order, while the driver has room.

        A slot that no ready job wants takes the parked retry due first:
        a backoff orders work behind what is ready, it never idles a
        worker."""
        while self.ready or self.parked:
            slot = self.driver.place()
            if slot is None:
                return
            if self.ready:
                spec, attempt = self.ready.popleft()
            else:
                first = min(self.parked.values(), key=lambda p: p.due)
                spec, attempt = self._unpark(first.job, first.kind, first.since)
            self._submit(spec, attempt, slot)

    def _submit(self, spec: SubsolveJobSpec, attempt: int, slot: Slot) -> None:
        key = (spec.l, spec.m)
        predicted = (
            None
            if self.seconds_per_unknown is None
            else self.seconds_per_unknown * spec.grid.n_interior
        )
        budget = self.escalation.deadline.deadline_seconds(predicted)
        self.attempts += 1
        now = self.clock()
        job = Job(
            spec=spec,
            attempt=attempt,
            worker=slot.worker,
            deadline_at=now + budget,
            submitted_at=now,
        )
        self.pending[key] = job
        self.state[key] = JobState.IN_FLIGHT
        if self.trace is not None:
            self.trace.record(
                "job_submit", key=key, worker=slot.name, attempt=attempt
            )

        def overdue() -> None:
            if self.pending.get(key) is job:
                self.fault(
                    key,
                    "deadline",
                    detected_by="deadline",
                    error=f"no result within {budget:.2f}s",
                )

        self.timers.schedule(budget + _DEADLINE_GRACE, overdue)
        self.driver.launch(job)

    # ------------------------------------------------------------------
    # in-flight → done
    # ------------------------------------------------------------------
    def result(self, key, attempt: int, payload: SubsolvePayload) -> None:
        """A worker answered; a superseded attempt's answer is dropped."""
        job = self.pending.get(key)
        if job is None or job.attempt != attempt:
            return
        del self.pending[key]
        # measured in the worker, so queueing on the master adds nothing;
        # the largest sample wins, so noise only lengthens a deadline
        rate = payload.wall_seconds / max(1, job.spec.grid.n_interior)
        self.seconds_per_unknown = max(self.seconds_per_unknown or 0.0, rate)
        self.driver.retire(job, None)
        self._settle(key, JobState.DONE, payload)
        _trace_payload(self.trace, payload, attempt=attempt)
        if attempt > 1 and key not in self.recovered_keys:
            self.recovered_keys.append(key)

    def _settle(self, key, state: JobState, payload: SubsolvePayload) -> None:
        self.completed[key] = payload
        self.completion_order.append(key)
        self.state[key] = state
        self._open -= 1

    # ------------------------------------------------------------------
    # in-flight → backoff | fallback | failed
    # ------------------------------------------------------------------
    def fault(
        self,
        key,
        kind: str,
        *,
        detected_by: str,
        error: str = "",
        attempt: Optional[int] = None,
    ) -> None:
        """The outstanding attempt of ``key`` failed: record it, let the
        driver reclaim the worker, take the ladder's next step.  A report
        about a superseded ``attempt`` is dropped."""
        job = self.pending.get(key)
        if job is None or (attempt is not None and job.attempt != attempt):
            return
        del self.pending[key]
        step = self.escalation.decide(job.attempt, kind)
        event = FaultEvent(
            key=key,
            kind=kind,
            attempt=job.attempt,
            action=step.value,
            detected_by=detected_by,
            error=error,
            seconds_lost=self.clock() - job.submitted_at,
        )
        self.log.record(event)
        if self.trace is not None:
            self.trace.record_fault(event)
        self.driver.retire(job, kind)
        if step is EscalationStep.REASSIGN:
            # the fresh worker is the remedy: nothing to wait for
            self.ready.appendleft(self._unpark(job, kind, self.clock()))
        elif step is EscalationStep.RETRY:
            self._park(job, kind)
        elif step is EscalationStep.FALLBACK:
            self._fall_back(job, kind)
        else:
            self.state[key] = JobState.FAILED
            self.fail()

    def _park(self, job: Job, kind: str) -> None:
        """Backoff on the wheel: every other key keeps completing, and
        a free slot with nothing ready ends it early (dispatch_ready)."""
        key = job.key
        delay = self.escalation.retry.delay_seconds(job.attempt, key)
        now = self.clock()
        parked = self.parked[key] = _Parked(job, kind, now, now + delay)
        self.state[key] = JobState.BACKOFF

        def expire() -> None:
            # void once a free slot has taken it early
            if self.parked.get(key) is parked:
                self.ready.appendleft(self._unpark(job, kind, now))

        self.timers.schedule(delay, expire)

    def _unpark(
        self, job: Job, kind: str, since: float
    ) -> tuple[SubsolveJobSpec, int]:
        """The failed ``job``'s key is ready again, at its next attempt;
        its ``retry`` event carries the seconds waited ``since`` the
        fault."""
        self.parked.pop(job.key, None)
        self.state[job.key] = JobState.READY
        if self.trace is not None:
            self.trace.record(
                "retry",
                key=job.key,
                attempt=job.attempt + 1,
                cause=kind,
                backoff_seconds=self.clock() - since,
            )
        return job.spec, job.attempt + 1

    def _fall_back(self, job: Job, kind: str) -> None:
        """Graceful degradation: the master computes the grid itself,
        sequentially and without injection — the paper's original loop
        body as the last safety net before failing the run."""
        key = job.key
        try:
            payload = execute_job(job.spec, use_cache=self.use_cache)
        except Exception as exc:
            self.log.record(
                FaultEvent(
                    key=key,
                    kind="exception",
                    attempt=job.attempt,
                    action="fail",
                    detected_by="fallback",
                    error=repr(exc),
                )
            )
            self.state[key] = JobState.FAILED
            self.fail(exc)
        self._settle(key, JobState.FALLBACK, payload)
        self.fallback_keys.append(key)
        if self.trace is not None:
            self.trace.record("fallback", key=key, attempt=job.attempt, cause=kind)
            # attempt + 1: the in-master replay is a fresh attempt,
            # distinct from the failed one on the (key, attempt) axis
            _trace_payload(
                self.trace, payload, attempt=job.attempt + 1, fallback=True
            )
        if key not in self.recovered_keys:
            self.recovered_keys.append(key)

    def fail(self, cause: Optional[BaseException] = None) -> None:
        """Fail the run with its structured failure history."""
        failed_key = self.log.events()[-1].key if len(self.log) else None
        raise FaultToleranceExhausted(self._report(failed_key)) from cause


# ----------------------------------------------------------------------
# the one loop
# ----------------------------------------------------------------------
def drive(
    core: DispatchCore, selector, ready, *, starved, settling=lambda: False
) -> DispatchOutcome:
    """Run ``core`` to its outcome: launch what the driver has room for,
    ``select`` until a registered channel is ready or the next timer is
    due, hand each ready one to ``ready(data, fileobj)``, fire the due
    timers.  A pass that leaves the core unfinished with nothing in
    flight calls ``starved()``, which raises when nothing the substrate
    holds can free a slot; ``settling()`` keeps the loop going after
    the last key settled."""
    while not core.done or settling():
        core.dispatch_ready()
        if not core.done and not core.pending:
            starved()
        for key, _ in selector.select(core.timers.next_timeout()):
            ready(key.data, key.fileobj)
        core.timers.fire_due()
    return core.outcome()
