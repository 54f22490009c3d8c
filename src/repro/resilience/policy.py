"""Declarative fault-tolerance policies and the structured fault record.

The paper's protocol is *built* around failure signals — the coordinator
counts ``death_worker`` occurrences and organizes a rendezvous before
acknowledging — yet it has no recovery story: a worker that dies without
raising the event deadlocks the run.  Following Jongmans & Arbab's
argument for keeping protocol concerns out of computation code, every
failure-handling decision of this repository lives here, as data:

* :class:`RetryPolicy` — how often to re-attempt a failed job and how
  long to wait between attempts (exponential backoff with
  *deterministic* jitter, so two runs with the same seed replay the
  same schedule);
* :class:`DeadlinePolicy` — when a silent job is declared hung.  The
  per-job budget scales with the seconds the run itself predicts for
  the grid, from the rate its earlier results were computed at, so a
  deliberately heavy grid is not mistaken for a stuck one;
* :class:`EscalationPolicy` — the ladder: retry → reassign to a new
  worker (respawning the pool if the old one is wedged) → fall back to
  an in-master sequential subsolve → fail the run with a structured
  :class:`FaultReport`.

The same ladder serves the OS-level path (crashed/hung fork-pool
workers, :mod:`repro.restructured.parallel`) and the MANIFOLD-level path
(``death_worker`` supervision, :mod:`repro.protocol.supervision`); both
record what happened as :class:`FaultEvent` entries so a run's failure
history is one auditable object either way.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

__all__ = [
    "deterministic_fraction",
    "RetryPolicy",
    "DeadlinePolicy",
    "EscalationStep",
    "EscalationPolicy",
    "FaultEvent",
    "FaultReport",
    "FaultLog",
    "FaultToleranceExhausted",
]


def deterministic_fraction(*parts: object) -> float:
    """A reproducible draw in ``[0, 1)`` from arbitrary hashable parts.

    Used for retry jitter and the injector's ``rate=`` rules: the same
    ``(seed, key, attempt)`` always yields the same fraction, on any
    machine and in any process, so fault schedules replay exactly.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 64)


# ----------------------------------------------------------------------
# policies
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """How many attempts a job gets and how long to wait between them."""

    #: total attempts per job, the first included (1 = never retry)
    max_attempts: int = 3
    #: backoff before attempt 2
    backoff_seconds: float = 0.05
    #: multiplier per further attempt (exponential backoff)
    backoff_factor: float = 2.0
    #: backoff ceiling
    max_backoff_seconds: float = 2.0
    #: +/- fraction of deterministic jitter applied to the backoff
    jitter: float = 0.25
    #: jitter seed; same seed -> same delays, run after run
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay_seconds(self, attempt: int, key: object = ()) -> float:
        """Backoff before re-dispatching after failed ``attempt``.

        Deterministic: the jitter is a hash of ``(seed, key, attempt)``,
        not a random draw, so recovery timing is replayable.
        """
        if attempt < 1:
            raise ValueError(f"attempt must be >= 1, got {attempt}")
        base = min(
            self.max_backoff_seconds,
            self.backoff_seconds * self.backoff_factor ** (attempt - 1),
        )
        swing = 2.0 * deterministic_fraction(self.seed, key, attempt) - 1.0
        return max(0.0, base * (1.0 + self.jitter * swing))


@dataclass(frozen=True)
class DeadlinePolicy:
    """When a silent job is declared hung.

    The dispatch core predicts a grid's wall seconds from its own run:
    the largest seconds per interior unknown a worker has reported,
    times the grid's unknowns.  The budget is ``factor`` times that
    prediction (a heavy diagonal gets a proportionally long leash);
    before the first result there is no prediction and the flat
    ``default_seconds`` applies.  ``floor_seconds`` guards against a
    prediction so small that scheduling noise alone would trip it.
    """

    #: deadline = max(floor, factor * predicted_seconds)
    factor: float = 8.0
    #: minimum budget for any job
    floor_seconds: float = 2.0
    #: budget before any result has priced a job
    default_seconds: float = 60.0

    def __post_init__(self) -> None:
        if self.factor <= 0:
            raise ValueError(f"factor must be positive, got {self.factor}")
        if self.floor_seconds <= 0:
            raise ValueError(
                f"floor_seconds must be positive, got {self.floor_seconds}"
            )

    def deadline_seconds(self, predicted_seconds: Optional[float] = None) -> float:
        """Wall budget for one job attempt."""
        if predicted_seconds is None:
            return max(self.floor_seconds, self.default_seconds)
        return max(self.floor_seconds, self.factor * predicted_seconds)

    # ------------------------------------------------------------------
    # MANIFOLD-level stalls (the Watchdog path)
    # ------------------------------------------------------------------
    def stall_events(self, stalls: Iterable[object]) -> list["FaultEvent"]:
        """Convert watchdog :class:`~repro.manifold.watchdog.StallReport`
        entries that exceed this policy's floor into fault events.

        Duck-typed on purpose: anything with ``stalled_for_seconds`` and
        ``describe()`` qualifies, so the coordination layer needs no
        import of this module to produce evidence.
        """
        return [
            FaultEvent.from_stall(stall)
            for stall in stalls
            if stall.stalled_for_seconds >= self.floor_seconds
        ]


class EscalationStep(Enum):
    """What the ladder prescribes after one more fault."""

    RETRY = "retry"              # re-dispatch to the (repopulated) pool
    REASSIGN = "reassign"        # new worker; respawn the pool if wedged
    FALLBACK = "fallback"        # in-master sequential subsolve
    FAIL = "fail"                # structured failure of the whole run


@dataclass(frozen=True)
class EscalationPolicy:
    """The escalation ladder: retry → reassign → sequential → fail."""

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    deadline: DeadlinePolicy = field(default_factory=DeadlinePolicy)
    #: when retries are exhausted, degrade to an in-master sequential
    #: subsolve instead of failing the run
    sequential_fallback: bool = True

    #: fault kinds that imply the worker (or its slot) is unusable, so
    #: the retry must land on a fresh worker — the OS-level kinds plus
    #: the MANIFOLD supervisor's ``death_worker``
    REASSIGN_KINDS = frozenset({"crash", "hang", "deadline", "death_worker"})

    def decide(self, attempt: int, kind: str) -> EscalationStep:
        """Next step after ``attempt`` failed with a ``kind`` fault."""
        if attempt < self.retry.max_attempts:
            if kind in self.REASSIGN_KINDS:
                return EscalationStep.REASSIGN
            return EscalationStep.RETRY
        if self.sequential_fallback:
            return EscalationStep.FALLBACK
        return EscalationStep.FAIL


# ----------------------------------------------------------------------
# the structured fault record
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FaultEvent:
    """One observed fault and the action the ladder took."""

    #: what failed — a grid ``(l, m)`` on the pool path, a worker name
    #: on the MANIFOLD path, a process tuple on the watchdog path
    key: tuple
    #: crash | hang | deadline | exception | death_worker | stall
    kind: str
    #: the attempt that failed (1-based)
    attempt: int
    #: retry | reassign | fallback | fail | report
    action: str
    #: liveness | deadline | exception | supervisor | watchdog
    detected_by: str
    error: str = ""
    seconds_lost: float = 0.0

    def describe(self) -> str:
        tail = f": {self.error}" if self.error else ""
        return (
            f"{self.kind} on {self.key} (attempt {self.attempt}, "
            f"detected by {self.detected_by}) -> {self.action}{tail}"
        )

    @classmethod
    def from_stall(cls, stall: object) -> "FaultEvent":
        """Lift a watchdog stall report into the shared fault record."""
        live = tuple(getattr(stall, "live_processes", ()))
        return cls(
            key=live or ("scheduler",),
            kind="stall",
            attempt=1,
            action="report",
            detected_by="watchdog",
            error=stall.describe(),
            seconds_lost=float(stall.stalled_for_seconds),
        )


@dataclass(frozen=True)
class FaultReport:
    """A run's complete failure history, in detection order."""

    events: tuple[FaultEvent, ...] = ()
    #: keys that faulted at least once but ultimately completed
    recovered_keys: tuple[tuple, ...] = ()
    #: keys completed via the in-master sequential fallback
    fallback_keys: tuple[tuple, ...] = ()
    #: the key that exhausted the ladder (None if the run survived)
    failed_key: Optional[tuple] = None

    @property
    def faults(self) -> int:
        return len(self.events)

    @property
    def recovered(self) -> int:
        return len(self.recovered_keys)

    @property
    def fallbacks(self) -> int:
        return len(self.fallback_keys)

    @property
    def survived(self) -> bool:
        return self.failed_key is None

    def lines(self) -> list[str]:
        out = [
            f"faults: {self.faults}, recovered: {self.recovered}, "
            f"sequential fallbacks: {self.fallbacks}, "
            f"survived: {self.survived}"
        ]
        out.extend(f"  {event.describe()}" for event in self.events)
        return out

    def describe(self) -> str:
        return "\n".join(self.lines())


class FaultLog:
    """Thread-safe fault-event accumulator shared across detectors.

    The pool master, the MANIFOLD supervisor and the watchdog bridge all
    append here, so one run has one failure history regardless of which
    layer noticed each fault.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[FaultEvent] = []

    def record(self, event: FaultEvent) -> FaultEvent:
        with self._lock:
            self._events.append(event)
        return event

    def events(self) -> list[FaultEvent]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def report(
        self,
        *,
        recovered_keys: Sequence[tuple] = (),
        fallback_keys: Sequence[tuple] = (),
        failed_key: Optional[tuple] = None,
    ) -> FaultReport:
        return FaultReport(
            events=tuple(self.events()),
            recovered_keys=tuple(recovered_keys),
            fallback_keys=tuple(fallback_keys),
            failed_key=failed_key,
        )


class FaultToleranceExhausted(RuntimeError):
    """The escalation ladder ran out of rungs; carries the full report."""

    def __init__(self, report: FaultReport, message: str = "") -> None:
        self.report = report
        super().__init__(
            message or f"fault tolerance exhausted:\n{report.describe()}"
        )
