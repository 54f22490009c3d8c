"""Stall detection for coordination applications.

Event-driven coordination deadlocks silently: a master waiting for an
acknowledgement nobody will send just blocks.  The watchdog gives a
runtime a pulse — every broadcast, activation and death ticks an
activity counter and stamps the time of the beat — and a check timed
to the first moment the pulse could have been flat for the timeout (a
timer of the thread waiting in ``run_application``, not a thread of its
own) raises the alarm when it is while processes are still alive.

The detector is deliberately *advisory* (it reports; it does not kill):
a long-running numerical kernel between port operations is
indistinguishable from a deadlock from the coordination layer's
viewpoint, exactly as a busy C routine was to the original MANIFOLD
runtime.  Callers choose the timeout accordingly, or use
:meth:`Watchdog.stop` around known-quiet phases.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from .process import ProcessState
from .scheduler import Runtime

__all__ = ["StallReport", "Watchdog"]


@dataclass(frozen=True)
class StallReport:
    """What the watchdog saw when the pulse flatlined."""

    stalled_for_seconds: float
    live_processes: tuple[str, ...]
    pending_events: int
    activity_count: int

    def describe(self) -> str:
        names = ", ".join(self.live_processes) or "(none)"
        return (
            f"no coordination activity for {self.stalled_for_seconds:.1f}s; "
            f"live processes: {names}; "
            f"{self.pending_events} event occurrence(s) pending"
        )


class Watchdog:
    """Checks a runtime's pulse on the thread waiting in ``run_application``.

    ``on_stall`` fires (once per flatline episode) with a
    :class:`StallReport`; activity resets the episode.  :meth:`start`
    hands the runtime its first check, each check its next one, and
    :meth:`stop` ends the chain; :meth:`check` is one look at an instant.
    """

    def __init__(
        self,
        runtime: Runtime,
        timeout: float = 5.0,
        on_stall: Optional[Callable[[StallReport], None]] = None,
    ) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        self.runtime = runtime
        self.timeout = timeout
        self.on_stall = on_stall
        #: a token per start(): a check of an earlier one ends its chain
        self._started: Optional[object] = None
        #: quiet time counts from no earlier than this: the first check
        #: after start(), or the last one that found nothing alive
        self._floor: Optional[float] = None
        #: quiet_since of the episode last reported
        self._reported: Optional[float] = None
        self._reports: list[StallReport] = []

    # ------------------------------------------------------------------
    def start(self) -> "Watchdog":
        if self._started is not None:
            raise RuntimeError("watchdog already started")
        started = self._started = object()
        self._floor = self._reported = None

        def sample() -> None:
            if self._started is started:
                self.runtime.after(self.check(time.monotonic()), sample)

        self.runtime.after(0.0, sample)
        return self

    def stop(self) -> None:
        self._started = None

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def reports(self) -> list[StallReport]:
        return list(self._reports)

    def snapshot(self, stalled_for: float) -> StallReport:
        live = tuple(
            proc.name
            for proc in self.runtime.live_processes()
            if proc.state is ProcessState.ACTIVE
        )
        pending = 0
        for proc in self.runtime.processes():
            memory = getattr(proc, "event_memory", None)
            if memory is not None:
                pending += len(memory)
        return StallReport(
            stalled_for_seconds=stalled_for,
            live_processes=live,
            pending_events=pending,
            activity_count=self.runtime.activity_count,
        )

    def check(self, now: float) -> float:
        """Look at the pulse at ``now``: report a flat one once per
        episode; returns the seconds until the next look is due, the
        first moment the pulse could have been flat for ``timeout``."""
        if self._floor is None or not self.runtime.live_processes():
            self._floor = now  # nothing alive, or the first look: no quiet yet
            return self.timeout
        quiet_since = max(self.runtime.last_activity, self._floor)
        wait = quiet_since + self.timeout - now
        if wait > 0:
            return wait
        if self._reported != quiet_since:
            self._reported = quiet_since
            report = self.snapshot(now - quiet_since)
            self._reports.append(report)
            if self.on_stall is not None:
                self.on_stall(report)
        return self.timeout  # a new episode needs a beat first
