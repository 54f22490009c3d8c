"""Stall detection for coordination applications.

Event-driven coordination deadlocks silently: a master waiting for an
acknowledgement nobody will send just blocks.  The watchdog gives a
runtime a pulse — every broadcast, activation and death ticks an
activity counter and stamps the time of the beat — and a background
sampler, asleep until the pulse could first have been flat for the
timeout, raises the alarm when it is while processes are still alive.

The detector is deliberately *advisory* (it reports; it does not kill):
a long-running numerical kernel between port operations is
indistinguishable from a deadlock from the coordination layer's
viewpoint, exactly as a busy C routine was to the original MANIFOLD
runtime.  Callers choose the timeout accordingly, or use
:meth:`Watchdog.stop` around known-quiet phases.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Optional

from .process import ProcessState
from .scheduler import Runtime
from .threads import start_thread

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
    """Watches a runtime's pulse from a background thread.

    ``on_stall`` fires (once per flatline episode) with a
    :class:`StallReport`; activity resets the episode.
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
        #: (stop, stopped) of the running sampler; None while stopped
        self._running: Optional[tuple[threading.Event, threading.Event]] = None
        self._reports: list[StallReport] = []
        self._reports_lock = threading.Lock()

    # ------------------------------------------------------------------
    def start(self) -> "Watchdog":
        if self._running is not None:
            raise RuntimeError("watchdog already started")
        # a fresh pair per start, so a stopped watchdog can start again
        stop, stopped = self._running = threading.Event(), threading.Event()

        def sample() -> None:
            try:
                self._run(stop)
            finally:
                stopped.set()

        start_thread(sample, "watchdog")
        return self

    def stop(self) -> None:
        if self._running is not None:
            stop, stopped = self._running
            stop.set()
            stopped.wait(timeout=2.0)
            self._running = None

    def __enter__(self) -> "Watchdog":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # ------------------------------------------------------------------
    def reports(self) -> list[StallReport]:
        with self._reports_lock:
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

    def _run(self, stop: threading.Event) -> None:
        # Quiet time counts from the pulse's last beat, but never from
        # before this start(): a stop() around a quiet phase forgets it.
        # The sampler sleeps until the first moment the pulse could have
        # been flat for ``timeout``; while nothing is alive it re-checks
        # once per ``timeout``.
        floor = time.monotonic()
        reported: Optional[float] = None  # quiet_since of the reported episode
        while True:
            now = time.monotonic()
            if not self.runtime.live_processes():
                floor, wait = now, self.timeout
            else:
                quiet_since = max(self.runtime.last_activity, floor)
                wait = quiet_since + self.timeout - now
                if wait <= 0:
                    if reported != quiet_since:
                        reported = quiet_since
                        report = self.snapshot(now - quiet_since)
                        with self._reports_lock:
                            self._reports.append(report)
                        if self.on_stall is not None:
                            self.on_stall(report)
                    wait = self.timeout  # a new episode needs a beat first
            if stop.wait(wait):
                return
