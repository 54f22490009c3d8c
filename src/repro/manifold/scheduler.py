"""The runtime system: process registry, event broadcast, shutdown.

The MANIFOLD system bundles process instances (threads) into task
instances (OS processes) and broadcasts raised events to every process
that can observe the source.  This module is the Python equivalent of
that runtime library:

* a :class:`Runtime` owns all process instances of one application;
* every coordinator's :class:`~repro.manifold.events.EventMemory`
  subscribes to the runtime's broadcast;
* process death is turned into a broadcast of the predefined ``death``
  event, which coordinators may handle, save or ``ignore``;
* :meth:`Runtime.shutdown` interrupts every port so all threads unwind.

The runtime is deliberately conservative: it never reaches into worker
code, it only wakes blocked coordination primitives.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Optional

from repro.trace.recorder import emit as trace_emit

from .events import Event, EventMemory, EventOccurrence
from .process import (
    AtomicDefinition,
    AtomicProcess,
    DEATH,
    ProcessBase,
    ProcessState,
)
from .timers import TimerWheel

__all__ = ["Runtime"]

#: MANIFOLD event names that get their own typed trace kind; everything
#: else lands as a generic ``manifold_event``
_TRACED_EVENT_KINDS = {
    "death_worker": "death_worker",
    "rendezvous": "rendezvous",
    "a_rendezvous": "rendezvous",
}


class Runtime:
    """One coordination runtime instance ≙ one MANIFOLD application run."""

    def __init__(self, name: str = "app") -> None:
        self.name = name
        self._lock = threading.Lock()
        #: every registered process, in registration order (a dict: O(1)
        #: membership for :meth:`adopt` and :meth:`register_active`)
        self._processes: dict[ProcessBase, None] = {}
        #: replaced, never mutated: a broadcast iterates it without a copy
        self._subscribers: tuple[EventMemory, ...] = ()
        self._shutdown = False
        #: callbacks fired when a process becomes active (placement stage)
        self.on_activate_hooks: list[Callable[[ProcessBase], None]] = []
        #: callbacks fired when a process reaches a final state
        self.on_death_hooks: list[Callable[[ProcessBase], None]] = []
        #: coordination pulse: bumped on every broadcast/activation/death,
        #: with the monotonic time of its last beat (consumed by
        #: :class:`repro.manifold.watchdog.Watchdog`)
        self._activity = 0
        self._activity_at = time.monotonic()
        #: ``(due, callback)`` for the thread in :meth:`serve`; ``_tick`` wakes it
        self._timed: list[tuple[float, Callable[[], None]]] = []
        self._tick = threading.Condition(self._lock)

    # ------------------------------------------------------------------
    # registry
    # ------------------------------------------------------------------
    def create(self, definition: AtomicDefinition, *args: object, **kwargs: object) -> AtomicProcess:
        """Create (but do not activate) a process from a definition."""
        proc = definition.instantiate(self, *args, **kwargs)
        with self._lock:
            self._processes[proc] = None
        return proc

    def spawn(self, definition: AtomicDefinition, *args: object, **kwargs: object) -> AtomicProcess:
        """Create and immediately activate a process."""
        proc = self.create(definition, *args, **kwargs)
        proc.activate()
        return proc

    def adopt(self, proc: ProcessBase) -> ProcessBase:
        """Register a process constructed outside :meth:`create`."""
        with self._lock:
            self._processes.setdefault(proc)
        return proc

    def register_active(self, proc: ProcessBase) -> None:
        with self._lock:
            self._processes.setdefault(proc)
            self._activity += 1
            self._activity_at = time.monotonic()
        trace_emit("process_activate", worker=proc.name)
        if self.on_activate_hooks:
            for hook in list(self.on_activate_hooks):
                hook(proc)

    def processes(self) -> list[ProcessBase]:
        with self._lock:
            return list(self._processes)

    def live_processes(self) -> list[ProcessBase]:
        with self._lock:
            return [p for p in self._processes if p.state is ProcessState.ACTIVE]

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def subscribe(self, memory: EventMemory) -> None:
        """Register an event memory to receive all broadcasts."""
        with self._lock:
            if memory not in self._subscribers:
                self._subscribers += (memory,)

    def unsubscribe(self, memory: EventMemory) -> None:
        with self._lock:
            self._subscribers = tuple(
                m for m in self._subscribers if m is not memory
            )

    def broadcast(self, occurrence: EventOccurrence) -> None:
        """Deliver an occurrence to every subscribed event memory."""
        with self._lock:
            subscribers = self._subscribers
            self._activity += 1
            self._activity_at = time.monotonic()
        name = occurrence.event.name
        if name != "death":  # process death is traced in on_process_death
            trace_emit(
                _TRACED_EVENT_KINDS.get(name, "manifold_event"),
                worker=occurrence.source.name if occurrence.source else "<runtime>",
                event=name,
            )
        for memory in subscribers:
            memory.deliver(occurrence)

    def raise_event(self, event: Event) -> None:
        """Broadcast an event with no source (runtime-originated)."""
        self.broadcast(EventOccurrence(event, None))

    # ------------------------------------------------------------------
    # lifecycle callbacks
    # ------------------------------------------------------------------
    def on_process_death(self, proc: ProcessBase) -> None:
        """Called by every process when it reaches a final state."""
        state = proc.state.value
        trace_emit("process_death", worker=proc.name, state=state)
        with self._lock:
            self._activity += 1
            self._activity_at = time.monotonic()
        if self.on_death_hooks:
            for hook in list(self.on_death_hooks):
                hook(proc)
        if not self._shutdown:
            self.broadcast(EventOccurrence(DEATH, proc))

    # ------------------------------------------------------------------
    # shutdown / join, and the time of the thread in run_application
    # ------------------------------------------------------------------
    def join_all(self, timeout: Optional[float] = None) -> bool:
        """Wait for every registered process to finish.

        Returns ``True`` when everything terminated within ``timeout``.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        for proc in self.processes():
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            if not proc.join(remaining) and deadline is not None:
                return False
        return True

    def after(self, delay: float, callback: Callable[[], None]) -> None:
        """Have the thread in :meth:`serve`, or the next, call ``callback`` in ``delay`` s."""
        with self._lock:
            self._timed.append((time.monotonic() + delay, callback))
            self._tick.notify_all()

    def wake(self) -> None:
        """Have the thread in :meth:`serve` look at ``done()`` again."""
        with self._lock:
            self._tick.notify_all()

    def serve(self, wheel: TimerWheel, done: Callable[[], bool]) -> None:
        """Fire ``wheel``'s timers and those :meth:`after` hands over until
        ``done()``, re-checked at each and at :meth:`wake` (``wheel`` reads
        ``time.monotonic``, as :meth:`after` does)."""
        while True:
            with self._lock:
                while not (self._timed or done()) and wheel.next_timeout() != 0.0:
                    self._tick.wait(wheel.next_timeout())
                if done():
                    return
                taken, self._timed = self._timed, []
            for due, callback in taken:
                wheel.schedule(due - wheel.clock(), callback)
            wheel.fire_due()

    def shutdown(self) -> None:
        """Interrupt all ports and close all event memories."""
        self._shutdown = True
        with self._lock:
            procs = list(self._processes)
            subs = self._subscribers
        for proc in procs:
            proc.interrupt()
        for memory in subs:
            memory.close()

    @property
    def activity_count(self) -> int:
        """Monotone coordination-activity counter (watchdog pulse)."""
        with self._lock:
            return self._activity

    @property
    def last_activity(self) -> float:
        """``time.monotonic()`` of the pulse's last beat."""
        with self._lock:
            return self._activity_at

    def failures(self) -> list[ProcessBase]:
        """Processes that ended in the FAILED state."""
        with self._lock:
            return [p for p in self._processes if p.state is ProcessState.FAILED]

    def check(self) -> None:
        """Re-raise the first worker failure, if any (test helper)."""
        for proc in self.failures():
            failure = proc.failure
            if failure is not None:
                raise failure

    def __enter__(self) -> "Runtime":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
