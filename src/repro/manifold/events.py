"""Events and per-process event memory.

In the IWIM model a process raises *events* into the environment; every
process that can observe the source receives an *event occurrence* — the
pair ``(event, source)`` — in its private *event memory*.  A coordinator
reacts to occurrences by preempting its current state and transitioning
to a state whose label matches.

This module implements:

* :class:`Event` — an event name, compared and hashed by value.
* :class:`EventOccurrence` — an event together with the process that
  raised it.
* :class:`EventMemory` — the thread-safe occurrence store owned by each
  coordinator process, supporting the declarative statements the paper's
  protocol uses: ``save`` (retain unmatched occurrences), ``ignore``
  (drop named occurrences on block exit) and ``priority`` (order the
  choice among simultaneously available occurrences).
"""

from __future__ import annotations

import itertools
import operator
import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

from .errors import EventError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import ProcessBase

__all__ = [
    "Event",
    "EventOccurrence",
    "EventMemory",
    "BEGIN",
    "END",
]


class Event(tuple):
    """An event name.

    Events are values: two events with the same name in the same
    namespace compare (and hash) equal, so the protocol source and the
    worker wrappers can both say ``Event("death_worker")`` and mean the
    same thing.  Distinct *local* events (such as the ``death_worker``
    event declared locally in ``Create_Worker_Pool``) are created with
    :meth:`local`, which gives the event a unique namespace.

    An event is the pair ``(name, namespace)``, so hashing and comparing
    one runs no Python code: a coordinator does both for every label it
    matches and every occurrence it stores.
    """

    __slots__ = ()

    _local_counter = itertools.count()

    def __new__(cls, name: str, namespace: str = "") -> "Event":
        if not name or not isinstance(name, str):
            raise EventError(f"event name must be a non-empty string, got {name!r}")
        return tuple.__new__(cls, (name, namespace))

    name = property(operator.itemgetter(0))
    namespace = property(operator.itemgetter(1))

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

    @classmethod
    def local(cls, name: str) -> "Event":
        """Create a fresh event distinct from any other event of the same name."""
        return cls(name, namespace=f"local#{next(cls._local_counter)}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        if self.namespace:
            return f"Event({self.name!r}@{self.namespace})"
        return f"Event({self.name!r})"


#: The predefined high-priority event posted automatically on block entry.
BEGIN = Event("begin")
#: The conventional terminal event used by several built-in blocks.
END = Event("end")


_occurrence_counter = itertools.count()


class EventOccurrence:
    """An event together with the process instance that raised it.

    ``source`` is ``None`` for occurrences posted by the runtime itself
    (notably the automatic ``begin`` posting on block entry) and for
    self-posted transitions (``post(...)`` in the paper's notation).
    Equal and hashed by ``(event, source)``; ``seq`` only numbers them.
    """

    __slots__ = ("event", "source", "seq")

    def __init__(self, event: Event, source: Optional["ProcessBase"] = None) -> None:
        self.event = event
        self.source = source
        self.seq = next(_occurrence_counter)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.event, self.source) == (other.event, other.source)

    def __hash__(self) -> int:
        return hash((self.event, self.source))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventOccurrence({self.event!r}, {self.source!r}, seq={self.seq})"


#: What a consumer hands the memory to choose among pending occurrences:
#: ``{event: rank}``.
Matcher = Mapping[Event, int]


class EventMemory:
    """Thread-safe store of event occurrences for one coordinator.

    The memory is a FIFO multiset: occurrences are recorded in arrival
    order; when several occurrences can preempt the current state, the
    coordinator picks the one whose label has the highest declared
    priority, breaking ties by arrival order (matching the paper's
    ``priority create_worker > rendezvous`` declaration).

    Occurrences are kept in one queue per event, each entry stamped
    with its arrival number.  A *matcher* is a ``{event: rank}``
    mapping: only the head of each labelled queue is looked at, so
    occurrences nobody has a label for (a pool's saved ``death``
    events) cost nothing.  Higher rank wins; among equal ranks the
    earliest arrival.

    While a coordinator's innermost block runs inline (generator state
    bodies, :mod:`repro.manifold.states`), that coordinator is the
    memory's *driver*, and the thread that delivers an occurrence the
    driver can take runs the transition before :meth:`deliver` returns.
    One thread drives at a time: the one that set ``_driving`` under the
    lock.  A delivery that finds it set only enqueues; the holder takes
    what is queued before it clears the flag, and decides that nothing
    is left under the same lock as the append, so no delivery is missed.
    """

    def __init__(self, owner_name: str = "?") -> None:
        self._owner_name = owner_name
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._queues: dict[Event, deque[tuple[int, EventOccurrence]]] = {}
        self._arrivals = 0
        #: what each blocked waiter can be woken by: its label mapping,
        #: or ``None`` for any delivery (it waits on a predicate too)
        self._waiters: list[Optional[Mapping[Event, int]]] = []
        self._closed = False
        #: the inline coordinator's ``StateContext``, or ``None``
        self._driver = None
        #: set while a thread runs the driver's transitions
        self._driving = False

    # ------------------------------------------------------------------
    # producer side
    # ------------------------------------------------------------------
    def deliver(self, occurrence: EventOccurrence) -> None:
        """Record an occurrence (called when an observed process raises).

        Wakes a waiter only if it can take the occurrence or has to
        re-evaluate a predicate; drives an inline coordinator's
        transition under the same rule.
        """
        event = occurrence.event
        with self._lock:
            if self._closed:
                return
            queue = self._queues.get(event)
            if queue is None:
                queue = self._queues[event] = deque()
            queue.append((self._arrivals, occurrence))
            self._arrivals += 1
            driver = self._driver
            if driver is None:
                for labels in self._waiters:
                    if labels is None or event in labels:
                        self._cond.notify_all()
                        break
                return
            if self._driving or not driver._wants(event):
                return
            self._driving = True
        driver._drive()

    def post(self, event: Event, source: Optional["ProcessBase"] = None) -> None:
        """Post an occurrence directly (MANIFOLD's ``post`` primitive)."""
        self.deliver(EventOccurrence(event, source))

    # ------------------------------------------------------------------
    # consumer side
    # ------------------------------------------------------------------
    def snapshot(self) -> list[EventOccurrence]:
        """A copy of the pending occurrences, in arrival order."""
        with self._lock:
            # arrival numbers are unique: the sort never compares occurrences
            entries = sorted(itertools.chain.from_iterable(self._queues.values()))
        return [occurrence for _, occurrence in entries]

    def __len__(self) -> int:
        with self._lock:
            return sum(map(len, self._queues.values()))

    def take_match(self, matcher: Matcher) -> Optional[EventOccurrence]:
        """Remove and return the best pending occurrence, if any."""
        with self._lock:
            return self._take_match_locked(matcher)

    def wait_for_match(
        self,
        matcher: Matcher,
        timeout: Optional[float] = None,
        extra_predicate: Optional[Callable[[], bool]] = None,
    ) -> Optional[EventOccurrence]:
        """Block until a matching occurrence arrives (or return ``None``).

        ``timeout`` is one deadline for the whole call, however often
        unrelated deliveries wake it.  ``extra_predicate``, when given,
        also ends the wait; this is how blocking primitives such as
        ``terminated(p)`` share the wait: the call returns ``None`` when
        the predicate fired first.  A waiter with a predicate is woken
        by every delivery and by :meth:`notify`.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        labels = matcher if extra_predicate is None else None
        with self._lock:
            self._waiters.append(labels)
            try:
                while True:
                    best = self._take_match_locked(matcher)
                    if best is not None:
                        return best
                    if extra_predicate is not None and extra_predicate():
                        return None
                    if self._closed:
                        return None
                    remaining = None
                    if deadline is not None:
                        remaining = deadline - time.monotonic()
                        if remaining <= 0:
                            return None
                    self._cond.wait(remaining)
            finally:
                self._waiters.remove(labels)

    def _take_match_locked(self, matcher: Matcher) -> Optional[EventOccurrence]:
        best_key: Optional[tuple[int, int]] = None
        best_queue = None
        for event, rank in matcher.items():
            queue = self._queues.get(event)
            if queue and (best_key is None or (rank, -queue[0][0]) > best_key):
                best_key = (rank, -queue[0][0])
                best_queue = queue
        if best_queue is None:
            return None
        occurrence = best_queue.popleft()[1]
        if not best_queue:
            del self._queues[occurrence.event]
        return occurrence

    def notify(self) -> None:
        """Wake any waiter so it can re-evaluate its extra predicate; an
        idle inline coordinator re-evaluates its wait in the calling
        thread."""
        with self._lock:
            if self._waiters:
                self._cond.notify_all()
            driver = self._claim_driver_locked()
        if driver is not None:
            driver._drive()

    def _claim_driver_locked(self):
        """Set the driving flag for the caller if an inline coordinator
        is idle; return that coordinator's context (else ``None``)."""
        if self._driver is None or self._driving:
            return None
        self._driving = True
        return self._driver

    # ------------------------------------------------------------------
    # block-scope maintenance
    # ------------------------------------------------------------------
    def discard(self, events: Iterable[Event]) -> int:
        """Drop all pending occurrences of the given events.

        Implements the ``ignore death`` declarative statement: death
        occurrences are removed from memory on departure from the block.
        Returns the number of occurrences dropped.
        """
        with self._lock:
            return sum(len(self._queues.pop(event, ())) for event in set(events))

    def close(self) -> None:
        """Shut the memory down; pending and future waiters return ``None``,
        and an inline coordinator's blocks are torn down."""
        with self._lock:
            self._closed = True
            if self._waiters:
                self._cond.notify_all()
            driver = self._claim_driver_locked()
        if driver is not None:
            driver._drive()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"EventMemory({self._owner_name}, pending={len(self)})"
