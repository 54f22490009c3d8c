"""Ports — the only openings in a process's bounding walls.

IWIM treats processes as black boxes that *only* read from their own
input ports and write to their own output ports; all wiring between
ports is done from the outside by a coordinator.  This module implements
that contract:

* an **input port** merges the units arriving over all streams currently
  attached to it, in global FIFO (unit sequence) order — every stream
  announces each unit it buffers to its sink port, which keeps the
  announcements in a heap, so a read costs O(log ready) however many
  streams are attached;
* an **output port** replicates every written unit into all streams
  currently attached to it, and blocks when nothing is attached yet (the
  producer cannot know — or care — whether its coordinator has wired it
  up already);
* attaching and detaching streams is reserved to the coordination layer
  (:mod:`repro.manifold.streams`); worker code never sees a stream.
"""

from __future__ import annotations

import enum
import heapq
import threading
import time
from typing import TYPE_CHECKING, Callable, Optional

from .errors import PortError
from .units import Unit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import ProcessBase
    from .streams import Stream

__all__ = ["PortDirection", "Port", "STANDARD_IN", "STANDARD_OUT", "STANDARD_ERR"]


class PortDirection(enum.Enum):
    """Whether the owning process reads from or writes to the port."""

    IN = "in"
    OUT = "out"


#: Conventional names for the three ports every process has by default.
STANDARD_IN = "input"
STANDARD_OUT = "output"
STANDARD_ERR = "error"


class Port:
    """One named opening on one process instance.

    All blocking calls are interruptible: :meth:`interrupt` wakes any
    waiter with a :class:`PortError`, which the runtime uses to unwind
    worker threads at shutdown, and which the state machinery uses to
    preempt a coordinator blocked on a port operation.

    ``on_attach``, when set, is called after each stream is attached
    (outside the port's lock): a process that serves its port only once
    something is wired to it starts there.
    """

    __slots__ = (
        "owner", "name", "direction", "on_attach", "_lock", "_cond",
        "_waiting", "_streams", "_ready", "_interrupted", "_closed",
    )

    def __init__(
        self,
        owner: "ProcessBase",
        name: str,
        direction: PortDirection,
    ) -> None:
        self.owner = owner
        self.name = name
        self.direction = direction
        self.on_attach: Optional[Callable[[], None]] = None
        self._lock = threading.Lock()
        #: made by the first wait: most ports never block anyone
        self._cond: Optional[threading.Condition] = None
        #: threads blocked in ``_cond.wait``: nobody waiting, nothing to notify
        self._waiting = 0
        self._streams: list["Stream"] = []
        #: ``(unit seq, stream id, stream)`` of every unit buffered for
        #: this input port; an entry whose stream has since been broken
        #: at its sink is skipped when it surfaces
        self._ready: list[tuple[int, int, "Stream"]] = []
        self._interrupted = False
        self._closed = False

    # ------------------------------------------------------------------
    # wiring (coordinator side)
    # ------------------------------------------------------------------
    def attach(self, stream: "Stream") -> None:
        """Attach a stream end to this port (coordination layer only)."""
        with self._lock:
            if self._closed:
                raise PortError(f"{self!r} is closed")
            self._streams.append(stream)
            # a unit pushed after this test is announced by unit_ready
            if self.direction is PortDirection.IN and stream._buffer:
                for seq in stream.buffered_seqs():
                    heapq.heappush(self._ready, (seq, stream.id, stream))
            self._wake_locked()
        if self.on_attach is not None:
            self.on_attach()

    def detach(self, stream: "Stream") -> None:
        """Detach a stream end from this port (coordination layer only)."""
        with self._lock:
            self._drop_locked(stream)
            self._wake_locked()

    def attached_streams(self) -> list["Stream"]:
        """Snapshot of the streams currently attached (for tests/traces)."""
        with self._lock:
            return list(self._streams)

    def unit_ready(self, seq: int, stream: "Stream") -> None:
        """``stream`` has buffered unit ``seq`` for this port (called by
        :meth:`Stream.push`)."""
        with self._lock:
            heapq.heappush(self._ready, (seq, stream.id, stream))
            self._wake_locked()

    # ------------------------------------------------------------------
    # I/O (worker side)
    # ------------------------------------------------------------------
    def write(self, payload: object, timeout: Optional[float] = None) -> Unit:
        """Write one unit, replicated into every attached stream.

        Blocks until at least one stream is attached — a process "simply
        writes this information to its own output port" and relies on the
        coordinator to have arranged (or to soon arrange) delivery.
        """
        if self.direction is not PortDirection.OUT:
            raise PortError(f"cannot write to {self.direction.value} port {self!r}")
        unit = Unit(payload)
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                self._check_interrupt()
                open_streams = [s for s in self._streams if s.accepts_input()]
                if open_streams:
                    break
                if not self._wait_until(deadline):
                    raise PortError(
                        f"write on {self!r} timed out with no stream attached"
                    )
            for stream in open_streams:
                stream.push(unit)
        return unit

    def read(self, timeout: Optional[float] = None) -> object:
        """Read the earliest available unit across all attached streams.

        Blocks until a unit is available.
        """
        if self.direction is not PortDirection.IN:
            raise PortError(f"cannot read from {self.direction.value} port {self!r}")
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                self._check_interrupt()
                unit = self._take_ready_locked()
                if unit is not None:
                    return unit.payload
                if not self._wait_until(deadline):
                    raise PortError(f"read on {self!r} timed out")

    def try_read(self) -> Optional[object]:
        """Non-blocking read; ``None`` when no unit is available."""
        with self._lock:
            unit = self._take_ready_locked()
            return None if unit is None else unit.payload

    def pending(self) -> int:
        """Total units currently readable across attached streams."""
        with self._lock:
            return sum(s.pending() for s in self._streams)

    def _take_ready_locked(self) -> Optional[Unit]:
        """Pop the earliest announced unit that is still deliverable; a
        stream that it was the last unit of leaves the port."""
        while self._ready:
            seq, _, stream = heapq.heappop(self._ready)
            unit = stream.take(seq)
            if unit is not None:
                if stream.is_dead():
                    self._drop_locked(stream)
                return unit
        return None

    def _drop_locked(self, stream: "Stream") -> None:
        try:
            self._streams.remove(stream)
        except ValueError:
            pass

    def _wait_until(self, deadline: Optional[float]) -> bool:
        """Wait on the port's condition; ``False`` once ``deadline`` passed."""
        remaining = None
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
        if self._cond is None:
            self._cond = threading.Condition(self._lock)
        self._waiting += 1
        try:
            self._cond.wait(remaining)
        finally:
            self._waiting -= 1
        return True

    def _wake_locked(self) -> None:
        """Wake the port's blocked reader or writer, if there is one."""
        if self._waiting:
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def interrupt(self) -> None:
        """Make all current blocking calls raise :class:`PortError`."""
        with self._lock:
            self._interrupted = True
            self._wake_locked()

    def close(self) -> None:
        """Permanently close the port; blocked calls raise."""
        with self._lock:
            self._closed = True
            self._interrupted = True
            self._wake_locked()

    def _check_interrupt(self) -> None:
        if self._interrupted or self._closed:
            raise PortError(f"{self!r} interrupted")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Port({self.owner.name}.{self.name}/{self.direction.value})"
