"""Streams — the asynchronous channels of MANIFOLD.

A stream connects the output port of one process (its *source*) to the
input port of another (its *sink*).  It is an unbounded FIFO buffer.

The subtlety the paper leans on is the *dismantling* behaviour when the
coordinator state that created a stream is preempted.  Each stream end
is either **B**reak or **K**eep:

* ``BK`` (the default): on dismantling the stream is *broken at its
  source* — the producer can no longer write into it — but *kept at its
  sink*: units already in transit remain deliverable.  Once drained, a
  source-broken stream disappears from the sink port.
* ``KK``: both ends survive preemption.  The protocol declares the
  worker→master.dataport connection ``KK`` so a remote worker's results
  still reach the master after the coordinator has moved on to creating
  the next worker.
* ``BB`` and ``KB`` complete the matrix for generality: a ``*B`` stream
  is also disconnected from its consumer on dismantling, discarding any
  units in transit.

Streams are created and wired exclusively by the coordination layer;
computation processes never touch them.
"""

from __future__ import annotations

import enum
import itertools
import threading
from collections import deque
from typing import Optional

from .errors import StreamError
from .ports import Port, PortDirection
from .units import Unit

__all__ = ["StreamType", "Stream"]


class StreamType(enum.Enum):
    """Dismantling behaviour: (source end, sink end), B=Break, K=Keep."""

    BK = "BK"
    KK = "KK"
    BB = "BB"
    KB = "KB"

    def __init__(self, value: str) -> None:
        # plain attributes: a state's every stream is dismantled by type
        self.breaks_source = value[0] == "B"
        self.breaks_sink = value[1] == "B"


_stream_counter = itertools.count()


class Stream:
    """A FIFO channel between a source (output) port and a sink (input) port."""

    __slots__ = (
        "type", "id", "_name", "_lock", "_buffer", "_source", "_sink",
        "_source_broken", "_sink_broken",
    )

    def __init__(self, type: StreamType = StreamType.BK, name: str = "") -> None:
        self.type = type
        self.id = next(_stream_counter)
        self._name = name
        self._lock = threading.Lock()
        self._buffer: deque[Unit] = deque()
        self._source: Optional["Port"] = None
        self._sink: Optional["Port"] = None
        self._source_broken = False
        self._sink_broken = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def connect(self, source: "Port", sink: "Port") -> "Stream":
        """Attach both ends; returns self for chaining."""
        if source.direction is not PortDirection.OUT:
            raise StreamError(f"stream source must be an output port, got {source!r}")
        if sink.direction is not PortDirection.IN:
            raise StreamError(f"stream sink must be an input port, got {sink!r}")
        with self._lock:
            if self._source is not None or self._sink is not None:
                raise StreamError(f"{self.name} is already connected")
            self._source = source
            self._sink = sink
        source.attach(self)
        sink.attach(self)
        return self

    @classmethod
    def literal(
        cls,
        payload: object,
        sink: "Port",
        type: StreamType = StreamType.BK,
        name: str = "",
    ) -> "Stream":
        """A one-shot stream delivering a single literal unit to ``sink``.

        This realizes MANIFOLD's ``value -> p`` form — in the protocol,
        ``&worker -> master`` sends the worker's process reference to the
        master.  The stream is born with the unit buffered and its source
        side already broken, so it disappears once the unit is read.
        """
        if sink.direction is not PortDirection.IN:
            raise StreamError(f"literal stream sink must be an input port, got {sink!r}")
        stream = cls(type, name=name or "literal")
        stream._sink = sink
        stream._buffer.append(Unit(payload))
        stream._source_broken = True
        sink.attach(stream)
        return stream

    @property
    def name(self) -> str:
        """The given name, else ``stream#<id>`` (formatted when asked for)."""
        return self._name or f"stream#{self.id}"

    @property
    def source(self) -> Optional["Port"]:
        return self._source

    @property
    def sink(self) -> Optional["Port"]:
        return self._sink

    # ------------------------------------------------------------------
    # data path
    # ------------------------------------------------------------------
    def accepts_input(self) -> bool:
        """True while the producer may still push units."""
        with self._lock:
            return (
                self._source is not None
                and not self._source_broken
                and not self._sink_broken
            )

    def push(self, unit: Unit) -> None:
        with self._lock:
            if self._source_broken:
                raise StreamError(f"{self.name} is broken at its source")
            if self._sink_broken:
                raise StreamError(f"{self.name} is broken at its sink")
            self._buffer.append(unit)
            sink = self._sink
        if sink is not None:
            sink.unit_ready(unit.seq, self)

    def buffered_seqs(self) -> list[int]:
        """Sequence numbers of the deliverable units, in FIFO order."""
        with self._lock:
            return [unit.seq for unit in self._buffer]

    def take(self, seq: int) -> Optional[Unit]:
        """Pop the next unit if it is unit ``seq`` (``None`` when the
        units in transit were discarded since it was announced)."""
        with self._lock:
            if self._buffer and self._buffer[0].seq == seq:
                return self._buffer.popleft()
            return None

    def pending(self) -> int:
        with self._lock:
            return 0 if self._sink_broken else len(self._buffer)

    def is_dead(self) -> bool:
        """True when the stream can never deliver another unit."""
        with self._lock:
            if self._sink_broken:
                return True
            return self._source_broken and not self._buffer

    # ------------------------------------------------------------------
    # dismantling
    # ------------------------------------------------------------------
    def dismantle(self) -> None:
        """Apply this stream's type-specific dismantling rule.

        Called by the state machinery when the coordinator state that
        set up the connection is preempted.  ``K`` ends are untouched.
        """
        if self.type.breaks_source:
            self.break_source()
        if self.type.breaks_sink:
            self.break_sink()

    def break_source(self) -> None:
        """Disconnect from the producer; in-transit units stay deliverable."""
        with self._lock:
            if self._source_broken:
                return
            self._source_broken = True
            source, sink = self._source, self._sink
            drained = not self._buffer
        if source is not None:
            source.detach(self)
        if sink is not None and drained:
            # dead: nothing in transit and nothing can be written any more
            sink.detach(self)

    def break_sink(self) -> None:
        """Disconnect from the consumer; in-transit units are discarded."""
        with self._lock:
            if self._sink_broken:
                return
            self._sink_broken = True
            self._buffer.clear()
            sink = self._sink
        if sink is not None:
            sink.detach(self)

    @property
    def source_broken(self) -> bool:
        with self._lock:
            return self._source_broken

    @property
    def sink_broken(self) -> bool:
        with self._lock:
            return self._sink_broken

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        src = self._source and f"{self._source.owner.name}.{self._source.name}"
        snk = self._sink and f"{self._sink.owner.name}.{self._sink.name}"
        return f"Stream({self.name}:{self.type.value} {src} -> {snk})"
