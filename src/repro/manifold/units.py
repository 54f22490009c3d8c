"""Data units that travel through streams.

MANIFOLD streams carry opaque *units*.  A unit may be ordinary
application data (here: any picklable Python object, typically NumPy
arrays carrying grid blocks) or a *process reference* — the ``&worker``
construct the paper's protocol sends to the master so it can address the
worker it was just handed.

Units are immutable envelopes: the payload is whatever the producer
wrote, plus a monotonically increasing sequence number that preserves
FIFO accounting in tests and traces.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .process import ProcessBase

__all__ = ["Unit", "ProcessReference"]

_unit_counter = itertools.count()


class Unit:
    """One unit of data flowing through a stream.

    Equal and hashed by ``(payload, seq)``.  A plain slotted class, not
    a frozen dataclass, because every write builds one.
    """

    __slots__ = ("payload", "seq")

    def __init__(self, payload: Any) -> None:
        self.payload = payload
        self.seq = next(_unit_counter)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.payload, self.seq) == (other.payload, other.seq)

    def __hash__(self) -> int:
        return hash((self.payload, self.seq))

    def is_reference(self) -> bool:
        """True when the payload is a process reference (``&p``)."""
        return isinstance(self.payload, ProcessReference)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Unit#{self.seq}({self.payload!r})"


class ProcessReference:
    """The ``&p`` construct: a first-class reference to a process instance.

    The master receives one of these for every worker the coordinator
    creates (behaviour-interface step 3(c) in the paper) and uses it to
    activate the worker and to label the data it writes for it.  Two
    references to one process are equal.
    """

    __slots__ = ("process",)

    def __init__(self, process: "ProcessBase") -> None:
        self.process = process

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.process == other.process

    def __hash__(self) -> int:
        return hash((self.process,))

    @property
    def name(self) -> str:
        return self.process.name

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"&{self.process.name}"
