"""The timer wheel of ``dispatch.drive`` and of ``run_application``."""

from __future__ import annotations

import heapq
import time
from typing import Callable, Optional

__all__ = ["TimerWheel"]


class TimerWheel:
    """A heap of ``(due, seq, callback)`` on an injected clock.

    Everything its one thread would otherwise ``time.sleep`` for —
    backoff, heartbeat silence, a job's or a coordinator's deadline, a
    watchdog's next check — is a callback here, so that thread's only
    blocking point is a wait with :meth:`next_timeout` as the timeout.
    Callbacks validate their subject at fire time (a job's pending
    identity, a link's generation, a watchdog's start) instead of being
    cancelled: scheduling is O(log n), with no bookkeeping.
    """

    def __init__(self, clock: Callable[[], float] = time.monotonic) -> None:
        self.clock = clock
        self._heap: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` on the owning thread ``delay`` seconds on."""
        self._seq += 1
        heapq.heappush(
            self._heap, (self.clock() + max(0.0, delay), self._seq, callback)
        )

    def next_timeout(self) -> Optional[float]:
        """Seconds until the earliest timer, ``None`` on an empty wheel."""
        if not self._heap:
            return None
        return max(0.0, self._heap[0][0] - self.clock())

    def fire_due(self) -> int:
        """Run every callback whose due time has passed; returns how many."""
        fired = 0
        while self._heap and self._heap[0][0] <= self.clock():
            _, _, callback = heapq.heappop(self._heap)
            callback()
            fired += 1
        return fired
