"""Coordinator processes (manifolds) and manners.

A **manifold** is a process whose body is a state block: it coordinates
other processes by wiring streams in reaction to event occurrences, and
performs no computation itself.  A **manner** is a parameterized
subprogram — a block executed *within the caller's process instance*,
sharing its event memory (the paper's ``ProtocolMW`` and
``Create_Worker_Pool`` are manners).

Usage sketch, mirroring ``mainprog.m``::

    def main_body(argv):
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn, argv)
            ctx.run_block(protocol_mw(master, worker_defn))
            ctx.halt()

        return block

    coordinator = Coordinator(runtime, "Main", main_body, args=(argv,))
    coordinator.activate()

A manner is simply a function returning a :class:`Block`; the caller
runs it with ``ctx.run_block(manner(...))``.
"""

from __future__ import annotations

import threading
import time
import traceback
from typing import Callable, Optional, Sequence

from .errors import ProcessError
from .events import EventMemory
from .ports import STANDARD_ERR, STANDARD_IN, STANDARD_OUT
from .process import ProcessBase
from .scheduler import Runtime
from .states import Block, BlockExit, HaltBlock, Preempted, StateContext
from .threads import start_thread

__all__ = ["Coordinator", "Manner"]

#: A manner: a callable building a block from its actual parameters.
Manner = Callable[..., Block]


class Coordinator(ProcessBase):
    """A manifold instance: runs a state block on its own thread.

    Parameters
    ----------
    body:
        Either a ready :class:`Block` or a callable ``(*args) -> Block``
        (the manifold definition; ``args`` are the manifold parameters).
    poll_interval:
        How often blocking primitives re-check non-event predicates
        (process termination, deadlines).  Purely an implementation
        knob; event arrivals wake waiters immediately.
    deadline:
        Optional wall-clock budget in seconds; exceeded ⇒ the
        coordinator fails with :class:`StateMachineError` instead of
        hanging forever (used by tests and the deadlock detector).
    """

    def __init__(
        self,
        runtime: Runtime,
        name: str,
        body: Block | Callable[..., Block],
        args: Sequence[object] = (),
        *,
        in_ports: Sequence[str] = (STANDARD_IN,),
        out_ports: Sequence[str] = (STANDARD_OUT, STANDARD_ERR),
        poll_interval: float = 0.02,
        deadline: Optional[float] = None,
    ) -> None:
        super().__init__(runtime, name, in_ports=in_ports, out_ports=out_ports)
        self._body = body
        self._args = tuple(args)
        self.event_memory = EventMemory(owner_name=name)
        self.poll_interval = poll_interval
        self._deadline_seconds = deadline
        self._deadline_at: Optional[float] = None
        self.failure_traceback: Optional[str] = None
        self._trace_lines: list[str] = []
        self._trace_lock = threading.Lock()
        runtime.subscribe(self.event_memory)
        runtime.adopt(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._deadline_seconds is not None:
            self._deadline_at = time.monotonic() + self._deadline_seconds
        start_thread(self._thread_main, self.name)

    def deadline_exceeded(self) -> bool:
        return self._deadline_at is not None and time.monotonic() > self._deadline_at

    def wait_slice(self) -> float:
        """How long a blocking primitive may sleep before it looks at
        its predicate and the deadline again."""
        if self._deadline_at is None:
            return self.poll_interval
        return max(0.0, min(self.poll_interval, self._deadline_at - time.monotonic()))

    def _thread_main(self) -> None:
        ctx = StateContext(self)
        try:
            block = self._body if isinstance(self._body, Block) else self._body(*self._args)
            ctx.run_block(block)
        except (HaltBlock, BlockExit):
            self._finish(None)
        except Preempted as exc:
            # An event unwound past the outermost block: treat the event
            # as unhandled-at-top-level and end the coordinator cleanly,
            # recording what happened for diagnostics.
            self.trace_message(
                f"top-level preemption by {exc.occurrence.event.name!r}; ending"
            )
            self._finish(None)
        except BaseException as exc:  # noqa: BLE001 - report coordinator failure
            self.failure_traceback = traceback.format_exc()
            self._finish(exc)
        else:
            self._finish(None)

    def _finish(self, failure: Optional[BaseException] = None) -> None:
        self.event_memory.close()
        self.runtime.unsubscribe(self.event_memory)
        super()._finish(failure)

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def trace_message(self, text: str) -> None:
        """Record a MES(...)-style message for tests and run traces."""
        with self._trace_lock:
            self._trace_lines.append(text)

    def trace(self) -> list[str]:
        with self._trace_lock:
            return list(self._trace_lines)


def run_application(
    runtime: Runtime,
    main: Coordinator,
    timeout: Optional[float] = None,
) -> None:
    """Activate ``main``, wait for it, then wind the application down.

    Joining *all* processes would hang on intentionally perpetual
    service processes (``void``, ``variable``); the convention — the one
    the paper's application follows — is that the main coordinator only
    finishes once every worker it is responsible for has finished, so
    joining ``main`` is the application's natural end.  Afterwards the
    runtime is shut down, unwinding any service processes, and the first
    recorded failure (coordinator or worker) is re-raised so drivers see
    worker exceptions instead of silent hangs.
    """
    main.activate()
    finished = main.join(timeout)
    failures = runtime.failures()
    runtime.shutdown()
    if not finished:
        raise ProcessError(
            f"application {runtime.name!r} did not finish within {timeout}s"
        )
    for proc in failures:
        if proc.failure is not None and not proc.failure_handled:
            raise proc.failure
