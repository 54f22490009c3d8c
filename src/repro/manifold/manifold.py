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
            yield ctx.run_block(protocol_mw(master, worker_defn))
            yield ctx.halt()

        return block

    coordinator = Coordinator(runtime, "Main", main_body, args=(argv,))
    coordinator.activate()

A manner is simply a function returning a :class:`Block`; the caller
runs it with ``yield ctx.run_block(manner(...))``.
"""

from __future__ import annotations

import functools
import traceback
from typing import Callable, Optional, Sequence

from .errors import ProcessError, StateMachineError
from .events import EventMemory
from .ports import STANDARD_ERR, STANDARD_IN, STANDARD_OUT
from .process import ProcessBase
from .scheduler import Runtime
from .states import Block, BlockExit, HaltBlock, StateContext
from .threads import start_thread
from .timers import TimerWheel

__all__ = ["Coordinator", "Manner"]

#: A manner: a callable building a block from its actual parameters.
Manner = Callable[..., Block]


class Coordinator(ProcessBase):
    """A manifold instance: runs a state block.

    A block of generator bodies runs inline (:mod:`repro.manifold.states`):
    :meth:`activate` enters its ``begin`` state before it returns, and
    later transitions run in the threads that deliver the events; the
    coordinator keeps no thread.  A block whose one state is a plain
    ``begin`` body runs that body as straight-line code on the
    coordinator's own thread.  No wait polls: a predicate that changes
    with no event needs :meth:`EventMemory.notify`.

    Parameters
    ----------
    body:
        Either a ready :class:`Block` or a callable ``(*args) -> Block``
        (the manifold definition; ``args`` are the manifold parameters).
    deadline:
        Optional wall-clock budget in seconds; exceeded ⇒ the
        coordinator fails with :class:`StateMachineError` instead of
        hanging forever; the thread in :func:`run_application` enforces
        it (:meth:`expire`), and no other thread watches the time.
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
        deadline: Optional[float] = None,
    ) -> None:
        super().__init__(runtime, name, in_ports=in_ports, out_ports=out_ports)
        self._body = body
        self._args = tuple(args)
        self.event_memory = EventMemory(owner_name=name)
        self._deadline_seconds = deadline
        #: what the coordinator's waits raise once :meth:`expire` ran
        self._late: Optional[StateMachineError] = None
        self.failure_traceback: Optional[str] = None
        runtime.subscribe(self.event_memory)
        runtime.adopt(self)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _start(self) -> None:
        if self._deadline_seconds is not None:
            self.runtime.after(self._deadline_seconds, self.expire)
        ctx = StateContext(self)
        try:
            block = self._body if isinstance(self._body, Block) else self._body(*self._args)
            block.validate()
        except Exception as exc:  # noqa: BLE001 - report coordinator failure
            self.failure_traceback = traceback.format_exc()
            self._finish(exc)
            return
        if block.inline:
            ctx._enter_inline(block, waited=False)  # begin runs here
        else:
            start_thread(functools.partial(self._thread_main, ctx, block), self.name)

    def expire(self) -> None:
        """Fail as a passed ``deadline`` does: the waits raise, and the
        inline blocks are torn down here if no other thread drives them."""
        self._late = StateMachineError(f"{self.name} exceeded its deadline while waiting")
        self.event_memory.notify()

    def _thread_main(self, ctx: StateContext, block: Block) -> None:
        try:
            ctx._run_plain(block)
        except (HaltBlock, BlockExit):
            self._finish(None)
        except BaseException as exc:  # noqa: BLE001 - report coordinator failure
            if self.failure_traceback is None:  # else an inline body's, kept
                self.failure_traceback = traceback.format_exc()
            self._finish(exc)
        else:
            self._finish(None)

    def _finish(self, failure: Optional[BaseException] = None) -> None:
        self.event_memory.close()
        self.runtime.unsubscribe(self.event_memory)
        super()._finish(failure)
        self.runtime.wake()  # run_application waits for its main coordinator


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
    waiting for ``main`` is the application's natural end.  The waiting
    thread fires ``timeout``, every ``deadline`` and every started
    ``Watchdog``'s checks as timers (:meth:`Runtime.serve`).  Afterwards
    the runtime is shut down, unwinding any service processes, and the
    first recorded failure (coordinator or worker) is re-raised so
    drivers see worker exceptions instead of silent hangs.
    """
    main.activate()
    wheel, expired = TimerWheel(), []
    if timeout is not None:
        wheel.schedule(timeout, functools.partial(expired.append, True))
    runtime.serve(wheel, lambda: bool(expired) or main.is_terminated())
    finished = main.is_terminated()
    failures = runtime.failures()
    runtime.shutdown()
    if not finished:
        raise ProcessError(
            f"application {runtime.name!r} did not finish within {timeout}s"
        )
    for proc in failures:
        if proc.failure is not None and not proc.failure_handled:
            raise proc.failure
