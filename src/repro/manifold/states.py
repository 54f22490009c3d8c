"""State blocks: the control structure of coordinator processes.

A MANIFOLD coordinator (or *manner*, a parameterized subprogram run in
the caller's process) is a set of **blocks**.  A block has

* a *local declaration part* — run once on entry (create local processes
  and events, declare ``save``/``ignore``/``priority``/``hold``); the
  processes it returns among its locals are ``auto`` processes, scoped
  to the block: they end when it exits;
* a set of labelled **states**; the mandatory ``begin`` state is entered
  first, as if the predefined high-priority ``begin`` event had been
  posted and taken at once;
* transition semantics: whenever an event occurrence in the process's
  event memory matches a state label, the current state is *preempted* —
  its streams are dismantled according to their BK/KK types — and the
  body of the matching state runs.

Nesting and ``save``: a state body may itself be a block.  While an
inner block is active, occurrences may be handled by the labels of any
block on the stack, innermost first — *unless* an inner block declares
``save`` (the paper's ``save *.``), which shields outer labels until the
block exits.  This is exactly the behaviour the paper narrates: the
begin state *inside* ``create_worker`` is preempted by the next
``create_worker`` occurrence, whose handling label lives one block out,
while ``Create_Worker_Pool`` itself declares ``save *`` so the caller's
labels stay dormant until the manner returns.

Where a transition runs.  A block's state bodies are generator
functions, and the block runs *inline*: protocol code owns no thread.
Its transitions run in the thread that delivers the occurrence (a
master's or worker's ``raise_event``, a ``post``) and finish before that
delivery returns.  Such a body yields its waits — ``yield ctx.idle()``,
``yield ctx.terminated(p)``, ``yield ctx.sleep_until(pred)``,
``yield ctx.run_block(inner)`` — and resumes when the wait ends; a wait
for an event ends with the next transition instead.  A wait is
re-checked on a delivery or on :meth:`EventMemory.notify`, never by a
poll.  The one other kind of block is a coordinator's top block with a
single plain ``begin`` body: the coordinator's thread runs it as
straight-line code, its waits block that thread, and a generator block
it runs holds the thread until the block halts.  A plain body makes no
transition: ``Block.state`` refuses one for any other label, and
``run_block`` refuses a plain block.

Simplification relative to the full language (documented deviation):
unconsumed occurrences always remain in the event memory — i.e. every
event behaves as if saved.  The protocol only relies on ``save`` being
at least this permissive, and the ``ignore`` declaration provides the
required garbage collection for ``death`` events.
"""

from __future__ import annotations

import inspect
import traceback
from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional

from repro.trace.recorder import emit as trace_emit

from .errors import StateMachineError
from .events import BEGIN, Event, EventMemory, EventOccurrence
from .ports import Port
from .process import AtomicDefinition, AtomicProcess, ProcessBase
from .streams import Stream, StreamType
from .wiring import wire as wire_chain

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manifold import Coordinator

__all__ = ["Block", "StateContext", "HaltBlock", "BlockExit"]

#: A label's rank in the event memory is ``depth * _DEPTH_STRIDE +
#: priority``: inner blocks dominate, then the declared priority, with
#: the predefined ``begin`` event ("high-priority") at the top of its block.
_DEPTH_STRIDE = 1_000_000
_BEGIN_PRIORITY = _DEPTH_STRIDE - 1


class HaltBlock(Exception):
    """Raised by ``ctx.halt()``: return from the current block."""


class BlockExit(Exception):
    """Internal: unwind all blocks of this coordinator (process end)."""


class Block:
    """A reusable description of one coordinator block.

    ``setup`` runs the local declaration part and returns the block's
    locals mapping (processes, counters, local events).  States are
    registered with :meth:`state`; each body is a generator function
    taking a :class:`StateContext` (the block runs inline, see the
    module docstring), or the block's one plain ``begin`` body.
    """

    def __init__(
        self,
        name: str,
        *,
        save_all: bool = False,
        ignore: Iterable[Event] = (),
        priority: Optional[Mapping[Event, int]] = None,
        setup: Optional[Callable[["StateContext"], Dict[str, object]]] = None,
    ) -> None:
        self.name = name
        self.save_all = save_all
        self.ignore = tuple(ignore)
        self.priority = dict(priority or {})
        self.setup = setup
        self._states: Dict[Event, Callable[["StateContext"], None]] = {}
        #: ``{label: declared priority}``, kept as states are registered
        self._priorities: Dict[Event, int] = {}
        #: whether the state bodies are generator functions (``None``
        #: until the first is registered)
        self.inline: Optional[bool] = None

    def state(
        self, event: Event
    ) -> Callable[[Callable[["StateContext"], None]], Callable[["StateContext"], None]]:
        """Decorator registering a state body for ``event``."""

        def register(body: Callable[["StateContext"], None]) -> Callable[["StateContext"], None]:
            if event in self._states:
                raise StateMachineError(
                    f"block {self.name!r} already has a state for {event!r}"
                )
            code = getattr(body, "__code__", None)
            inline = code is not None and bool(code.co_flags & inspect.CO_GENERATOR)
            if not inline and event != BEGIN:
                raise StateMachineError(
                    f"block {self.name!r}: state {event.name!r} is a plain "
                    "function; only a begin body may be plain"
                )
            if self.inline is None:
                self.inline = inline
            elif inline is not self.inline:
                kind = "a generator function" if inline else "a plain function"
                raise StateMachineError(
                    f"block {self.name!r} mixes generator and plain state "
                    f"bodies: state {event.name!r} is {kind}"
                )
            self._states[event] = body
            self._priorities[event] = (
                _BEGIN_PRIORITY
                if event == BEGIN
                else min(self.priority.get(event, 0), _BEGIN_PRIORITY)
            )
            return body

        return register

    def add_state(self, event: Event, body: Callable[["StateContext"], None]) -> None:
        self.state(event)(body)

    def validate(self) -> None:
        if BEGIN not in self._states:
            raise StateMachineError(
                f"block {self.name!r} has no begin state; every block must have one"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Block({self.name}, states={[e.name for e in self._states]})"


class _Frame:
    """Runtime data for one active block on the executor stack."""

    __slots__ = (
        "block", "inline", "depth", "locals", "auto", "current_streams",
        "labels", "state", "body", "until",
    )

    def __init__(self, block: Block, outer: Optional["_Frame"]) -> None:
        self.block = block
        self.inline = block.inline
        self.depth = 0 if outer is None else outer.depth + 1
        self.locals: Dict[str, object] = {}
        #: the processes the declaration part returned among its locals
        self.auto: list[ProcessBase] = []
        self.current_streams: list[Stream] = []
        #: ``{event: rank}`` of every label an occurrence can reach from
        #: this frame: innermost block first, and a ``save_all`` block
        #: shields everything beneath it on the stack
        self.labels: Dict[Event, int] = (
            {} if outer is None or block.save_all else dict(outer.labels)
        )
        base = self.depth * _DEPTH_STRIDE
        for event, priority in block._priorities.items():
            self.labels[event] = base + priority
        #: the label of the current state
        self.state = BEGIN
        #: the current state's generator, while it can resume (inline)
        self.body = None
        #: what the suspended body waits for besides an event (inline)
        self.until: Optional[Callable[[], bool]] = None


class _Wait:
    """What a generator body yields: a predicate to wait for, or a block
    to run (neither: ``idle``)."""

    __slots__ = ("until", "block")

    def __init__(self, until: Optional[Callable[[], bool]], block: Optional[Block]) -> None:
        self.until = until
        self.block = block


_IDLE = _Wait(None, None)


class StateContext:
    """The toolbox handed to state bodies and block setups.

    One context exists per coordinator; ``frame`` tracks the innermost
    active block.  All primitives of the paper's protocol source are
    available: process creation, stream connection with explicit types,
    ``post``, ``raise``, ``terminated``, IDLE, ``halt`` and nested block
    entry (for states whose body is itself a block).  In a generator
    body the blocking primitives return what the body yields.
    """

    def __init__(self, coordinator: "Coordinator") -> None:
        self.coordinator = coordinator
        self._stack: list[_Frame] = []
        #: the occurrence that caused the transition into the currently
        #: executing state (None in a begin state, which is entered
        #: directly); lets state bodies react to the event's source,
        #: MANIFOLD's ``e.p`` label form
        self.current_occurrence: Optional[EventOccurrence] = None
        #: a wait a generator body was handed and has not yielded yet
        self._unyielded: Optional[_Wait] = None
        #: why the inline blocks must be torn down (a failure)
        self._stop: Optional[BaseException] = None
        #: how the inline blocks ended (``HaltBlock`` when they returned);
        #: handed to the thread waiting for them
        self._ended: Optional[BaseException] = None
        #: whether a thread waits for the inline blocks to end; if none
        #: does, they are the coordinator's and their end is its end
        self._waited = False

    # ------------------------------------------------------------------
    # stack introspection
    # ------------------------------------------------------------------
    @property
    def frame(self) -> _Frame:
        if not self._stack:
            raise StateMachineError("no active block")
        return self._stack[-1]

    @property
    def locals(self) -> Dict[str, object]:
        return self.frame.locals

    def local(self, name: str) -> object:
        """Look a name up through the block stack, innermost first."""
        for frame in reversed(self._stack):
            if name in frame.locals:
                return frame.locals[name]
        raise KeyError(name)

    @property
    def memory(self) -> EventMemory:
        return self.coordinator.event_memory

    # ------------------------------------------------------------------
    # process management
    # ------------------------------------------------------------------
    def create(
        self, definition: AtomicDefinition, *args: object, **kwargs: object
    ) -> AtomicProcess:
        """``process p is P(args)``: create without activating."""
        return self.coordinator.runtime.create(definition, *args, **kwargs)

    def spawn(
        self, definition: AtomicDefinition, *args: object, **kwargs: object
    ) -> AtomicProcess:
        """Create and activate in one step (``auto process`` declaration)."""
        return self.coordinator.runtime.spawn(definition, *args, **kwargs)

    # ------------------------------------------------------------------
    # stream wiring
    # ------------------------------------------------------------------
    def connect(
        self,
        source: Port,
        sink: Port,
        type: StreamType = StreamType.BK,
        name: str = "",
    ) -> Stream:
        """Set up a stream between two ports of *other* processes.

        The stream is recorded against the current state and dismantled
        (per its type) when the state is preempted or exited.
        """
        stream = Stream(type, name=name).connect(source, sink)
        self.frame.current_streams.append(stream)
        return stream

    def send(
        self,
        payload: object,
        sink: Port,
        type: StreamType = StreamType.BK,
        name: str = "",
    ) -> Stream:
        """Deliver a literal unit to a port (``value -> p``), e.g. the
        ``&worker -> master`` reference transfer of the protocol."""
        stream = Stream.literal(payload, sink, type=type, name=name)
        self.frame.current_streams.append(stream)
        return stream

    def wire(
        self,
        spec: str,
        env,
        types=None,
    ) -> list[Stream]:
        """Realize a MANIFOLD-style stream chain, e.g.

        ``ctx.wire("&worker -> master -> worker -> master.dataport",
        env={...}, types={2: StreamType.KK})``.

        See :mod:`repro.manifold.wiring` for the notation.
        """
        return wire_chain(self, spec, env, types)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def post(self, event: Event) -> None:
        """Post into this coordinator's own event memory."""
        self.memory.post(event, source=self.coordinator)

    def raise_event(self, event: Event) -> None:
        """Broadcast to every observer (MANIFOLD ``raise``)."""
        self.coordinator.raise_event(event)

    # ------------------------------------------------------------------
    # waits (all preemptible)
    # ------------------------------------------------------------------
    def idle(self):
        """``terminated(void)``: stay in the state until an event preempts it."""
        return self._wait(None)

    def terminated(self, proc: ProcessBase):
        """Wait until ``proc`` terminates, unless an event preempts first."""
        return self._wait(proc.is_terminated)

    def sleep_until(self, predicate: Callable[[], bool]):
        """Wait until ``predicate`` is true, unless preempted."""
        return self._wait(predicate)

    def _wait(self, until: Optional[Callable[[], bool]]):
        """In a generator body, the wait to yield.  In a plain ``begin``,
        block until ``until`` holds (``idle``: until the memory closes
        or the deadline passes); a delivery or ``notify`` re-checks it."""
        frame = self.frame
        if frame.inline:
            return self._handed(frame, _IDLE if until is None else _Wait(until, None))
        memory, coordinator = self.memory, self.coordinator
        woken = lambda: coordinator._late or (until is not None and until())  # noqa: E731
        while until is None or not until():
            if memory.closed:
                # runtime shutdown: unwind the coordinator's block
                raise BlockExit()
            if coordinator._late is not None:
                raise coordinator._late
            memory.wait_for_match({}, extra_predicate=woken)

    def halt(self) -> None:
        """Return from the current block (MANIFOLD ``halt``).  It raises
        at once; a generator body whose only act is to halt may write
        ``yield ctx.halt()`` to be a generator."""
        raise HaltBlock()

    def _handed(self, frame: _Frame, wait: _Wait) -> _Wait:
        if self._unyielded is not None:
            raise self._misuse(frame)
        self._unyielded = wait
        return wait

    def _misuse(self, frame: _Frame) -> StateMachineError:
        self._unyielded = None
        return StateMachineError(
            f"block {frame.block.name!r}, state {frame.state.name!r}: a "
            "generator body must yield each wait it calls, and yield only those"
        )

    # ------------------------------------------------------------------
    # nested blocks / manners
    # ------------------------------------------------------------------
    def run_block(self, block: Block):
        """Run a nested generator block (a state body that is itself a
        block, or a manner's body) to completion within this coordinator.
        In a generator body, the wait to yield; in a plain ``begin``, the
        coordinator's thread waits until the block halts."""
        block.validate()
        if not block.inline:
            raise StateMachineError(
                f"block {block.name!r} has a plain body; only a coordinator "
                "runs such a block, as its top block"
            )
        if self._stack and self._stack[-1].inline:
            return self._handed(self._stack[-1], _Wait(None, block))
        self._enter_inline(block, waited=True)
        self._await_inline()

    def _run_plain(self, block: Block) -> None:
        """A coordinator's plain top block: its ``begin`` body, straight-
        line on the coordinator's thread; a body that returns stays in
        ``begin`` until the memory closes or the deadline passes."""
        frame = self._push(block)
        try:
            block._states[BEGIN](self)
            self.idle()
        finally:
            self._pop(frame)

    def _push(self, block: Block) -> _Frame:
        """Enter a block: its declaration part, then (inline) its begin
        state's body, ready to run."""
        frame = _Frame(block, self._stack[-1] if self._stack else None)
        self._stack.append(frame)
        try:
            if block.setup is not None:
                declared = block.setup(self) or {}
                frame.locals.update(declared)
                frame.auto = [
                    proc for proc in declared.values() if isinstance(proc, ProcessBase)
                ]
        except BaseException:
            self._pop(frame)
            raise
        if frame.inline:
            self.current_occurrence = None
            frame.body = block._states[BEGIN](self)
        return frame

    def _pop(self, frame: _Frame) -> None:
        """Leave a block: end its state body, dismantle its streams, end
        its ``auto`` processes — before the ``ignore`` discard, so their
        ``death`` occurrences go with the others — and pop it."""
        try:
            self._leave_state(frame)
            for proc in frame.auto:
                proc.kill()
            if frame.block.ignore:
                self.memory.discard(frame.block.ignore)
        finally:
            self._stack.pop()

    def _leave_state(self, frame: _Frame) -> None:
        """End the state's body and dismantle its streams."""
        if frame.body is not None:
            body, frame.body = frame.body, None
            body.close()
        frame.until = None
        streams, frame.current_streams = frame.current_streams, []
        for stream in streams:
            stream.dismantle()

    def _transition(
        self, frame: _Frame, event: Event, occ: Optional[EventOccurrence]
    ) -> None:
        """The one transition routine: leave the blocks above ``frame``
        and its current state, then run the body labelled ``event`` until
        its first wait."""
        while self._stack[-1] is not frame:
            self._pop(self._stack[-1])
        self._leave_state(frame)
        frame.state = event
        self.current_occurrence = occ
        frame.body = frame.block._states[event](self)
        self._run(frame)

    # ------------------------------------------------------------------
    # inline blocks
    # ------------------------------------------------------------------
    def _run(self, frame: _Frame) -> None:
        """Resume ``frame``'s body until it waits, entering the blocks it
        runs and resuming the bodies that ran the blocks it halts."""
        while True:
            try:
                wait = frame.body.send(None)
            except (StopIteration, HaltBlock) as end:
                frame.body = None
                if self._unyielded is not None:
                    raise self._misuse(frame) from None
                if isinstance(end, StopIteration):
                    return  # the state stays, waiting for an event
                self._pop(frame)
                if not (self._stack and self._stack[-1].inline):
                    self._ended = HaltBlock()
                    return
                frame = self._stack[-1]
                continue
            if wait is None or wait is not self._unyielded:
                raise self._misuse(frame)
            self._unyielded = None
            if wait.block is None:
                frame.until = wait.until
                return
            frame = self._push(wait.block)

    def _enter_inline(self, block: Block, waited: bool) -> None:
        """Take the driving flag, enter ``block`` (its begin state runs in
        the calling thread) and drive until nothing is left to do."""
        memory = self.memory
        with memory._lock:
            memory._driver = self
            memory._driving = True
        self._waited, self._stop = waited, None
        try:
            self._run(self._push(block))
        except BaseException as exc:  # fails the coordinator; see _drive
            self._fail(exc)
            if not isinstance(exc, Exception):
                self._drive()
                raise
        self._drive()

    def _wants(self, event: Event) -> bool:
        """Whether a delivery of ``event`` gives the idle inline blocks
        something to do (called under the memory's lock)."""
        frame = self._stack[-1]
        return event in frame.labels or frame.until is not None

    def _drive(self) -> None:
        """Run the inline blocks' transitions in the calling thread, which
        holds the memory's driving flag, until none is left; then give
        the flag back under the lock that decided it."""
        memory = self.memory
        interrupt = None
        while True:
            with memory._lock:
                if self._ended is not None:
                    memory._driver = None
                    memory._driving = False
                    waited = self._waited
                    if waited:
                        memory._cond.notify_all()
                    break
                stop = self._stop or self.coordinator._late
                if stop is None and memory._closed:
                    stop = BlockExit()
                if stop is None:
                    frame = self._stack[-1]
                    occ = memory._take_match_locked(frame.labels)
                    if occ is None and (frame.until is None or not frame.until()):
                        memory._driving = False
                        return
            try:
                if stop is not None:
                    self._end_inline(stop)
                elif occ is None:
                    frame.until = None
                    self._run(frame)
                else:
                    # a plain frame's only label, begin, is shadowed by
                    # every inline block's own: the target runs inline
                    target = self._stack[frame.labels[occ.event] // _DEPTH_STRIDE]
                    self._transition(target, occ.event, occ)
            except BaseException as exc:  # fails the coordinator; re-raised below
                self._ended = None  # tear down again, for the failure
                self._fail(exc)
                if not isinstance(exc, Exception):
                    interrupt = exc
        if not waited:
            ended, self._ended = self._ended, None
            failure = None if isinstance(ended, (HaltBlock, BlockExit)) else ended
            self.coordinator._finish(failure)
        if interrupt is not None:
            raise interrupt  # an interrupt or exit belongs to the driving thread

    def _end_inline(self, result: BaseException) -> None:
        """Leave every inline block, innermost first; ``result`` is what
        the thread waiting for them gets."""
        self._ended = result
        while self._stack and self._stack[-1].inline:
            self._pop(self._stack[-1])

    def _fail(self, exc: BaseException) -> None:
        """A body failed: the first failure is the coordinator's."""
        if self._stop is None:
            self.coordinator.failure_traceback = traceback.format_exc()
            self._stop = exc

    def _await_inline(self) -> None:
        """Wait until the inline blocks end: return when they halt, raise
        anything else.  Whichever thread drives ends them (on a failure,
        the close, :meth:`Coordinator.expire`) and wakes this one."""
        memory = self.memory
        with memory._lock:
            while self._ended is None or memory._driving:
                memory._cond.wait()
            ended, self._ended = self._ended, None
        if not isinstance(ended, HaltBlock):
            raise ended

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def message(self, text: str) -> None:
        """MES(...) equivalent: a ``manifold_message`` trace event
        attributed to the coordinator."""
        trace_emit("manifold_message", worker=self.coordinator.name, text=text)
