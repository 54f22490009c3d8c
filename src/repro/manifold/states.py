"""State blocks: the control structure of coordinator processes.

A MANIFOLD coordinator (or *manner*, a parameterized subprogram run in
the caller's process) is a set of **blocks**.  A block has

* a *local declaration part* — run once on entry (create local processes
  and events, declare ``save``/``ignore``/``priority``/``hold``);
* a set of labelled **states**; upon entry the runtime posts the
  predefined high-priority ``begin`` event, so the mandatory ``begin``
  state is always visited first;
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

Simplification relative to the full language (documented deviation):
unconsumed occurrences always remain in the event memory — i.e. every
event behaves as if saved.  The protocol only relies on ``save`` being
at least this permissive, and the ``ignore`` declaration provides the
required garbage collection for ``death`` events.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Dict, Iterable, Mapping, Optional

from .errors import StateMachineError
from .events import BEGIN, Event, EventMemory, EventOccurrence
from .ports import Port
from .process import AtomicDefinition, AtomicProcess, ProcessBase
from .streams import Stream, StreamType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .manifold import Coordinator

__all__ = ["Block", "StateContext", "Preempted", "HaltBlock", "BlockExit"]

#: A label's rank in the event memory is ``depth * _DEPTH_STRIDE +
#: priority``: inner blocks dominate, then the declared priority, with
#: the predefined ``begin`` event ("high-priority") at the top of its block.
_DEPTH_STRIDE = 1_000_000
_BEGIN_PRIORITY = _DEPTH_STRIDE - 1


class Preempted(Exception):
    """Raised inside a blocking primitive when a matching event arrives.

    ``depth`` is the block-stack depth whose label matched; executors at
    deeper levels unwind (dismantling their streams) and re-raise until
    the owning executor catches it and performs the transition.
    """

    def __init__(self, occurrence: EventOccurrence, depth: int) -> None:
        super().__init__(occurrence.event.name)
        self.occurrence = occurrence
        self.depth = depth


class HaltBlock(Exception):
    """Raised by ``ctx.halt()``: return from the current block."""


class BlockExit(Exception):
    """Internal: unwind all blocks of this coordinator (process end)."""


class Block:
    """A reusable description of one coordinator block.

    ``setup`` runs the local declaration part and returns the block's
    locals mapping (processes, counters, local events).  States are
    registered with :meth:`state`; each body is a callable taking a
    :class:`StateContext`.
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

    def state(
        self, event: Event
    ) -> Callable[[Callable[["StateContext"], None]], Callable[["StateContext"], None]]:
        """Decorator registering a state body for ``event``."""

        def register(body: Callable[["StateContext"], None]) -> Callable[["StateContext"], None]:
            if event in self._states:
                raise StateMachineError(
                    f"block {self.name!r} already has a state for {event!r}"
                )
            self._states[event] = body
            return body

        return register

    def add_state(self, event: Event, body: Callable[["StateContext"], None]) -> None:
        self.state(event)(body)

    @property
    def states(self) -> Dict[Event, Callable[["StateContext"], None]]:
        return dict(self._states)

    def label_priorities(self) -> Dict[Event, int]:
        """The declared priority of every state label of this block."""
        priorities = {
            event: min(self.priority.get(event, 0), _BEGIN_PRIORITY)
            for event in self._states
        }
        if BEGIN in priorities:
            priorities[BEGIN] = _BEGIN_PRIORITY
        return priorities

    def validate(self) -> None:
        if BEGIN not in self._states:
            raise StateMachineError(
                f"block {self.name!r} has no begin state; every block must have one"
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Block({self.name}, states={[e.name for e in self._states]})"


class _Frame:
    """Runtime data for one active block on the executor stack."""

    def __init__(self, block: Block, outer: Optional["_Frame"]) -> None:
        self.block = block
        self.depth = 0 if outer is None else outer.depth + 1
        self.locals: Dict[str, object] = {}
        self.current_streams: list[Stream] = []
        #: ``{event: rank}`` of every label an occurrence can reach from
        #: this frame: innermost block first, and a ``save_all`` block
        #: shields everything beneath it on the stack
        self.labels: Dict[Event, int] = (
            {} if outer is None or block.save_all else dict(outer.labels)
        )
        for event, priority in block.label_priorities().items():
            self.labels[event] = self.depth * _DEPTH_STRIDE + priority


class StateContext:
    """The toolbox handed to state bodies and block setups.

    One context exists per coordinator; ``frame`` tracks the innermost
    active block.  All primitives of the paper's protocol source are
    available: process creation, stream connection with explicit types,
    ``post``, ``raise``, ``terminated``, IDLE, ``halt`` and nested block
    entry (for states whose body is itself a block).
    """

    def __init__(self, coordinator: "Coordinator") -> None:
        self.coordinator = coordinator
        self._stack: list[_Frame] = []
        self._halt_requested = False
        #: the occurrence that caused the transition into the currently
        #: executing state (None while in a begin state entered via the
        #: automatic runtime posting); lets state bodies react to the
        #: event's source, MANIFOLD's ``e.p`` label form
        self.current_occurrence: Optional[EventOccurrence] = None

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
        from .wiring import wire as _wire

        return _wire(self, spec, env, types)

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
    # blocking primitives (all preemptible)
    # ------------------------------------------------------------------
    def idle(self) -> None:
        """``terminated(void)``: block until an event preempts the state."""
        self._wait(None)
        raise StateMachineError("idle() returned without preemption")  # pragma: no cover

    def terminated(self, proc: ProcessBase) -> None:
        """Block until ``proc`` terminates, unless an event preempts first."""
        self._wait(proc.is_terminated)

    def sleep_until(self, predicate: Callable[[], bool]) -> None:
        """Block until ``predicate`` is true, unless preempted."""
        self._wait(predicate)

    def _wait(self, predicate: Optional[Callable[[], bool]]) -> None:
        """Shared wait: returns normally when ``predicate`` fires, raises
        :class:`Preempted` when a matching event occurrence arrives."""
        labels = self.frame.labels
        while True:
            if self.memory.closed:
                # runtime shutdown: unwind all blocks of this coordinator
                raise BlockExit()
            if self.coordinator.deadline_exceeded():
                raise StateMachineError(
                    f"{self.coordinator.name} exceeded its deadline while waiting"
                )
            occ = self.memory.wait_for_match(
                labels, timeout=self.coordinator.wait_slice(), extra_predicate=predicate
            )
            if occ is not None:
                raise Preempted(occ, depth=labels[occ.event] // _DEPTH_STRIDE)
            if predicate is not None and predicate():
                return

    def halt(self) -> None:
        """Return from the current block (MANIFOLD ``halt``)."""
        raise HaltBlock()

    # ------------------------------------------------------------------
    # nested blocks / manners
    # ------------------------------------------------------------------
    def run_block(self, block: Block) -> None:
        """Run a nested block (a state body that is itself a block, or a
        manner's body) to completion within this coordinator."""
        block.validate()
        frame = _Frame(block, self._stack[-1] if self._stack else None)
        self._stack.append(frame)
        try:
            if block.setup is not None:
                frame.locals.update(block.setup(self) or {})
            # the runtime posts the predefined high-priority begin event
            self.post(BEGIN)
            self._event_loop(frame)
        finally:
            self._dismantle_current(frame)
            if block.ignore:
                self.memory.discard(block.ignore)
            self._stack.pop()

    def _event_loop(self, frame: _Frame) -> None:
        pending_occ: Optional[EventOccurrence] = None
        while True:
            if pending_occ is None:
                occ = self._wait_for_transition(frame)
            else:
                occ, pending_occ = pending_occ, None
            body = frame.block.states[occ.event]
            self._dismantle_current(frame)
            self.current_occurrence = occ
            try:
                body(self)
            except Preempted as p:
                if p.depth != frame.depth:
                    raise  # outer block's label matched: unwind further
                pending_occ = p.occurrence
            except HaltBlock:
                return

    def _wait_for_transition(self, frame: _Frame) -> EventOccurrence:
        """Between states: wait until *some* visible label matches."""
        try:
            self.idle()
        except Preempted as p:
            if p.depth != frame.depth:
                self._dismantle_current(frame)
                raise
            return p.occurrence
        raise StateMachineError("unreachable")  # pragma: no cover

    def _dismantle_current(self, frame: _Frame) -> None:
        streams, frame.current_streams = frame.current_streams, []
        for stream in streams:
            stream.dismantle()

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def message(self, text: str) -> None:
        """MES(...) equivalent: a trace line attributed to the coordinator."""
        self.coordinator.trace_message(text)
