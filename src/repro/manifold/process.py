"""Process instances: the workers and coordinators of an IWIM application.

A *process instance* is the unit of activity.  Following the paper:

* **Atomic (worker) processes** perform computation only.  They read
  from their own input ports, write to their own output ports, and raise
  events — they know nothing about who is connected to them.  Atomic
  processes here are plain Python callables, each run on a thread of
  its own (:mod:`repro.manifold.threads`).
* **Coordinator processes** (manifolds, :mod:`repro.manifold.manifold`)
  do no computation; they react to event occurrences by rewiring streams
  between other processes' ports.

Both kinds share this module's :class:`ProcessBase` lifecycle: *created*
→ *active* → *terminated* (or *failed*).  On termination the runtime
broadcasts the predefined ``death`` event with the process as source,
which is what the protocol's ``ignore death`` declaration refers to.
"""

from __future__ import annotations

import enum
import itertools
import threading
import traceback
from typing import TYPE_CHECKING, Callable, Mapping, Optional, Sequence

from .errors import PortError, ProcessError
from .events import Event, EventOccurrence
from .ports import Port, PortDirection, STANDARD_ERR, STANDARD_IN, STANDARD_OUT
from .threads import start_thread
from .units import ProcessReference

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .scheduler import Runtime

__all__ = [
    "ProcessState",
    "ProcessBase",
    "AtomicProcess",
    "AtomicDefinition",
    "DEATH",
]

#: Predefined event broadcast by the runtime when any process dies.
DEATH = Event("death")

_instance_counter = itertools.count()


class ProcessState(enum.Enum):
    CREATED = "created"
    ACTIVE = "active"
    TERMINATED = "terminated"
    FAILED = "failed"

    @property
    def is_final(self) -> bool:
        return self in (ProcessState.TERMINATED, ProcessState.FAILED)


class ProcessBase:
    """Common lifecycle, ports and event-raising for all process kinds."""

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        *,
        in_ports: Sequence[str] = (STANDARD_IN,),
        out_ports: Sequence[str] = (STANDARD_OUT, STANDARD_ERR),
    ) -> None:
        self.runtime = runtime
        self.instance_id = next(_instance_counter)
        self.name = f"{name}#{self.instance_id}"
        self.definition_name = name
        self._state = ProcessState.CREATED
        self._state_lock = threading.Lock()
        #: set once the ports are interrupted; ``_joined`` is made by the
        #: first :meth:`join`, as most processes are never joined
        self._terminated = False
        self._joined: Optional[threading.Condition] = None
        self._failure: Optional[BaseException] = None
        #: set by a supervisor when it converts this process's failure
        #: into protocol-visible units; handled failures are not
        #: re-raised by drivers
        self.failure_handled = False
        self.ports: dict[str, Port] = {}
        for pname in in_ports:
            self.ports[pname] = Port(self, pname, PortDirection.IN)
        for pname in out_ports:
            if pname in self.ports:
                raise ProcessError(f"duplicate port name {pname!r} on {name}")
            self.ports[pname] = Port(self, pname, PortDirection.OUT)
        #: task instance this process is bundled into (set by MLINK stage)
        self.task_instance = None

    # ------------------------------------------------------------------
    # ports
    # ------------------------------------------------------------------
    def port(self, name: str) -> Port:
        try:
            return self.ports[name]
        except KeyError:
            raise PortError(f"{self.name} has no port named {name!r}") from None

    @property
    def input(self) -> Port:
        return self.port(STANDARD_IN)

    @property
    def output(self) -> Port:
        return self.port(STANDARD_OUT)

    @property
    def error(self) -> Port:
        return self.port(STANDARD_ERR)

    def read(self, port: str = STANDARD_IN, timeout: Optional[float] = None) -> object:
        """Read one unit payload from one of this process's input ports."""
        return self.port(port).read(timeout=timeout)

    def write(
        self, payload: object, port: str = STANDARD_OUT, timeout: Optional[float] = None
    ) -> None:
        """Write one unit to one of this process's output ports."""
        self.port(port).write(payload, timeout=timeout)

    def reference(self) -> ProcessReference:
        """The ``&p`` value for this process."""
        return ProcessReference(self)

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def raise_event(self, event: Event) -> EventOccurrence:
        """Broadcast ``event`` with this process as source."""
        occurrence = EventOccurrence(event, self)
        self.runtime.broadcast(occurrence)
        return occurrence

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def state(self) -> ProcessState:
        with self._state_lock:
            return self._state

    @property
    def failure(self) -> Optional[BaseException]:
        return self._failure

    def is_terminated(self) -> bool:
        return self._terminated

    def activate(self) -> "ProcessBase":
        """Start the process; idempotent activation is an error."""
        with self._state_lock:
            if self._state is not ProcessState.CREATED:
                raise ProcessError(f"{self.name} already activated ({self._state})")
            self._state = ProcessState.ACTIVE
        self.runtime.register_active(self)
        self._start()
        return self

    def _start(self) -> None:
        raise NotImplementedError

    def _finish(self, failure: Optional[BaseException] = None) -> None:
        with self._state_lock:
            if self._state.is_final:
                return
            self._failure = failure
            self._state = (
                ProcessState.FAILED if failure is not None else ProcessState.TERMINATED
            )
        for port in self.ports.values():
            port.interrupt()
        with self._state_lock:
            self._terminated = True
            if self._joined is not None:
                self._joined.notify_all()
        self.runtime.on_process_death(self)

    def join(self, timeout: Optional[float] = None) -> bool:
        """Wait for the process to reach a final state."""
        with self._state_lock:
            if self._terminated:
                return True
            if self._joined is None:
                self._joined = threading.Condition(self._state_lock)
            return self._joined.wait_for(self.is_terminated, timeout)

    def interrupt(self) -> None:
        """Make every blocking port call of the process raise (runtime
        shutdown): its thread unwinds at its next port operation."""
        for port in self.ports.values():
            port.interrupt()

    def kill(self) -> None:
        """Forcefully mark the process finished and interrupt its ports.

        The underlying thread unwinds at its next port operation; pure
        computation between port operations cannot be interrupted (the
        same is true of a POSIX thread busy in a C kernel).
        """
        self._finish(failure=None)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<{type(self).__name__} {self.name} {self.state.value}>"


class AtomicProcess(ProcessBase):
    """A non-compliant computation process wrapped for the runtime.

    ``body`` is any callable taking the process instance as its single
    argument.  It may use :meth:`read`, :meth:`write` and
    :meth:`raise_event`, exactly the surface the paper's "special ANSI C
    interface library" gives the wrapped legacy routines.
    """

    def __init__(
        self,
        runtime: "Runtime",
        name: str,
        body: Callable[["AtomicProcess"], None],
        args: tuple = (),
        kwargs: Optional[Mapping[str, object]] = None,
        *,
        in_ports: Sequence[str] = (STANDARD_IN,),
        out_ports: Sequence[str] = (STANDARD_OUT, STANDARD_ERR),
    ) -> None:
        super().__init__(runtime, name, in_ports=in_ports, out_ports=out_ports)
        self._body = body
        self._args = tuple(args)
        self._kwargs = dict(kwargs or {})
        #: last traceback text on failure, for diagnostics
        self.failure_traceback: Optional[str] = None

    @property
    def parameters(self) -> tuple:
        """Positional parameters the instance was created with."""
        return self._args

    def _start(self) -> None:
        start_thread(self._thread_main, self.name)

    def _thread_main(self) -> None:
        try:
            self._body(self, *self._args, **self._kwargs)
        except PortError:
            # Interrupted during shutdown/kill: a clean unwind, not a failure.
            self._finish(None)
        except BaseException as exc:  # noqa: BLE001 - report any worker failure
            self.failure_traceback = traceback.format_exc()
            self._finish(exc)
        else:
            self._finish(None)


class AtomicDefinition:
    """A reusable atomic-process definition (``manifold Worker(event) atomic.``).

    Instantiating a definition yields a fresh, not-yet-activated
    :class:`AtomicProcess`; the positional arguments play the role of
    the manifold parameters (the worker receives its ``death_worker``
    event this way).
    """

    def __init__(
        self,
        name: str,
        body: Callable[..., None],
        *,
        in_ports: Sequence[str] = (STANDARD_IN,),
        out_ports: Sequence[str] = (STANDARD_OUT, STANDARD_ERR),
    ) -> None:
        self.name = name
        self.body = body
        self.in_ports = tuple(in_ports)
        self.out_ports = tuple(out_ports)

    def instantiate(
        self,
        runtime: "Runtime",
        *args: object,
        **kwargs: object,
    ) -> AtomicProcess:
        return AtomicProcess(
            runtime,
            self.name,
            self.body,
            args=args,
            kwargs=kwargs,
            in_ports=self.in_ports,
            out_ports=self.out_ports,
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"AtomicDefinition({self.name})"
