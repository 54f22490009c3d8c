"""Built-in and predefined processes of the MANIFOLD library.

The paper's protocol uses two of these directly:

* ``variable`` — MANIFOLD has no data structures, "not even the simplest
  kind, a variable"; a variable is a *process* holding the last unit
  written to it.  ``Create_Worker_Pool`` counts created workers (`now`)
  and dead workers (`t`) with two variable instances.
* ``void`` — the special predefined process that never terminates;
  ``terminated(void)`` is the idiom for IDLE.

We also provide the conventional ``sink`` (swallows all input) and
``printer`` (logs every unit) processes, which are handy in examples and
tests.
"""

from __future__ import annotations

import threading
from typing import Callable, Optional

from .process import AtomicDefinition, AtomicProcess, ProcessState
from .scheduler import Runtime

__all__ = [
    "Variable",
    "make_variable",
    "make_void",
    "make_sink",
    "make_printer",
    "VOID_DEFINITION",
]


class Variable(AtomicProcess):
    """A process-that-is-a-variable.

    The canonical protocol usage is through the thread-safe value
    interface (:meth:`get`, :meth:`set`, :meth:`increment`); the port
    interface is also live: any unit written into the variable's input
    port replaces the value, and the variable echoes each new value on
    its output port when connected, so streams can observe updates.

    The port is served by a thread that starts with the first stream
    attached to the input port (or at activation, if one was attached
    before).  Until then the variable is an active process with no
    thread: ``kill`` ends it as it would end the thread, and so does
    runtime shutdown.  A pool's ``now`` and ``t`` are never wired.
    """

    def __init__(self, runtime: Runtime, name: str, initial: object = None) -> None:
        super().__init__(runtime, name, _variable_body)
        self._value = initial
        self._value_lock = threading.Lock()
        #: whether the port-serving thread was started
        self._serving = False
        self.input.on_attach = self._serve

    def _start(self) -> None:
        if self.input.attached_streams():
            self._serve()

    def _serve(self) -> None:
        """Start the port-serving thread, once, while the variable is active."""
        with self._state_lock:
            if self._serving or self._state is not ProcessState.ACTIVE:
                return
            self._serving = True
        super()._start()

    def interrupt(self) -> None:
        super().interrupt()
        if not self._serving:  # no thread to unwind: end here, as it would
            self._finish(None)

    def get(self) -> object:
        with self._value_lock:
            return self._value

    def set(self, value: object) -> None:
        with self._value_lock:
            self._value = value

    def increment(self, delta: int = 1) -> int:
        """Atomic add (counting workers); returns the new value."""
        with self._value_lock:
            self._value = (self._value or 0) + delta
            return self._value


def _variable_body(proc: AtomicProcess) -> None:
    # Serve the port interface until interrupted at shutdown.
    assert isinstance(proc, Variable)
    while True:
        value = proc.read()
        proc.set(value)
        for stream in proc.output.attached_streams():
            if stream.accepts_input():
                proc.write(value)
                break


def make_variable(runtime: Runtime, initial: object = None, name: str = "variable") -> Variable:
    """``auto process v is variable(initial)`` — created *and* activated."""
    var = Variable(runtime, name, initial)
    runtime.adopt(var)
    var.activate()
    return var


def _void_body(proc: AtomicProcess) -> None:
    # Never terminates on its own; unwinds only when interrupted.
    proc.read()  # blocks forever: nothing is ever connected to void


VOID_DEFINITION = AtomicDefinition("void", _void_body)


def make_void(runtime: Runtime) -> AtomicProcess:
    """The special predefined process that never terminates."""
    return runtime.spawn(VOID_DEFINITION)


def _sink_body(proc: AtomicProcess) -> None:
    while True:
        proc.read()


def make_sink(runtime: Runtime) -> AtomicProcess:
    """A process that swallows every unit delivered to it."""
    return runtime.spawn(AtomicDefinition("sink", _sink_body))


def make_printer(
    runtime: Runtime, emit: Optional[Callable[[str], None]] = None
) -> AtomicProcess:
    """A process printing (or logging) every unit it reads."""
    emit = emit or print

    def body(proc: AtomicProcess) -> None:
        while True:
            unit = proc.read()
            emit(f"{proc.name}: {unit!r}")

    return runtime.spawn(AtomicDefinition("printer", body))
