"""Worker-failure supervision — an extension beyond the paper.

The paper's protocol has no failure story: a worker that dies without
raising ``death_worker`` leaves the rendezvous counting forever and the
master blocked on its dataport.  The IWIM-idiomatic fix is *another
coordinator*: a supervisor process that observes the predefined
``death`` event and, for a registered pool worker that FAILED,

1. injects a :class:`~repro.protocol.interfaces.FailedWorkerResult`
   unit into the master's dataport (a literal, source-broken stream —
   it cannot interfere with the pool's own wiring), and
2. raises the pool's local ``death_worker`` event on the worker's
   behalf, so ``Create_Worker_Pool``'s rendezvous counting closes
   exactly as if the worker had died cleanly.

Crucially the supervisor never touches the pool's streams and the pool
block needs no extra labels, so the delicate create/write ordering the
protocol relies on (§4.2) is untouched.

The registry optionally carries a :class:`~repro.resilience.FaultLog`
and an :class:`~repro.resilience.EscalationPolicy`: every claimed
failure is then recorded as a structured
:class:`~repro.resilience.FaultEvent` whose action comes from the same
escalation ladder the OS-level pool path uses
(:mod:`repro.restructured.parallel`), so a run that loses workers at
both layers still has one auditable failure history.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.manifold import (
    BEGIN,
    DEATH,
    Block,
    Coordinator,
    Event,
    ProcessBase,
    ProcessState,
    Runtime,
    StateContext,
    StreamType,
)

from .interfaces import FailedWorkerResult

__all__ = ["SupervisionRegistry", "make_supervisor"]


@dataclass
class _Registration:
    worker: ProcessBase
    master: ProcessBase
    death_worker: Event


class SupervisionRegistry:
    """Thread-safe map of pool workers to their pool's context.

    ``fault_log`` and ``escalation`` are optional: with a log attached,
    every claimed failure is recorded as a
    :class:`~repro.resilience.FaultEvent` whose action is what the
    shared escalation ladder prescribes for a ``death_worker`` fault.
    """

    def __init__(self, *, fault_log=None, escalation=None) -> None:
        self._lock = threading.Lock()
        self._by_worker: dict[int, _Registration] = {}
        self._handled: set[int] = set()
        self.fault_log = fault_log
        self.escalation = escalation

    def register(
        self, worker: ProcessBase, master: ProcessBase, death_worker: Event
    ) -> None:
        with self._lock:
            self._by_worker[worker.instance_id] = _Registration(
                worker, master, death_worker
            )

    def claim_failure(self, proc: ProcessBase) -> Optional[_Registration]:
        """Return the registration if ``proc`` is an unhandled failed
        pool worker; marks it handled (exactly-once semantics)."""
        if proc.state is not ProcessState.FAILED:
            return None
        with self._lock:
            if proc.instance_id in self._handled:
                return None
            registration = self._by_worker.get(proc.instance_id)
            if registration is None:
                return None
            self._handled.add(proc.instance_id)
            proc.failure_handled = True
        if self.fault_log is not None:
            from repro.resilience import EscalationPolicy, FaultEvent

            ladder = self.escalation or EscalationPolicy()
            self.fault_log.record(
                FaultEvent(
                    key=(proc.name,),
                    kind="death_worker",
                    attempt=1,
                    action=ladder.decide(1, "death_worker").value,
                    detected_by="supervisor",
                    error=repr(proc.failure),
                )
            )
        return registration

    @property
    def failures_handled(self) -> int:
        with self._lock:
            return len(self._handled)


def make_supervisor(
    runtime: Runtime, registry: SupervisionRegistry, name: str = "Supervisor"
) -> Coordinator:
    """Build and activate the supervisor coordinator.

    It idles until a ``death`` occurrence arrives; failed registered
    workers are converted into a dataport failure unit plus a
    ``death_worker`` raise.  Its bodies are generators, so it owns no
    thread: ``on_death`` runs in the thread that broadcast the death.
    The supervisor lives until the runtime shuts down.
    """
    block = Block(name)

    @block.state(BEGIN)
    def begin(ctx: StateContext):
        yield ctx.idle()

    @block.state(DEATH)
    def on_death(ctx: StateContext):
        occ = ctx.current_occurrence
        proc = occ.source if occ is not None else None
        # None: a clean death, or not a pool worker of ours
        registration = None if proc is None else registry.claim_failure(proc)
        if registration is not None:
            ctx.message(f"supervision: {proc.name} failed; closing its slot")
            ctx.send(
                FailedWorkerResult(
                    worker_name=proc.name, error=repr(proc.failure)
                ),
                registration.master.port("dataport"),
                type=StreamType.KK,
            )
            ctx.raise_event(registration.death_worker)
        yield ctx.idle()

    supervisor = Coordinator(runtime, name, block)
    supervisor.activate()
    return supervisor
