"""``protocolMW.m`` — the generic master/worker coordination protocol.

This module is a line-for-line port of the MANIFOLD source in §4.2 of
the paper.  The comments quote the original lines so the correspondence
can be audited.  Both manners are *generic*: the master process instance
and the worker manifold definition are parameters; the protocol knows
nothing about the computation they perform.

Every state body is a generator function, so the manners own no thread:
a transition runs in the thread whose ``raise`` delivered its event (the
master's for ``create_pool``, ``create_worker``, ``rendezvous`` and
``finished``; a worker's for a late ``death_worker``) and is done when
that ``raise`` returns.  The MANIFOLD waits (IDLE, ``terminated``, a
nested block) are yielded (:mod:`repro.manifold.states`).

Protocol summary (§4.1):

1. The coordinator waits on the running ``master``.
2. ``create_pool`` → enter :func:`create_worker_pool`.
3. Inside the pool manner, each ``create_worker`` occurrence creates a
   worker, sends its reference to the master (``&worker -> master``),
   wires ``master -> worker`` (job data) and ``worker ->
   master.dataport`` (results; a **KK** stream so it survives the next
   preemption — a remote worker's results must still reach the master).
4. ``rendezvous`` → count ``death_worker`` occurrences until every
   created worker has died, then raise ``a_rendezvous`` and return.
5. Back in ``ProtocolMW``, ``post(begin)`` — ready for another pool.
6. ``finished`` → ``halt``: flow of control returns to the caller.
"""

from __future__ import annotations

from typing import Optional

from repro.manifold import (
    BEGIN,
    DEATH,
    END,
    AtomicDefinition,
    Block,
    Event,
    ProcessBase,
    StateContext,
    StreamType,
    make_variable,
)

from .events import events_for
from .supervision import SupervisionRegistry, make_supervisor

__all__ = ["create_worker_pool", "protocol_mw"]


def create_worker_pool(
    master: ProcessBase,
    worker_defn: AtomicDefinition,
    *,
    registry: Optional["SupervisionRegistry"] = None,
) -> Block:
    """The ``Create_Worker_Pool`` manner (lines 12–51 of protocolMW.m).

    Conducts the workers in the pool: creates a worker per
    ``create_worker`` occurrence, wires it to the master, and organizes
    the rendezvous counting ``death_worker`` events.

    ``registry``, when given, enables the failure extension (not in
    the paper, where a crashed worker deadlocks the run): every created
    worker is registered with the supervisor coordinator (see
    :mod:`repro.protocol.supervision`), which converts a worker failure
    into a dataport failure unit plus a ``death_worker`` raise so the
    rendezvous still closes.
    """
    # step 1: the extern events of *this* master (see events.py)
    ev = events_for(master)
    # line 21: `event death_worker.` — local to this pool instance.
    death_worker = Event.local("death_worker")

    def setup(ctx: StateContext) -> dict:
        # lines 18-19: `auto process now is variable(0).` / `... t is variable(0).`
        # Returned among the locals, they are scoped to the block: both
        # end when the manner returns.
        runtime = ctx.coordinator.runtime
        now = make_variable(runtime, 0, name="now")
        t = make_variable(runtime, 0, name="t")
        return {"now": now, "t": t}

    block = Block(
        "Create_Worker_Pool",
        save_all=True,                      # line 15: `save *.`
        ignore=(DEATH,),                    # line 16: `ignore death.`
        # line 22: `priority create_worker > rendezvous.`
        priority={ev.create_worker: 2, ev.rendezvous: 1},
        setup=setup,
    )

    @block.state(BEGIN)
    def begin(ctx: StateContext):
        # line 25: `begin: (MES("begin"), preemptall, IDLE).`
        ctx.message("begin")
        yield ctx.idle()

    @block.state(ev.create_worker)
    def create_worker_state(ctx: StateContext):
        # lines 27-37: the create_worker state is itself a block.
        inner = Block("create_worker")

        worker = ctx.create(worker_defn, death_worker)  # line 30
        if registry is not None:
            registry.register(worker, master, death_worker)

        @inner.state(BEGIN)
        def inner_begin(inner_ctx: StateContext):
            # line 34: `begin: now = now + 1;`
            inner_ctx.local("now").increment()
            inner_ctx.message("create_worker: begin")
            # line 36: the stream configuration, verbatim; line 32
            # declares the worker -> master.dataport connection KK
            inner_ctx.wire(
                "&worker -> master -> worker -> master.dataport",
                env={"worker": worker, "master": master},
                types={2: StreamType.KK},
            )
            yield inner_ctx.idle()  # IDLE until the next create_worker/rendezvous

        yield ctx.run_block(inner)

    @block.state(ev.rendezvous)
    def rendezvous_state(ctx: StateContext):
        # lines 39-48: the rendezvous state, with begin and death_worker
        # (sub)states.
        inner = Block("rendezvous")

        @inner.state(BEGIN)
        def inner_begin(inner_ctx: StateContext):
            yield inner_ctx.idle()  # line 40: wait for death_worker events

        @inner.state(death_worker)
        def on_death_worker(inner_ctx: StateContext):
            # lines 42-47
            t = inner_ctx.local("t")
            now = inner_ctx.local("now")
            if t.increment() < now.get():
                inner_ctx.post(BEGIN)
            else:
                inner_ctx.post(END)
            yield inner_ctx.idle()

        yield ctx.run_block(inner)

    @block.state(END)
    def end(ctx: StateContext):
        # line 50: `end: (MES("rendezvous acknowledged"), raise(a_rendezvous)).`
        ctx.message("rendezvous acknowledged")
        ctx.raise_event(ev.a_rendezvous)
        yield ctx.halt()  # the Create_Worker_Pool manner returns

    return block


def protocol_mw(
    master: ProcessBase,
    worker_defn: AtomicDefinition,
    *,
    supervise: bool = False,
    registry: Optional[SupervisionRegistry] = None,
) -> Block:
    """The exported ``ProtocolMW`` manner (lines 54–64 of protocolMW.m).

    ``master`` must already be active; ``worker_defn`` is the worker
    manifold.  The caller typically runs this block in its ``begin``
    state (see ``mainprog.m`` / :mod:`repro.restructured.mainprog`).
    ``supervise`` enables the worker-failure extension: a supervisor
    coordinator is spawned alongside the protocol and every pool worker
    is registered with it (see :mod:`repro.protocol.supervision`).
    Passing an explicit ``registry`` implies ``supervise`` and lets the
    caller attach a shared :class:`~repro.resilience.FaultLog` and
    escalation ladder before the protocol starts.
    """

    ev = events_for(master)
    supplied = registry

    def setup(ctx: StateContext) -> dict:
        registry = supplied
        if registry is None and supervise:
            registry = SupervisionRegistry()
        if registry is not None:
            make_supervisor(ctx.coordinator.runtime, registry)
        return {"protocol_registry": registry}

    block = Block("ProtocolMW", save_all=True, setup=setup)  # line 57: `save *.`

    @block.state(BEGIN)
    def begin(ctx: StateContext):
        # line 59: `begin: terminated(master).` — wait on the master;
        # mentioning it also makes this state sensitive to its events.
        yield ctx.terminated(master)

    @block.state(ev.create_pool)
    def create_pool(ctx: StateContext):
        # line 61: `create_pool: Create_Worker_Pool(master, Worker); post(begin).`
        yield ctx.run_block(
            create_worker_pool(
                master, worker_defn, registry=ctx.local("protocol_registry")
            )
        )
        ctx.post(BEGIN)

    @block.state(ev.finished)
    def finished(ctx: StateContext):
        # line 63: `finished: halt.`
        yield ctx.halt()

    return block
