"""Generator blocks: a transition runs in the thread that delivers its event.

Every coordinator here whose top block is a generator block is activated
by the test thread, which enters its ``begin`` state; the occurrences
that follow are delivered by the test thread or by worker processes,
and the transitions they cause are over when the delivery returns.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.manifold import (
    BEGIN,
    DEATH,
    AtomicDefinition,
    Block,
    Coordinator,
    Event,
    EventOccurrence,
    ProcessState,
    StateMachineError,
    make_void,
    run_application,
)
from repro.manifold import manifold as manifold_module

GO = Event("go")
STOP = Event("stop")
TICK = Event("tick")


def raiser(event: Event) -> AtomicDefinition:
    return AtomicDefinition("raiser", lambda proc: proc.raise_event(event))


def idle_then_halt_on(event: Event, seen: list) -> Block:
    """An inline block: begin idles, ``event`` records its thread and halts."""
    block = Block("inline")

    @block.state(BEGIN)
    def begin(ctx):
        seen.append(("begin", threading.current_thread().name))
        yield ctx.idle()

    @block.state(event)
    def on_event(ctx):
        seen.append((event.name, threading.current_thread().name))
        yield ctx.halt()

    return block


def failing_on_go(ran_on: list) -> Block:
    block = Block("boom")

    @block.state(BEGIN)
    def begin(ctx):
        yield ctx.idle()

    @block.state(GO)
    def go(ctx):
        ran_on.append(threading.current_thread().name)
        raise ValueError("inside an inline body")
        yield  # pragma: no cover - makes the body a generator

    return block


class TestWhereTransitionsRun:
    def test_activation_enters_begin_and_starts_no_thread(self, runtime, monkeypatch):
        started = []
        monkeypatch.setattr(
            manifold_module, "start_thread", lambda body, name: started.append(name)
        )
        seen: list = []
        coordinator = Coordinator(runtime, "C", idle_then_halt_on(GO, seen))
        coordinator.activate()
        me = threading.current_thread().name
        assert seen == [("begin", me)]
        assert started == []
        runtime.raise_event(GO)
        assert seen == [("begin", me), ("go", me)]
        assert coordinator.state is ProcessState.TERMINATED

    def test_the_raising_worker_runs_the_transition(self, runtime):
        seen: list = []
        coordinator = Coordinator(runtime, "C", idle_then_halt_on(GO, seen))
        coordinator.activate()
        worker = runtime.spawn(raiser(GO))
        assert worker.join(timeout=5.0)
        assert seen[1] == ("go", worker.name)
        assert coordinator.join(timeout=5.0)
        assert coordinator.failure is None


class TestFailures:
    def test_a_body_failure_fails_the_coordinator_not_the_raiser(self, runtime):
        ran_on: list = []
        coordinator = Coordinator(runtime, "C", failing_on_go(ran_on))
        coordinator.activate()
        worker = runtime.spawn(raiser(GO))
        assert worker.join(timeout=5.0)
        assert ran_on == [worker.name]
        assert worker.state is ProcessState.TERMINATED
        assert coordinator.state is ProcessState.FAILED
        assert isinstance(coordinator.failure, ValueError)
        assert "inside an inline body" in coordinator.failure_traceback

    def test_run_application_raises_a_failure_a_worker_drove(self, runtime):
        ran_on: list = []
        workers: list = []

        def main_body():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                workers.append(ctx.spawn(raiser(GO)))
                ctx.run_block(failing_on_go(ran_on))
                ctx.halt()

            return block

        main = Coordinator(runtime, "Main", main_body, deadline=10)
        with pytest.raises(ValueError, match="inside an inline body"):
            run_application(runtime, main, timeout=10)
        (worker,) = workers
        assert worker.state is ProcessState.TERMINATED
        assert main.state is ProcessState.FAILED
        assert "inside an inline body" in main.failure_traceback

    def test_an_interrupt_fails_the_coordinator_and_reaches_the_raiser(self, runtime):
        block = Block("interrupted")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.idle()

        @block.state(GO)
        def go(ctx):
            raise KeyboardInterrupt
            yield  # pragma: no cover - makes the body a generator

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        with pytest.raises(KeyboardInterrupt):
            runtime.raise_event(GO)
        assert coordinator.state is ProcessState.FAILED
        assert not coordinator.event_memory._driving

    def test_the_deadline_tears_the_inline_blocks_down(self, runtime):
        declared: list = []

        def setup(ctx):
            declared.append(make_void(ctx.coordinator.runtime))
            return {"void": declared[0]}

        block = Block("hang", setup=setup)

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.idle()

        coordinator = Coordinator(runtime, "C", block, deadline=0.2)
        with pytest.raises(StateMachineError, match="exceeded its deadline"):
            run_application(runtime, coordinator, timeout=5)
        assert isinstance(coordinator.failure, StateMachineError)
        assert declared[0].state is ProcessState.TERMINATED

    def test_shutdown_ends_a_threadless_coordinator(self, runtime):
        seen: list = []
        coordinator = Coordinator(runtime, "C", idle_then_halt_on(GO, seen))
        coordinator.activate()
        runtime.shutdown()
        assert coordinator.state is ProcessState.TERMINATED
        assert coordinator.failure is None


class TestOrdering:
    def test_a_bodys_own_events_are_taken_after_it_yields(self, runtime):
        seen: list = []
        block = Block("b", priority={GO: 2, STOP: 1})

        @block.state(BEGIN)
        def begin(ctx):
            ctx.post(STOP)
            ctx.raise_event(GO)
            seen.append("begin yields")
            yield ctx.idle()

        @block.state(GO)
        def go(ctx):
            seen.append("go")
            yield ctx.idle()

        @block.state(STOP)
        def stop(ctx):
            seen.append("stop")
            yield ctx.halt()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        assert seen == ["begin yields", "go", "stop"]
        assert coordinator.state is ProcessState.TERMINATED

    def test_delivering_threads_take_turns(self, runtime):
        """Four threads (more than this suite's CPUs) deliver at once:
        each occurrence is taken exactly once, and no body is entered
        while another runs."""
        per_thread = 500
        taken: list = []
        inside: list = []
        block = Block("count")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.idle()

        @block.state(TICK)
        def tick(ctx):
            assert not inside, "a body was re-entered"
            inside.append(1)
            taken.append(ctx.current_occurrence)
            for _ in range(2000):  # bytecode: a window for the other threads
                pass
            inside.pop()
            yield ctx.idle()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        raised: list = [[] for _ in range(4)]
        barrier = threading.Barrier(len(raised))

        def deliver(mine: list) -> None:
            barrier.wait(timeout=5.0)
            for _ in range(per_thread):
                occurrence = EventOccurrence(TICK, None)
                mine.append(occurrence)
                runtime.broadcast(occurrence)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=deliver, args=(mine,)) for mine in raised
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert coordinator.failure is None, coordinator.failure_traceback
        assert coordinator.state is ProcessState.ACTIVE
        assert len(taken) == len(raised) * per_thread
        assert {id(occ) for occ in taken} == {id(occ) for mine in raised for occ in mine}
        assert len(coordinator.event_memory) == 0


class TestWaits:
    def test_terminated_is_rechecked_on_the_death_delivery(self, runtime):
        quiet = make_void(runtime)
        seen: list = []
        block = Block("wait")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.terminated(quiet)
            seen.append("after")
            yield ctx.halt()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        assert seen == []
        quiet.kill()  # its death is broadcast from this thread
        assert seen == ["after"]
        assert coordinator.state is ProcessState.TERMINATED

    def test_notify_rechecks_sleep_until_in_the_calling_thread(self, runtime):
        flag = threading.Event()
        block = Block("wait")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.sleep_until(flag.is_set)
            yield ctx.halt()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        flag.set()
        assert coordinator.state is ProcessState.ACTIVE
        coordinator.event_memory.notify()
        assert coordinator.state is ProcessState.TERMINATED

    def test_declared_processes_end_with_their_block(self, runtime):
        """``auto`` scope: a process the declaration part returns among
        its locals ends when the block exits, and its death goes with
        the block's ``ignore``."""
        kept: list = []

        def setup(ctx):
            return {"void": make_void(ctx.coordinator.runtime)}

        inner = Block("inner", setup=setup, ignore=(DEATH,))

        @inner.state(BEGIN)
        def inner_begin(ctx):
            kept.append(ctx.local("void"))
            yield ctx.halt()

        outer = Block("outer")

        @outer.state(BEGIN)
        def outer_begin(ctx):
            yield ctx.run_block(inner)
            kept.append(len(ctx.memory))
            yield ctx.halt()

        coordinator = Coordinator(runtime, "C", outer)
        coordinator.activate()
        void, pending = kept
        assert void.state is ProcessState.TERMINATED
        assert pending == 0
        assert coordinator.state is ProcessState.TERMINATED


class TestMisuse:
    def test_a_block_may_not_mix_generator_and_plain_bodies(self):
        block = Block("mixed")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.idle()

        with pytest.raises(StateMachineError, match="'mixed'.*'go'"):

            @block.state(GO)
            def go(ctx):
                ctx.halt()

    @pytest.mark.parametrize("then", ["waits", "returns", "yields-no-wait"])
    def test_a_wait_that_is_not_yielded_fails_the_coordinator(self, runtime, then):
        block = Block("forgetful")

        @block.state(BEGIN)
        def begin(ctx):
            if then == "yields-no-wait":
                yield "not a wait"
            ctx.idle()  # not yielded
            if then == "waits":
                yield ctx.idle()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        assert coordinator.state is ProcessState.FAILED
        assert isinstance(coordinator.failure, StateMachineError)
        assert "'forgetful', state 'begin'" in str(coordinator.failure)

    def test_an_inline_block_cannot_run_a_plain_one(self, runtime):
        plain = Block("plain")
        plain.add_state(BEGIN, lambda ctx: ctx.halt())
        block = Block("inline")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.run_block(plain)

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        assert isinstance(coordinator.failure, StateMachineError)
        assert "'plain'" in str(coordinator.failure)
