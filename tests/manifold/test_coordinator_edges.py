"""Coordinator and runtime edge cases not covered elsewhere."""

from __future__ import annotations

import threading
import time

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Event,
    ProcessError,
    ProcessState,
    Runtime,
    StateMachineError,
    run_application,
)
from repro.manifold.builtins import VOID_DEFINITION
from repro.manifold.units import ProcessReference, Unit
from repro.trace import TraceRecorder, recording


class TestUnits:
    def test_unit_sequence_increases(self):
        a, b = Unit("x"), Unit("y")
        assert b.seq > a.seq

    def test_reference_detection(self, runtime):
        proc = runtime.create(AtomicDefinition("p", lambda p: None))
        assert Unit(ProcessReference(proc)).is_reference()
        assert not Unit("plain").is_reference()

    def test_reference_name(self, runtime):
        proc = runtime.create(AtomicDefinition("p", lambda p: None))
        assert ProcessReference(proc).name == proc.name


class TestCoordinatorLifecycle:
    def test_prebuilt_block_accepted(self, runtime):
        block = Block("ready")

        @block.state(BEGIN)
        def begin(ctx):
            ctx.halt()

        coordinator = Coordinator(runtime, "C", block)
        coordinator.activate()
        assert coordinator.join(timeout=5)
        assert coordinator.state is ProcessState.TERMINATED

    def test_failure_traceback_recorded(self, runtime):
        def factory():
            block = Block("bad")

            @block.state(BEGIN)
            def begin(ctx):
                raise ValueError("inside state body")

            return block

        coordinator = Coordinator(runtime, "C", factory)
        coordinator.activate()
        coordinator.join(timeout=5)
        assert isinstance(coordinator.failure, ValueError)
        assert "inside state body" in coordinator.failure_traceback

    def test_kill_unblocks_coordinator(self, runtime):
        def factory():
            block = Block("hang")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.idle()

            return block

        coordinator = Coordinator(runtime, "C", factory)
        coordinator.activate()
        time.sleep(0.05)
        coordinator.kill()
        assert coordinator.join(timeout=5)

    def test_deadline_inside_nested_block(self, runtime):
        def factory():
            outer = Block("outer")

            @outer.state(BEGIN)
            def begin(ctx):
                inner = Block("inner", save_all=True)

                @inner.state(BEGIN)
                def inner_begin(ictx):
                    yield ictx.idle()  # nothing can preempt: save_all shields

                ctx.run_block(inner)

            return outer

        coordinator = Coordinator(runtime, "C", factory, deadline=0.2)
        with pytest.raises(StateMachineError, match="exceeded its deadline"):
            run_application(runtime, coordinator, timeout=5)
        assert isinstance(coordinator.failure, StateMachineError)

    def test_top_level_unhandled_event_ends_cleanly(self, runtime):
        """An event matching no label of the outermost block while it
        idles must not crash the coordinator (documented as a clean
        top-level end)."""
        surprise = Event("surprise")

        def factory():
            block = Block("only-begin")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.halt()

            return block

        coordinator = Coordinator(runtime, "C", factory)
        runtime.raise_event(surprise)
        coordinator.activate()
        assert coordinator.join(timeout=5)
        assert coordinator.failure is None


class TestCoordinatorWaits:
    """What ends a blocking primitive, and when."""

    def test_deadline_holds_under_unrelated_events(self, runtime):
        """Broadcasts the coordinator has no label for must not keep
        postponing the look at its deadline."""

        def factory():
            block = Block("hang")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.sleep_until(lambda: False)  # woken by every delivery

            return block

        coordinator = Coordinator(runtime, "C", factory, deadline=0.2)
        stop = threading.Event()

        def noise():
            while not stop.wait(0.005):
                runtime.raise_event(Event("noise"))

        thread = threading.Thread(target=noise)
        thread.start()
        try:
            start = time.monotonic()
            with pytest.raises(StateMachineError, match="exceeded its deadline"):
                run_application(runtime, coordinator, timeout=1.5)
            elapsed = time.monotonic() - start
        finally:
            stop.set()
            thread.join()
        assert isinstance(coordinator.failure, StateMachineError)
        assert elapsed < 0.5

    def test_terminated_is_woken_by_the_death_not_the_poll(self, runtime):
        ended: list[float] = []

        def body(proc):
            time.sleep(0.05)
            ended.append(time.monotonic())

        def factory():
            block = Block("wait")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.terminated(ctx.spawn(AtomicDefinition("p", body)))
                ctx.halt()

            return block

        coordinator = Coordinator(runtime, "C", factory)
        coordinator.activate()
        assert coordinator.join(timeout=5)
        assert time.monotonic() - ended[0] < 0.1
        assert coordinator.failure is None

    def test_sleep_until_is_woken_by_notify_not_the_poll(self, runtime):
        flag = threading.Event()

        def factory():
            block = Block("wait")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.sleep_until(flag.is_set)
                ctx.halt()

            return block

        coordinator = Coordinator(runtime, "C", factory)
        coordinator.activate()
        time.sleep(0.05)
        flag.set()
        coordinator.event_memory.notify()
        assert coordinator.join(timeout=0.1)
        assert coordinator.failure is None


class TestRunApplication:
    def test_raises_unhandled_worker_failure(self, runtime):
        def bad_worker(proc):
            raise RuntimeError("unhandled")

        def factory():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                worker = ctx.spawn(AtomicDefinition("W", bad_worker))
                ctx.terminated(worker)
                ctx.halt()

            return block

        main = Coordinator(runtime, "Main", factory, deadline=10)
        with pytest.raises(RuntimeError, match="unhandled"):
            run_application(runtime, main, timeout=10)

    def test_skips_handled_worker_failure(self, runtime):
        def bad_worker(proc):
            raise RuntimeError("handled elsewhere")

        def factory():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                worker = ctx.spawn(AtomicDefinition("W", bad_worker))
                ctx.terminated(worker)
                worker.failure_handled = True
                ctx.halt()

            return block

        main = Coordinator(runtime, "Main", factory, deadline=10)
        run_application(runtime, main, timeout=10)  # must not raise

    @pytest.mark.parametrize("inline", [True, False], ids=["inline", "plain"])
    def test_a_passed_deadline_fails_main_and_leaves_nothing_alive(
        self, runtime, inline
    ):
        """Both kinds of ``Main`` past ``deadline=``: the thread in
        ``run_application`` fails it with one message, and every process
        ends."""
        block = Block("Main")
        if inline:

            @block.state(BEGIN)
            def begin(ctx):
                ctx.spawn(VOID_DEFINITION)
                yield ctx.idle()

        else:

            @block.state(BEGIN)
            def begin(ctx):
                ctx.spawn(VOID_DEFINITION)
                ctx.idle()

        main = Coordinator(runtime, "Main", block, deadline=0.2)
        with pytest.raises(StateMachineError) as raised:
            run_application(runtime, main, timeout=10)
        assert str(raised.value) == f"{main.name} exceeded its deadline while waiting"
        assert runtime.join_all(timeout=5.0)
        assert runtime.live_processes() == []

    def test_timeout_reported(self, runtime):
        def factory():
            block = Block("hang")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.idle()

            return block

        main = Coordinator(runtime, "Main", factory)
        with pytest.raises(ProcessError, match="did not finish"):
            run_application(runtime, main, timeout=0.3)


class TestRuntimeTrace:
    def test_trace_callback_records_lifecycle(self):
        with recording(TraceRecorder()) as rec, Runtime("traced") as runtime:
            proc = runtime.spawn(AtomicDefinition("quick", lambda p: None))
            proc.join(timeout=5)
            runtime.raise_event(Event("ping"))
        seen = {(e.kind, e.worker, e.data.get("event")) for e in rec.events()}
        assert ("process_activate", proc.name, None) in seen
        assert ("process_death", proc.name, None) in seen
        assert ("manifold_event", "<runtime>", "ping") in seen
