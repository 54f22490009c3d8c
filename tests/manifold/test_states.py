"""Coordinator state machinery: transitions, preemption, nesting, save."""

from __future__ import annotations

import ast
import time
from pathlib import Path

import pytest

from repro.manifold import (
    BEGIN,
    END,
    AtomicDefinition,
    Block,
    Coordinator,
    Event,
    Runtime,
    StateMachineError,
    StreamType,
    run_application,
)
from repro.manifold.states import HaltBlock

REPO = Path(__file__).resolve().parents[2]

GO = Event("go")
STOP = Event("stop")
OTHER = Event("other")


def run_coordinator(runtime: Runtime, block_factory, timeout: float = 5.0) -> Coordinator:
    coord = Coordinator(runtime, "C", block_factory, deadline=timeout)
    coord.activate()
    assert coord.join(timeout=timeout + 1), "coordinator did not finish"
    if coord.failure is not None:
        raise coord.failure
    return coord


class TestBlockStructure:
    def test_block_without_begin_rejected(self, runtime):
        block = Block("nobegin")

        @block.state(GO)
        def go(ctx):
            yield ctx.idle()

        coord = Coordinator(runtime, "C", block, deadline=2)
        coord.activate()
        coord.join(timeout=3)
        assert isinstance(coord.failure, StateMachineError)

    def test_duplicate_state_rejected(self):
        block = Block("dup")
        block.add_state(BEGIN, lambda ctx: None)
        with pytest.raises(StateMachineError):
            block.add_state(BEGIN, lambda ctx: None)

    def test_a_plain_body_is_refused_for_any_label_but_begin(self):
        block = Block("plain")
        with pytest.raises(StateMachineError, match="'plain'.*'go'"):
            block.add_state(GO, lambda ctx: None)

    def test_a_plain_begin_cannot_run_a_plain_block(self, runtime):
        refused = []

        def factory():
            outer = Block("outer")

            @outer.state(BEGIN)
            def begin(ctx):
                inner = Block("inner")
                inner.add_state(BEGIN, lambda ictx: ictx.halt())
                with pytest.raises(StateMachineError, match="'inner'"):
                    ctx.run_block(inner)
                refused.append("inner")
                ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        assert refused == ["inner"]

    def test_begin_state_runs_first(self, runtime):
        visits = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                visits.append("begin")
                ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["begin"]

    def test_setup_runs_before_begin(self, runtime):
        order = []

        def factory():
            def setup(ctx):
                order.append("setup")
                return {"x": 42}

            block = Block("b", setup=setup)

            @block.state(BEGIN)
            def begin(ctx):
                order.append(("begin", ctx.local("x")))
                ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert order == ["setup", ("begin", 42)]


class TestTransitions:
    def test_post_drives_transition(self, runtime):
        visits = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                visits.append("begin")
                ctx.post(GO)
                yield ctx.idle()

            @block.state(GO)
            def go(ctx):
                visits.append("go")
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["begin", "go"]

    def test_external_event_preempts_idle(self, runtime):
        visits = []
        defn = AtomicDefinition(
            "raiser", lambda p, ev: (time.sleep(0.02), p.raise_event(ev))[-1]
        )

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.spawn(defn, GO)
                yield ctx.idle()

            @block.state(GO)
            def go(ctx):
                visits.append("go")
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["go"]

    def test_terminated_returns_when_process_dies(self, runtime):
        quick = AtomicDefinition("quick", lambda p: None)
        visits = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                proc = ctx.spawn(quick)
                ctx.terminated(proc)
                visits.append("after-terminated")
                ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["after-terminated"]

    def test_terminated_preempted_by_event(self, runtime):
        defn = AtomicDefinition(
            "raiser", lambda p, ev: (time.sleep(0.02), p.raise_event(ev))[-1]
        )
        void_like = AtomicDefinition("never", lambda p: p.read())
        visits = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                never = ctx.spawn(void_like)
                ctx.spawn(defn, GO)
                yield ctx.terminated(never)
                visits.append("unexpected")

            @block.state(GO)
            def go(ctx):
                visits.append("preempted")
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["preempted"]

    def test_state_waits_for_next_event_after_body(self, runtime):
        """A state body that returns leaves the coordinator waiting in
        the state for the next transition."""
        visits = []
        defn = AtomicDefinition(
            "raiser", lambda p, ev: (time.sleep(0.03), p.raise_event(ev))[-1]
        )

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                visits.append("begin")
                ctx.spawn(defn, STOP)
                yield from ()  # body returns without idling

            @block.state(STOP)
            def stop(ctx):
                visits.append("stop")
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["begin", "stop"]

    def test_same_state_can_reenter(self, runtime):
        counter = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.post(GO)
                yield ctx.idle()

            @block.state(GO)
            def go(ctx):
                counter.append(1)
                if len(counter) < 3:
                    ctx.post(GO)
                    yield ctx.idle()
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert len(counter) == 3

    def test_priority_orders_simultaneous_events(self, runtime):
        visits = []

        def factory():
            block = Block("b", priority={GO: 2, STOP: 1})

            @block.state(BEGIN)
            def begin(ctx):
                ctx.post(STOP)
                ctx.post(GO)
                yield ctx.idle()

            @block.state(GO)
            def go(ctx):
                visits.append("go")
                yield ctx.idle()

            @block.state(STOP)
            def stop(ctx):
                visits.append("stop")
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert visits == ["go", "stop"]

    def test_ignore_discards_on_block_exit(self, runtime):
        leftover = []

        def factory():
            block = Block("b", ignore=(OTHER,))

            @block.state(BEGIN)
            def begin(ctx):
                ctx.memory.post(OTHER)
                ctx.memory.post(OTHER)
                yield ctx.halt()

            outer = Block("outer")

            @outer.state(BEGIN)
            def outer_begin(ctx):
                yield ctx.run_block(block)
                leftover.append(len(ctx.memory))
                yield ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        assert leftover == [0]


class TestNestedBlocks:
    def test_outer_label_preempts_inner_block(self, runtime):
        """The paper's pattern: an inner begin-only block is preempted
        by an event whose handling label lives one block out."""
        visits = []
        defn = AtomicDefinition(
            "raiser", lambda p, ev: (time.sleep(0.02), p.raise_event(ev))[-1]
        )

        def factory():
            outer = Block("outer")

            @outer.state(BEGIN)
            def outer_begin(ctx):
                ctx.spawn(defn, GO)
                inner = Block("inner")

                @inner.state(BEGIN)
                def inner_begin(ictx):
                    visits.append("inner")
                    yield ictx.idle()

                yield ctx.run_block(inner)
                visits.append("unexpected")

            @outer.state(GO)
            def go(ctx):
                visits.append("outer-go")
                yield ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        assert visits == ["inner", "outer-go"]

    def test_save_all_shields_outer_labels(self, runtime):
        """A save-all inner block must NOT be preempted by outer labels."""
        visits = []

        def factory():
            outer = Block("outer")

            @outer.state(BEGIN)
            def outer_begin(ctx):
                ctx.memory.post(GO)  # would match outer's GO state
                inner = Block("inner", save_all=True)

                @inner.state(BEGIN)
                def inner_begin(ictx):
                    visits.append("inner")
                    ictx.post(END)
                    yield ictx.idle()

                @inner.state(END)
                def inner_end(ictx):
                    visits.append("inner-end")
                    yield ictx.halt()

                yield ctx.run_block(inner)
                visits.append("after-inner")
                yield ctx.idle()

            @outer.state(GO)
            def go(ctx):
                visits.append("outer-go")
                yield ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        # inner handled its own events first; the saved GO fires only
        # after the inner block exits
        assert visits == ["inner", "inner-end", "after-inner", "outer-go"]

    def test_halt_exits_only_innermost_block(self, runtime):
        visits = []

        def factory():
            outer = Block("outer")

            @outer.state(BEGIN)
            def outer_begin(ctx):
                inner = Block("inner")

                @inner.state(BEGIN)
                def inner_begin(ictx):
                    visits.append("inner")
                    yield ictx.halt()

                yield ctx.run_block(inner)
                visits.append("outer-continues")
                yield ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        assert visits == ["inner", "outer-continues"]

    def test_locals_resolve_through_stack(self, runtime):
        seen = []

        def factory():
            outer = Block("outer", setup=lambda ctx: {"shared": "outer-value"})

            @outer.state(BEGIN)
            def outer_begin(ctx):
                inner = Block("inner", setup=lambda c: {"mine": "inner-value"})

                @inner.state(BEGIN)
                def inner_begin(ictx):
                    seen.append(ictx.local("shared"))
                    seen.append(ictx.local("mine"))
                    yield ictx.halt()

                yield ctx.run_block(inner)
                yield ctx.halt()

            return outer

        run_coordinator(runtime, factory)
        assert seen == ["outer-value", "inner-value"]

    def test_missing_local_raises_keyerror(self, runtime):
        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.local("nope")

            return block

        coord = Coordinator(runtime, "C", factory, deadline=2)
        coord.activate()
        coord.join(timeout=3)
        assert isinstance(coord.failure, KeyError)


class TestStreamsInStates:
    def test_state_streams_dismantled_on_transition(self, runtime):
        idle_defn = AtomicDefinition("idle", lambda p: p.read())
        streams = {}

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                a = ctx.create(idle_defn)
                b = ctx.create(idle_defn)
                streams["bk"] = ctx.connect(a.output, b.input)
                streams["kk"] = ctx.connect(a.output, b.input, type=StreamType.KK)
                ctx.post(GO)
                yield ctx.idle()

            @block.state(GO)
            def go(ctx):
                yield ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert streams["bk"].source_broken
        assert not streams["kk"].source_broken

    def test_send_delivers_literal(self, runtime):
        idle_defn = AtomicDefinition("idle", lambda p: p.read())
        received = []

        def factory():
            block = Block("b")

            @block.state(BEGIN)
            def begin(ctx):
                target = ctx.create(idle_defn)
                ctx.send("payload", target.input)
                received.append(target.input.try_read())
                ctx.halt()

            return block

        run_coordinator(runtime, factory)
        assert received == ["payload"]

    def test_deadline_fails_hung_coordinator(self, runtime):
        def factory():
            block = Block("hang")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.idle()  # nothing will ever preempt

            return block

        coord = Coordinator(runtime, "C", factory, deadline=0.2)
        with pytest.raises(StateMachineError, match="exceeded its deadline"):
            run_application(runtime, coord, timeout=5)
        assert isinstance(coord.failure, StateMachineError)


def _yields(function: ast.FunctionDef) -> bool:
    """Whether ``function`` itself (not a function nested in it) yields."""
    nodes = list(function.body)
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.Yield, ast.YieldFrom)):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            nodes.extend(ast.iter_child_nodes(node))
    return False


def test_every_state_body_outside_the_tests_is_a_generator():
    """Generator blocks make every transition: no state body of the
    package, the examples or the benches is plain, so a second
    transition engine cannot come back unnoticed.  The e2e harness's
    plain ``Main`` is the one plain ``begin`` left."""
    paths = [
        path
        for top in ("src", "examples", "benchmarks")
        for path in (REPO / top).rglob("*.py")
        if (REPO / "benchmarks" / "e2e") not in path.parents
    ]
    bodies = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(decorator, ast.Call)
                and isinstance(decorator.func, ast.Attribute)
                and decorator.func.attr == "state"
                for decorator in node.decorator_list
            ):
                bodies[f"{path.relative_to(REPO)}:{node.name}"] = _yields(node)
    assert "src/repro/restructured/mainprog.py:begin" in bodies
    assert [body for body, yields in bodies.items() if not yields] == []
