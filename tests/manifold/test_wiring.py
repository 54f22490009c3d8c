"""The arrow-chain wiring notation."""

from __future__ import annotations

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    ProcessReference,
    StreamError,
    StreamType,
)
from repro.manifold.wiring import parse_wire_spec

IDLE = AtomicDefinition("idle", lambda p: p.read())


class TestParser:
    def test_simple_chain(self):
        elements = parse_wire_spec("a -> b")
        assert [(e.name, e.port, e.is_reference) for e in elements] == [
            ("a", None, False), ("b", None, False)
        ]

    def test_ports_and_reference(self):
        elements = parse_wire_spec("&worker -> master -> worker -> master.dataport")
        assert elements[0].is_reference and elements[0].name == "worker"
        assert elements[3].port == "dataport"

    def test_whitespace_tolerant(self):
        elements = parse_wire_spec("  a   ->b.input ")
        assert elements[1].port == "input"

    def test_needs_an_arrow(self):
        with pytest.raises(StreamError):
            parse_wire_spec("lonely")

    def test_empty_element_rejected(self):
        with pytest.raises(StreamError):
            parse_wire_spec("a -> -> b")

    def test_malformed_port_rejected(self):
        with pytest.raises(StreamError):
            parse_wire_spec("a. -> b")

    def test_reference_with_port_rejected(self):
        with pytest.raises(StreamError):
            parse_wire_spec("&a.output -> b")

    def test_reference_mid_chain_rejected(self):
        with pytest.raises(StreamError):
            parse_wire_spec("a -> &b -> c")


def run_in_state(runtime, body):
    result = {}

    def factory():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            result["value"] = body(ctx)
            ctx.halt()

        return block

    coordinator = Coordinator(runtime, "Main", factory, deadline=10)
    coordinator.activate()
    assert coordinator.join(timeout=12)
    if coordinator.failure:
        raise coordinator.failure
    return result["value"]


class TestWiring:
    def test_chain_moves_data(self, runtime):
        a = runtime.create(IDLE)
        b = runtime.create(IDLE)

        def body(ctx):
            streams = ctx.wire("a -> b", env={"a": a, "b": b})
            a.output.write("through")
            return streams, b.input.read(timeout=5)

        streams, received = run_in_state(runtime, body)
        assert received == "through"
        assert len(streams) == 1

    def test_reference_element_delivers_reference(self, runtime):
        w = runtime.create(IDLE)
        m = runtime.create(IDLE)

        def body(ctx):
            ctx.wire("&w -> m", env={"w": w, "m": m})
            return m.input.read(timeout=5)

        ref = run_in_state(runtime, body)
        assert isinstance(ref, ProcessReference)
        assert ref.process is w

    def test_types_by_arrow_index(self, runtime):
        a = runtime.create(IDLE)
        b = runtime.create(IDLE)
        c = runtime.create(IDLE)

        def body(ctx):
            return ctx.wire(
                "a -> b -> c", env={"a": a, "b": b, "c": c},
                types={1: StreamType.KK},
            )

        streams = run_in_state(runtime, body)
        assert streams[0].type is StreamType.BK
        assert streams[1].type is StreamType.KK

    def test_port_selection(self, runtime):
        master = runtime.create(
            AtomicDefinition("m", lambda p: p.read(), in_ports=("input", "dataport"))
        )
        w = runtime.create(IDLE)

        def body(ctx):
            ctx.wire("w -> m.dataport", env={"w": w, "m": master})
            w.output.write(99)
            return master.port("dataport").read(timeout=5)

        assert run_in_state(runtime, body) == 99

    def test_unknown_process_rejected(self, runtime):
        a = runtime.create(IDLE)

        def body(ctx):
            ctx.wire("a -> ghost", env={"a": a})

        with pytest.raises(StreamError, match="unknown process"):
            run_in_state(runtime, body)

    def test_direction_mismatch_rejected(self, runtime):
        a = runtime.create(IDLE)
        b = runtime.create(IDLE)

        def body(ctx):
            ctx.wire("a -> b.output", env={"a": a, "b": b})

        with pytest.raises(StreamError, match="not an input port"):
            run_in_state(runtime, body)

    def test_chain_streams_dismantled_on_transition(self, runtime):
        from repro.manifold import Event

        a = runtime.create(IDLE)
        b = runtime.create(IDLE)
        go = Event("go")
        seen = {}

        def factory():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                seen["streams"] = ctx.wire(
                    "a -> b", env={"a": a, "b": b}, types={0: StreamType.BK}
                )
                ctx.post(go)
                yield ctx.idle()

            @block.state(go)
            def on_go(ctx):
                yield ctx.halt()

            return block

        coordinator = Coordinator(runtime, "Main", factory, deadline=10)
        coordinator.activate()
        assert coordinator.join(timeout=12)
        assert seen["streams"][0].source_broken
