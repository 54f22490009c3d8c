"""Process lifecycle, failure capture, death events, built-ins."""

from __future__ import annotations

import sys
import threading
import time

import pytest

from repro.manifold import (
    DEATH,
    AtomicDefinition,
    Event,
    EventMemory,
    ProcessError,
    ProcessState,
    Runtime,
    Stream,
    Variable,
    make_printer,
    make_sink,
    make_variable,
    make_void,
)
from repro.manifold import process as process_module
from repro.trace import TraceRecorder, recording


class TestLifecycle:
    def test_created_then_active_then_terminated(self, runtime):
        proc = runtime.create(AtomicDefinition("quick", lambda p: None))
        assert proc.state is ProcessState.CREATED
        proc.activate()
        assert proc.join(timeout=2.0)
        assert proc.state is ProcessState.TERMINATED

    def test_double_activation_rejected(self, runtime):
        proc = runtime.spawn(AtomicDefinition("quick", lambda p: None))
        proc.join(timeout=2.0)
        with pytest.raises(ProcessError):
            proc.activate()

    def test_spawn_activates(self, runtime):
        proc = runtime.spawn(AtomicDefinition("quick", lambda p: None))
        assert proc.join(timeout=2.0)

    def test_instance_names_are_unique(self, runtime):
        defn = AtomicDefinition("w", lambda p: None)
        a = runtime.create(defn)
        b = runtime.create(defn)
        assert a.name != b.name
        assert a.definition_name == b.definition_name == "w"

    def test_parameters_passed_to_body(self, runtime):
        seen = []
        defn = AtomicDefinition("param", lambda p, x, y: seen.append((x, y)))
        runtime.spawn(defn, 1, 2).join(timeout=2.0)
        assert seen == [(1, 2)]

    def test_failure_captured(self, runtime):
        def bad(proc):
            raise ValueError("worker exploded")

        proc = runtime.spawn(AtomicDefinition("bad", bad))
        proc.join(timeout=2.0)
        assert proc.state is ProcessState.FAILED
        assert isinstance(proc.failure, ValueError)
        assert "worker exploded" in proc.failure_traceback

    def test_runtime_check_raises_worker_failure(self, runtime):
        def bad(proc):
            raise RuntimeError("boom")

        runtime.spawn(AtomicDefinition("bad", bad)).join(timeout=2.0)
        with pytest.raises(RuntimeError, match="boom"):
            runtime.check()

    def test_kill_interrupts_blocked_worker(self, runtime):
        proc = runtime.spawn(AtomicDefinition("blocked", lambda p: p.read()))
        time.sleep(0.02)
        proc.kill()
        assert proc.join(timeout=2.0)

    def test_port_interrupt_is_clean_exit_not_failure(self, runtime):
        proc = runtime.spawn(AtomicDefinition("blocked", lambda p: p.read()))
        time.sleep(0.02)
        runtime.shutdown()
        proc.join(timeout=2.0)
        assert proc.state is not ProcessState.FAILED

    def test_default_ports_exist(self, runtime):
        proc = runtime.create(AtomicDefinition("p", lambda p: None))
        assert set(proc.ports) == {"input", "output", "error"}

    def test_custom_ports(self, runtime):
        defn = AtomicDefinition(
            "master", lambda p: None, in_ports=("input", "dataport")
        )
        proc = runtime.create(defn)
        assert "dataport" in proc.ports

    def test_duplicate_port_name_rejected(self, runtime):
        defn = AtomicDefinition(
            "broken", lambda p: None, in_ports=("x",), out_ports=("x",)
        )
        with pytest.raises(ProcessError):
            runtime.create(defn)

    def test_reference_points_to_process(self, runtime):
        proc = runtime.create(AtomicDefinition("p", lambda p: None))
        assert proc.reference().process is proc


class TestDeathEvents:
    def test_death_broadcast_on_termination(self, runtime):
        memory = EventMemory()
        runtime.subscribe(memory)
        proc = runtime.spawn(AtomicDefinition("quick", lambda p: None))
        proc.join(timeout=2.0)
        occ = memory.wait_for_match({DEATH: 0}, timeout=2.0)
        assert occ is not None
        assert occ.source is proc

    def test_raised_events_reach_subscribers(self, runtime):
        memory = EventMemory()
        runtime.subscribe(memory)
        done = Event("done")
        proc = runtime.spawn(AtomicDefinition("raiser", lambda p: p.raise_event(done)))
        proc.join(timeout=2.0)
        occ = memory.wait_for_match({done: 0}, timeout=2.0)
        assert occ is not None and occ.source is proc

    def test_event_log_records_broadcasts(self, runtime):
        done = Event("done")
        with recording(TraceRecorder()) as rec:
            proc = runtime.spawn(AtomicDefinition("raiser", lambda p: p.raise_event(done)))
            proc.join(timeout=2.0)
        names = [e.data.get("event") for e in rec.events()]
        assert "done" in names

    def test_unsubscribed_memory_not_delivered(self, runtime):
        memory = EventMemory()
        runtime.subscribe(memory)
        runtime.unsubscribe(memory)
        runtime.spawn(AtomicDefinition("quick", lambda p: None)).join(timeout=2.0)
        assert len(memory) == 0


class TestBuiltins:
    def test_variable_initial_value(self, runtime):
        var = make_variable(runtime, 7)
        assert var.get() == 7

    def test_variable_increment(self, runtime):
        var = make_variable(runtime, 0)
        assert var.increment() == 1
        assert var.increment(5) == 6

    def test_variable_increment_from_none(self, runtime):
        var = make_variable(runtime)
        assert var.increment() == 1

    def test_variable_port_write_updates_value(self, runtime):
        producer = runtime.create(AtomicDefinition("p", lambda p: None))
        var = make_variable(runtime, 0)
        Stream().connect(producer.output, var.input)
        producer.output.write(42)
        deadline = time.monotonic() + 2.0
        while var.get() != 42 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert var.get() == 42

    def test_shutdown_ends_an_unwired_variable(self, runtime):
        var = make_variable(runtime, 0)
        runtime.shutdown()
        assert var.join(timeout=2.0)
        assert var.state is ProcessState.TERMINATED

    def test_a_stream_wired_before_activation_is_served_at_activation(
        self, runtime
    ):
        producer = runtime.create(AtomicDefinition("p", lambda p: None))
        var = Variable(runtime, "variable", 0)
        runtime.adopt(var)
        Stream().connect(producer.output, var.input)
        producer.output.write(42)
        assert var.get() == 0
        var.activate()
        deadline = time.monotonic() + 2.0
        while var.get() != 42 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert var.get() == 42

    def test_a_stream_attached_after_kill_starts_no_thread(
        self, runtime, monkeypatch
    ):
        started: list[str] = []
        monkeypatch.setattr(
            process_module, "start_thread", lambda body, name: started.append(name)
        )
        producer = runtime.create(AtomicDefinition("p", lambda p: None))
        var = make_variable(runtime, 0)
        var.kill()
        assert var.join(timeout=2.0)
        Stream().connect(producer.output, var.input)
        assert started == []
        assert var.state is ProcessState.TERMINATED

    def test_variable_increments_from_two_threads(self, runtime):
        var = make_variable(runtime, 0)
        seen: list[list[int]] = [[], []]

        def count(into: list[int]) -> None:
            for _ in range(5_000):
                into.append(var.increment())

        threads = [threading.Thread(target=count, args=(s,)) for s in seen]
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10.0)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(previous)
        assert var.get() == 10_000
        assert sorted(seen[0] + seen[1]) == list(range(1, 10_001))

    def test_void_never_terminates(self, runtime):
        void = make_void(runtime)
        assert not void.join(timeout=0.1)
        assert void.state is ProcessState.ACTIVE

    def test_sink_swallows_units(self, runtime):
        producer = runtime.create(AtomicDefinition("p", lambda p: None))
        sink = make_sink(runtime)
        Stream().connect(producer.output, sink.input)
        producer.output.write("gone")
        deadline = time.monotonic() + 2.0
        while sink.input.pending() > 0 and time.monotonic() < deadline:
            time.sleep(0.005)
        assert sink.input.pending() == 0

    def test_printer_emits_lines(self, runtime):
        lines: list[str] = []
        producer = runtime.create(AtomicDefinition("p", lambda p: None))
        printer = make_printer(runtime, emit=lines.append)
        Stream().connect(producer.output, printer.input)
        producer.output.write("hello")
        deadline = time.monotonic() + 2.0
        while not lines and time.monotonic() < deadline:
            time.sleep(0.005)
        assert lines and "hello" in lines[0]


class TestRuntime:
    def test_live_processes_listed(self, runtime):
        void = make_void(runtime)
        assert void in runtime.live_processes()

    def test_join_all_times_out_on_blocked(self, runtime):
        make_void(runtime)
        assert runtime.join_all(timeout=0.1) is False

    def test_context_manager_shuts_down(self):
        with Runtime("ctx") as rt:
            void = make_void(rt)
        assert void.join(timeout=2.0)

    def test_activation_hooks_fire(self, runtime):
        seen = []
        runtime.on_activate_hooks.append(lambda p: seen.append(("up", p.name)))
        runtime.on_death_hooks.append(lambda p: seen.append(("down", p.name)))
        proc = runtime.spawn(AtomicDefinition("hooked", lambda p: None))
        proc.join(timeout=2.0)
        kinds = [k for k, _ in seen]
        assert kinds == ["up", "down"]
