"""The stall watchdog."""

from __future__ import annotations

import threading
import time

import pytest

from repro.manifold import AtomicDefinition, Event, Runtime, make_void
from repro.manifold.watchdog import StallReport, Watchdog


class TestActivityCounter:
    def test_broadcast_ticks(self, runtime):
        before = runtime.activity_count
        runtime.raise_event(Event("ping"))
        assert runtime.activity_count == before + 1

    def test_activation_and_death_tick(self, runtime):
        before = runtime.activity_count
        proc = runtime.spawn(AtomicDefinition("quick", lambda p: None))
        proc.join(timeout=2.0)
        # activation + death + death-event broadcast
        assert runtime.activity_count >= before + 3

    def test_each_beat_is_stamped(self, runtime):
        before = time.monotonic()
        runtime.raise_event(Event("ping"))
        assert before <= runtime.last_activity <= time.monotonic()
        before = time.monotonic()
        runtime.spawn(AtomicDefinition("quick", lambda p: None)).join(timeout=2.0)
        assert before <= runtime.last_activity <= time.monotonic()


class TestWatchdog:
    def test_detects_deadlocked_process(self, runtime):
        make_void(runtime)  # alive and forever silent
        reports: list[StallReport] = []
        with Watchdog(runtime, timeout=0.2, on_stall=reports.append):
            time.sleep(0.6)
        assert reports, "the stall was not detected"
        report = reports[0]
        assert report.stalled_for_seconds >= 0.2
        assert any("void" in name for name in report.live_processes)
        assert "no coordination activity" in report.describe()

    def test_reports_once_per_episode(self, runtime):
        make_void(runtime)
        reports = []
        with Watchdog(runtime, timeout=0.1, on_stall=reports.append):
            time.sleep(0.5)
        assert len(reports) == 1

    def test_activity_resets_episode(self, runtime):
        make_void(runtime)
        reports = []
        with Watchdog(runtime, timeout=0.25, on_stall=reports.append):
            for _ in range(8):
                runtime.raise_event(Event("heartbeat"))
                time.sleep(0.05)
        assert reports == []

    def test_silent_when_nothing_alive(self, runtime):
        reports = []
        with Watchdog(runtime, timeout=0.1, on_stall=reports.append):
            time.sleep(0.3)
        assert reports == []

    def test_reports_accessible_without_callback(self, runtime):
        make_void(runtime)
        with Watchdog(runtime, timeout=0.1) as dog:
            time.sleep(0.3)
            assert dog.reports()

    def test_pending_events_counted(self, runtime):
        from repro.manifold import Block, Coordinator, BEGIN

        def body():
            block = Block("hang")

            @block.state(BEGIN)
            def begin(ctx):
                ctx.idle()

            return block

        coord = Coordinator(runtime, "Hung", body)
        coord.activate()
        runtime.raise_event(Event("unhandled"))
        time.sleep(0.05)
        dog = Watchdog(runtime, timeout=0.1)
        report = dog.snapshot(stalled_for=1.0)
        assert report.pending_events >= 1
        coord.kill()

    def test_double_start_rejected(self, runtime):
        dog = Watchdog(runtime, timeout=1.0).start()
        try:
            with pytest.raises(RuntimeError):
                dog.start()
        finally:
            dog.stop()

    def test_reports_again_after_a_restart(self, runtime):
        """``stop()`` around a known-quiet phase, then ``start()``: the
        restarted watchdog reports the next stall too."""
        make_void(runtime)
        stalled = threading.Event()
        dog = Watchdog(runtime, timeout=0.2, on_stall=lambda r: stalled.set())
        for episode in range(2):
            dog.start()
            try:
                assert stalled.wait(timeout=5.0), f"stall {episode} unreported"
            finally:
                dog.stop()
            stalled.clear()
        assert len(dog.reports()) == 2

    def test_quiet_time_before_start_is_not_counted(self, runtime):
        """A pulse already flat for longer than the timeout when the
        watchdog starts is reported one timeout after ``start()``, not
        at once: quiet time counts from the later of the last beat and
        the start."""
        make_void(runtime)
        time.sleep(0.3)  # flat for longer than the timeout below
        stalled = threading.Event()
        reported_at = []

        def on_stall(report):
            reported_at.append(time.monotonic())
            stalled.set()

        started = time.monotonic()
        with Watchdog(runtime, timeout=0.2, on_stall=on_stall):
            assert stalled.wait(timeout=5.0), "the stall was not reported"
        assert reported_at[0] - started >= 0.2

    def test_invalid_timeout_rejected(self, runtime):
        with pytest.raises(ValueError):
            Watchdog(runtime, timeout=0.0)

    def test_detects_protocol_deadlock(self, runtime):
        """The motivating scenario: an unsupervised worker crash leaves
        the protocol waiting forever; the watchdog sees it."""
        from repro.manifold import BEGIN, Block, Coordinator
        from repro.protocol import (
            MasterProtocolClient,
            WorkerJob,
            make_worker_definition,
            protocol_mw,
        )

        def crash(x):
            raise RuntimeError("boom")

        worker_defn = make_worker_definition("Worker", crash)

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=10)
            client.run_pool([WorkerJob(0, 0)])
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )

        def main_body():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                master = ctx.spawn(master_defn)
                ctx.run_block(protocol_mw(master, worker_defn))
                ctx.terminated(master)
                ctx.halt()

            return block

        reports = []
        main = Coordinator(runtime, "Main", main_body, deadline=30)
        with Watchdog(runtime, timeout=0.4, on_stall=reports.append):
            main.activate()
            time.sleep(1.5)
        assert reports, "the protocol deadlock went unnoticed"
