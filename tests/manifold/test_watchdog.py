"""The stall watchdog, checked by the thread waiting in ``run_application``.

Each test here runs an application whose ``Main`` hangs until its
deadline, or ends on a worker's cue, with the watchdog's checks on the
test thread, the one in ``run_application``.  The episode rules at
chosen instants, with no application, are ``test_clock.py``'s.
"""

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
    StateMachineError,
    make_void,
    run_application,
)
from repro.manifold.watchdog import StallReport, Watchdog


def run_hung(runtime, seconds: float) -> None:
    """Run an application whose ``Main`` idles until its ``seconds``
    deadline fails it."""
    block = Block("Main")

    @block.state(BEGIN)
    def begin(ctx):
        yield ctx.idle()

    main = Coordinator(runtime, "Main", block, deadline=seconds)
    with pytest.raises(StateMachineError, match="exceeded its deadline"):
        run_application(runtime, main, timeout=seconds + 10)


def run_until_done(runtime, body) -> None:
    """Run an application whose ``Main`` halts once a process running
    ``body`` has ended."""
    block = Block("Main")

    @block.state(BEGIN)
    def begin(ctx):
        yield ctx.terminated(ctx.spawn(AtomicDefinition("cue", body)))
        yield ctx.halt()

    run_application(runtime, Coordinator(runtime, "Main", block), timeout=30)


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
            run_hung(runtime, 0.6)
        assert reports, "the stall was not detected"
        report = reports[0]
        assert report.stalled_for_seconds >= 0.2
        assert any("void" in name for name in report.live_processes)
        assert "no coordination activity" in report.describe()

    def test_reports_once_per_episode(self, runtime):
        make_void(runtime)
        reports = []
        with Watchdog(runtime, timeout=0.1, on_stall=reports.append):
            run_hung(runtime, 0.5)
        assert len(reports) == 1

    def test_activity_resets_episode(self, runtime):
        make_void(runtime)
        reports = []

        def heartbeats(proc):
            for _ in range(8):
                proc.raise_event(Event("heartbeat"))
                time.sleep(0.05)

        with Watchdog(runtime, timeout=0.25, on_stall=reports.append):
            run_until_done(runtime, heartbeats)
        assert reports == []

    def test_reports_accessible_without_callback(self, runtime):
        make_void(runtime)
        with Watchdog(runtime, timeout=0.1) as dog:
            run_hung(runtime, 0.3)
            assert dog.reports()

    def test_pending_events_counted(self, runtime):
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
        """``stop()`` around a known-quiet phase, then ``start()``, from a
        worker while the application runs: the restarted watchdog reports
        the next stall too."""
        make_void(runtime)
        stalled = threading.Event()
        dog = Watchdog(runtime, timeout=0.2, on_stall=lambda r: stalled.set())
        unreported = []

        def restart_twice(proc):
            for episode in range(2):
                dog.start()
                try:
                    if not stalled.wait(timeout=5.0):
                        unreported.append(episode)
                finally:
                    dog.stop()
                stalled.clear()

        run_until_done(runtime, restart_twice)
        assert unreported == []
        assert len(dog.reports()) == 2

    def test_quiet_time_before_start_is_not_counted(self, runtime):
        """A pulse already flat for longer than the timeout when a worker
        starts the watchdog is reported one timeout after ``start()``, not
        at once: quiet time counts from the later of the last beat and
        the start."""
        make_void(runtime)
        stalled = threading.Event()
        reported_at = []

        def on_stall(report):
            reported_at.append(time.monotonic())
            stalled.set()

        dog = Watchdog(runtime, timeout=0.2, on_stall=on_stall)
        started = []

        def start_when_flat(proc):
            time.sleep(0.3)  # flat for longer than the timeout
            started.append(time.monotonic())
            with dog:
                stalled.wait(timeout=5.0)

        run_until_done(runtime, start_when_flat)
        assert reported_at, "the stall was not reported"
        assert reported_at[0] - started[0] >= 0.2

    def test_invalid_timeout_rejected(self, runtime):
        with pytest.raises(ValueError):
            Watchdog(runtime, timeout=0.0)

    def test_detects_protocol_deadlock(self, runtime):
        """The motivating scenario: an unsupervised worker crash leaves
        the protocol waiting forever; the watchdog sees it."""
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
        main = Coordinator(runtime, "Main", main_body, deadline=1.5)
        with Watchdog(runtime, timeout=0.4, on_stall=reports.append):
            with pytest.raises(StateMachineError, match="exceeded its deadline"):
                run_application(runtime, main, timeout=30)
        assert reports, "the protocol deadlock went unnoticed"
