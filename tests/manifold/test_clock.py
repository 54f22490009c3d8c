"""The MANIFOLD runtime's time at chosen instants: no sleep, no clock.

What the thread waiting in ``run_application`` fires off its timer
wheel is a watchdog's ``check(now)`` and a coordinator's ``expire()``.
Here the test thread calls them itself.  A fake clock stamps the
runtime's pulse, so each episode rule holds at exact instants; the
coordinators that stay alive run inline, so no thread is involved but
a plain ``begin``'s own.
"""

from __future__ import annotations

import time
import types

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Event,
    ProcessState,
    Runtime,
    StateMachineError,
)
from repro.manifold import scheduler, watchdog
from repro.manifold.timers import TimerWheel
from repro.manifold.watchdog import Watchdog

BEAT = Event("beat")


def _forbidden_sleep(seconds):
    raise AssertionError("the clock suite must not sleep")


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    monkeypatch.setattr(time, "sleep", _forbidden_sleep)


class FakeClock:
    def __init__(self, t: float = 1000.0) -> None:
        self.t = t

    def __call__(self) -> float:
        return self.t


@pytest.fixture()
def clock(monkeypatch) -> FakeClock:
    """The runtime's clock, which stamps each beat of the pulse and each
    timer handed to it, and the clock a started watchdog looks at."""
    fake = FakeClock()
    for module in (scheduler, watchdog):
        monkeypatch.setattr(module, "time", types.SimpleNamespace(monotonic=fake))
    return fake


@pytest.fixture()
def app(clock):
    runtime = Runtime("clock")
    yield runtime
    runtime.shutdown()


def idler(runtime: Runtime, *, setup=None, deadline=None) -> Coordinator:
    """An activated inline coordinator that idles: alive, with no thread."""
    block = Block("idle", setup=setup)

    @block.state(BEGIN)
    def begin(ctx):
        yield ctx.idle()

    return Coordinator(runtime, "Idle", block, deadline=deadline).activate()


class TestWatchdogCheck:
    """One rule of an episode per test, each at instants the test picks."""

    def test_reports_once_per_episode(self, app):
        idle = idler(app)  # the pulse's last beat: 1000
        reports = []
        dog = Watchdog(app, timeout=2.0, on_stall=reports.append)
        assert dog.check(1000.0) == 2.0  # the first look: quiet from here
        assert dog.check(1001.5) == 0.5
        assert reports == []
        assert dog.check(1002.0) == 2.0  # flat for the timeout
        assert dog.check(1010.0) == 2.0
        assert dog.check(1100.0) == 2.0
        assert [r.stalled_for_seconds for r in reports] == [2.0]
        assert reports[0].live_processes == (idle.name,)
        assert dog.reports() == reports

    def test_activity_resets_the_episode(self, app, clock):
        idler(app)
        reports = []
        dog = Watchdog(app, timeout=2.0, on_stall=reports.append)
        dog.check(1000.0)
        for beat in (1001.0, 1002.5, 1004.0):
            clock.t = beat
            app.raise_event(BEAT)
            assert dog.check(beat + 1.5) == 0.5
        assert reports == []
        dog.check(1006.0)  # flat since the beat at 1004
        clock.t = 1007.0
        app.raise_event(BEAT)  # a new episode
        dog.check(1008.0)
        dog.check(1009.0)
        assert [r.stalled_for_seconds for r in reports] == [2.0, 2.0]

    def test_quiet_time_before_start_is_not_counted(self, app):
        idler(app)  # flat from 1000 on
        reports = []
        dog = Watchdog(app, timeout=2.0, on_stall=reports.append)
        for start in (1100.0, 1200.0):  # and again after a restart
            dog.start()
            assert dog.check(start) == 2.0  # flat for 100 s: not reported
            assert dog.check(start + 1.0) == 1.0
            dog.check(start + 2.0)
            dog.stop()
        assert [r.stalled_for_seconds for r in reports] == [2.0, 2.0]

    def test_nothing_alive_means_silence(self, app, clock):
        reports = []
        dog = Watchdog(app, timeout=2.0, on_stall=reports.append)
        for now in (1000.0, 1010.0, 1100.0):
            assert dog.check(now) == 2.0
        assert reports == []
        clock.t = 1100.5
        idler(app)  # alive from here; quiet from the activation
        assert dog.check(1101.0) == 1.5
        dog.check(1102.5)
        assert [r.stalled_for_seconds for r in reports] == [2.0]

    def test_start_hands_the_runtime_its_first_check(self, app, clock):
        """The checks are timers of the thread in ``Runtime.serve``: the
        first handed over by ``start()``, each next one by the last."""
        idler(app)
        reports = []
        dog = Watchdog(app, timeout=2.0, on_stall=reports.append).start()
        wheel = TimerWheel(clock)
        app.serve(wheel, lambda: len(wheel) > 0)  # the first look, at once
        assert wheel.next_timeout() == 2.0
        assert reports == []
        clock.t = 1002.0
        app.serve(wheel, lambda: bool(reports))
        assert [r.stalled_for_seconds for r in reports] == [2.0]
        dog.stop()
        clock.t = 1010.0
        app.serve(wheel, lambda: len(wheel) == 0)  # a stopped chain ends
        assert len(reports) == 1


class TestExpire:
    """A passed deadline, as ``run_application``'s thread fires it."""

    def test_tears_an_inline_coordinator_down_in_the_caller(self, app):
        children = []

        def setup(ctx):
            children.append(ctx.create(AtomicDefinition("child", lambda p: None)))
            return {"child": children[0]}

        idle = idler(app, setup=setup, deadline=60.0)
        idle.expire()
        assert idle.state is ProcessState.FAILED
        assert isinstance(idle.failure, StateMachineError)
        assert str(idle.failure) == f"{idle.name} exceeded its deadline while waiting"
        assert children[0].state is ProcessState.TERMINATED

    def test_wakes_a_plain_wait(self, app):
        block = Block("plain")

        @block.state(BEGIN)
        def begin(ctx):
            ctx.idle()

        coordinator = Coordinator(app, "Plain", block).activate()
        coordinator.expire()
        assert coordinator.join(timeout=5.0)
        assert isinstance(coordinator.failure, StateMachineError)
        assert "exceeded its deadline while waiting" in str(coordinator.failure)

    def test_ends_the_inline_blocks_a_plain_begin_runs(self, app):
        inner = Block("inner", save_all=True)

        @inner.state(BEGIN)
        def inner_begin(ctx):
            yield ctx.idle()

        outer = Block("outer")

        @outer.state(BEGIN)
        def begin(ctx):
            ctx.run_block(inner)

        coordinator = Coordinator(app, "Outer", outer).activate()
        coordinator.expire()
        assert coordinator.join(timeout=5.0)
        assert isinstance(coordinator.failure, StateMachineError)
        assert "exceeded its deadline" in coordinator.failure_traceback

    def test_after_the_end_changes_nothing(self, app):
        block = Block("quick")

        @block.state(BEGIN)
        def begin(ctx):
            yield ctx.halt()

        coordinator = Coordinator(app, "Quick", block).activate()
        assert coordinator.state is ProcessState.TERMINATED
        coordinator.expire()
        assert coordinator.state is ProcessState.TERMINATED
        assert coordinator.failure is None
