"""The pool driver's channels, deterministically: scripted pipes, a fake
selector, the wheel on a fake clock, the real ``_run_pool`` and the real
``drive()`` loop.

Every test here runs under ``test_dispatch_core``'s ``no_substrate``
fixture — ``socket.socket`` and ``os.fork`` raise, ``time.sleep`` is
forbidden — so no worker process exists: the pool is a :class:`FakePool`
of :class:`FakeWorker` s whose pipe (:class:`ScriptedPipe`) answers what
a test put in it, and EOF once it is empty.  The lease is the real one,
its selector and clock swapped out, as ``test_link_machine.py`` swaps the
socket engine's.  Time passes only when a script moves the clock.
"""

from __future__ import annotations

import selectors
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.resilience import DeadlinePolicy, EscalationPolicy, RetryPolicy
from repro.restructured import parallel
from repro.restructured.dispatch import _DEADLINE_GRACE
from repro.restructured.parallel import _PoolLease, _run_pool
from repro.trace import TraceRecorder
from tests.restructured.test_dispatch_core import (  # noqa: F401 - autouse fixture
    FakeClock,
    no_substrate,
    payload_for,
    spec_for,
)

KEYS = ((2, 0), (1, 1), (0, 2))
DEADLINE = 10.0


class ScriptedPipe:
    """The master's end of a worker's pipe: what the driver sent, and
    the replies a script queued; an empty pipe reads EOF."""

    def __init__(self) -> None:
        self.sent: list = []
        self.replies: list = []

    def send(self, message) -> None:
        self.sent.append(message)

    def recv(self):
        if not self.replies:
            raise EOFError
        return self.replies.pop(0)

    def answer(self, status: str = "ok", pid: int = 0) -> None:
        """Reply to the last job sent down this pipe."""
        spec = self.sent[-1][0]
        body = replace(payload_for(spec), worker_pid=pid)
        self.replies.append((status, body if status == "ok" else "scripted"))


class FakeWorker:
    def __init__(self, pid: int) -> None:
        self.channel = ScriptedPipe()
        self.process = SimpleNamespace(pid=pid)


class FakePool:
    """``take``/``give``/``replace`` over fake workers; a replacement is
    a fresh worker with the next pid."""

    def __init__(self, workers: int) -> None:
        self.idle = [FakeWorker(100 + i) for i in range(workers)]
        self.seconds_per_unknown = None
        #: ``(pid, wedged)`` of every worker replaced
        self.replaced: list = []
        self.given: list = []
        self._next_pid = 200

    def take(self):
        return self.idle.pop(0) if self.idle else None

    def give(self, worker) -> None:
        self.given.append(worker.process.pid)
        self.idle.append(worker)

    def replace(self, worker, *, wedged: bool = False) -> bool:
        self.replaced.append((worker.process.pid, wedged))
        self.idle.append(FakeWorker(self._next_pid))
        self._next_pid += 1
        return False

    def keep_standbys(self, payloads) -> None:
        pass


class BatchSelector:
    """Who is registered for what; ``select`` is the test's script.  A
    pipe the script names after it was unregistered comes back with the
    key it was registered under — a late delivery for an attempt the
    core has superseded."""

    def __init__(self) -> None:
        self.registered: dict = {}
        self._keys: dict = {}
        self.script = None

    def register(self, fileobj, events, data) -> None:
        assert fileobj not in self.registered
        self.registered[fileobj] = self._keys[fileobj] = selectors.SelectorKey(
            fileobj, -1, events, data
        )

    def unregister(self, fileobj) -> None:
        del self.registered[fileobj]

    def select(self, timeout):
        ready = self.script(timeout)
        return [(self._keys[pipe], selectors.EVENT_READ) for pipe in ready]

    def close(self) -> None:
        pass


class Rig:
    def __init__(self, monkeypatch, workers: int = 2, processes: int = 2) -> None:
        self.clock = FakeClock()
        self.trace = TraceRecorder(clock=self.clock)
        self.pool = FakePool(workers)
        monkeypatch.setattr(parallel, "acquire_pool", lambda n: (self.pool, True))
        self.lease = _PoolLease(processes, shared=True)
        self.lease.selector.close()
        self.selector = self.lease.selector = BatchSelector()
        self.lease.clock = self.clock
        self.escalation = EscalationPolicy(
            retry=RetryPolicy(backoff_seconds=1.0, backoff_factor=1.0, jitter=0.0),
            deadline=DeadlinePolicy(default_seconds=DEADLINE),
        )
        self.selects = 0

    def busy(self) -> dict:
        """Every registered pipe, by the key of the attempt it carries."""
        for pipe, key in self.selector.registered.items():
            assert key.data.worker.channel is pipe
            assert key.events == selectors.EVENT_READ
        return {k.data.key: k for k in self.selector.registered.values()}

    def run(self, script, keys=KEYS):
        def checked(timeout):
            self.selects += 1
            assert self.selects < 1000, "the run does not end"
            busy = self.busy()
            assert 0 < len(busy) <= self.lease.processes
            return script(timeout)

        self.selector.script = checked
        return _run_pool(
            self.lease,
            [spec_for(key) for key in keys],
            use_cache=True,
            plan=None,
            escalation=self.escalation,
            trace=self.trace,
        )

    def answer_all(self, timeout):
        """Every busy worker answers its job."""
        ready = []
        for key in self.busy().values():
            pipe = key.fileobj
            pipe.answer(pid=key.data.worker.process.pid)
            ready.append(pipe)
        return ready

    def faults(self, outcome):
        return [
            (e.key, e.kind, e.detected_by, e.action) for e in outcome.report.events
        ]


def first_then(first, rest):
    """A script: ``first`` on the first select, ``rest`` afterwards."""
    calls = []

    def script(timeout):
        calls.append(timeout)
        return (first if len(calls) == 1 else rest)(timeout)

    return script


# ----------------------------------------------------------------------
# what a readable pipe says
# ----------------------------------------------------------------------
def test_an_ok_reply_is_the_result(monkeypatch):
    rig = Rig(monkeypatch)
    outcome = rig.run(rig.answer_all)
    assert sorted(outcome.completion_order) == sorted(KEYS)
    assert outcome.attempts == len(KEYS) and not outcome.report.events
    assert {k: p.worker_pid for k, p in outcome.payloads.items()} == {
        (2, 0): 100, (1, 1): 101, (0, 2): 100,
    }
    # every job went down its worker's own pipe, and every worker came back
    sent = [m for w in rig.pool.idle for m in w.channel.sent]
    assert sorted((s.l, s.m, a, c) for s, _, a, c in sent) == sorted(
        (l, m, 1, True) for l, m in KEYS
    )
    assert rig.pool.replaced == [] and rig.selector.registered == {}
    assert rig.pool.seconds_per_unknown == 0.0  # the rate it learned


def test_an_error_reply_is_a_transient_exception(monkeypatch):
    rig = Rig(monkeypatch)

    def error(timeout):
        key = rig.busy()[(2, 0)]
        key.fileobj.answer("error")
        return [key.fileobj]

    outcome = rig.run(first_then(error, rig.answer_all))
    assert rig.faults(outcome) == [((2, 0), "exception", "exception", "retry")]
    assert outcome.report.events[0].error == "scripted"
    # the worker answered, so it is given back, not replaced
    assert rig.pool.replaced == [] and rig.lease.replacements == []
    assert outcome.report.recovered_keys == ((2, 0),)
    assert sorted(outcome.completion_order) == sorted(KEYS)
    assert outcome.attempts == len(KEYS) + 1


def test_eof_is_a_crash_seen_by_liveness(monkeypatch):
    rig = Rig(monkeypatch)

    def die(timeout):
        return [rig.busy()[(2, 0)].fileobj]  # readable, and empty: EOF

    outcome = rig.run(first_then(die, rig.answer_all))
    assert rig.faults(outcome) == [((2, 0), "crash", "liveness", "reassign")]
    assert outcome.report.events[0].error == "worker pid 100 died"
    assert rig.pool.replaced == [(100, False)]
    assert rig.lease.replacements == ["cold"]
    assert not [e for e in rig.trace.events() if e.kind == "respawn"]
    # re-queued at the head: the successor takes it at its next attempt
    submits = [
        (e.key, e.attempt, e.worker)
        for e in rig.trace.events()
        if e.kind == "job_submit"
    ]
    assert submits[2] == ((2, 0), 2, 200)
    assert sorted(outcome.completion_order) == sorted(KEYS)


def _wedge_first_job(rig, then):
    """A script: the worker holding (2, 0) never answers; the clock runs
    to its deadline, and ``then`` takes over after the kill."""
    wedged = {}

    def script(timeout):
        busy = rig.busy()
        if not wedged:
            wedged["pipe"] = busy[(2, 0)].fileobj
            rig.clock.value += timeout  # nothing readable: time passes
            return []
        return then(wedged, timeout)

    return script


def test_a_deadline_kills_and_replaces_the_wedged_worker(monkeypatch):
    rig = Rig(monkeypatch, workers=1, processes=1)
    outcome = rig.run(_wedge_first_job(rig, lambda wedged, t: rig.answer_all(t)))
    assert rig.clock.value == pytest.approx(DEADLINE + _DEADLINE_GRACE)
    assert rig.faults(outcome) == [((2, 0), "deadline", "deadline", "reassign")]
    assert rig.pool.replaced == [(100, True)]
    assert rig.lease.replacements == ["cold"]
    assert [(e.key, e.attempt) for e in rig.trace.events() if e.kind == "respawn"] == [
        ((2, 0), 1)
    ]
    assert sorted(outcome.completion_order) == sorted(KEYS)
    assert {p.worker_pid for p in outcome.payloads.values()} == {200}


def test_a_late_reply_from_a_superseded_attempt_is_dropped(monkeypatch):
    rig = Rig(monkeypatch, workers=1, processes=1)
    late = []

    def then(wedged, timeout):
        # the killed worker's reply turns up after all, then its EOF
        pipe = wedged["pipe"]
        assert pipe not in rig.selector.registered
        if not late:
            pipe.answer(pid=100)
        if len(late) < 2:
            late.append(timeout)
            return [pipe]
        return rig.answer_all(timeout)

    outcome = rig.run(_wedge_first_job(rig, then))
    assert len(late) == 2
    # neither the late answer nor the EOF after it touched attempt 2
    assert rig.faults(outcome) == [((2, 0), "deadline", "deadline", "reassign")]
    assert outcome.payloads[(2, 0)].worker_pid == 200
    assert [
        e.attempt for e in rig.trace.events()
        if e.kind == "job_done" and e.key == (2, 0)
    ] == [2]
    assert rig.pool.replaced == [(100, True)] and rig.pool.given.count(100) == 0
    assert outcome.attempts == len(KEYS) + 1


# ----------------------------------------------------------------------
# nothing to wait for
# ----------------------------------------------------------------------
def test_a_starved_run_raises_without_waiting(monkeypatch):
    """Another run takes the only worker the moment it is given back:
    with nothing of its own in flight the run raises at once — it never
    blocks on a wheel that holds only a finished job's deadline."""
    rig = Rig(monkeypatch, workers=1, processes=1)
    give = rig.pool.give

    def give_to_another_run(worker):
        give(worker)
        rig.pool.idle.clear()

    rig.pool.give = give_to_another_run
    timeouts = []

    def script(timeout):
        timeouts.append(timeout)
        return rig.answer_all(timeout)

    with pytest.raises(RuntimeError, match="another run holds them all"):
        rig.run(script)
    assert timeouts == [DEADLINE + _DEADLINE_GRACE]  # one select, one job in it
    assert rig.clock.value == 0.0


def test_a_run_with_no_worker_at_all_raises_before_selecting(monkeypatch):
    rig = Rig(monkeypatch, workers=0)
    with pytest.raises(RuntimeError, match="another run holds them all"):
        rig.run(rig.answer_all)
    assert rig.selects == 0
