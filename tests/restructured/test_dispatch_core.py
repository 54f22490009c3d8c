"""The dispatch core, deterministically: a scripted in-memory driver and
a fake clock — no process, no socket, no real time.

Every test here runs with ``socket.socket`` and ``os.fork`` patched to
raise and ``time.sleep`` forbidden, so "transport-agnostic" and "never
sleeps" are enforced, not assumed.  Time passes only when a test moves
the :class:`FakeClock` and fires the wheel.
"""

from __future__ import annotations

import ast
import os
import socket
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest

import repro

from repro.manifold.timers import TimerWheel
from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    FaultToleranceExhausted,
    RetryPolicy,
)
from repro.restructured import dispatch
from repro.restructured.dispatch import (
    DispatchCore,
    Driver,
    JobState,
    Slot,
)
from repro.restructured.worker import SubsolveJobSpec, SubsolvePayload
from repro.trace import TraceRecorder

TERMINAL = {JobState.DONE, JobState.FALLBACK, JobState.FAILED}
DEADLINE = 10.0


def _forbidden(name):
    def call(*args, **kwargs):
        raise AssertionError(f"the dispatch core suite must not call {name}")

    return call


@pytest.fixture(autouse=True)
def no_substrate(monkeypatch):
    monkeypatch.setattr(socket, "socket", _forbidden("socket.socket"))
    monkeypatch.setattr(os, "fork", _forbidden("os.fork"))
    monkeypatch.setattr(time, "sleep", _forbidden("time.sleep"))
    # the in-master fallback, without the solver
    monkeypatch.setattr(
        dispatch, "execute_job", lambda spec, use_cache=True: payload_for(spec)
    )


@dataclass
class FakeClock:
    value: float = 0.0

    def __call__(self) -> float:
        return self.value


def spec_for(key) -> SubsolveJobSpec:
    return SubsolveJobSpec("rotating-cone", root=2, l=key[0], m=key[1], tol=1e-3)


def payload_for(spec) -> SubsolvePayload:
    return SubsolvePayload(
        spec.l, spec.m, np.zeros(1), 0, 0, 0, 0, wall_seconds=0.0, work_units=0.0
    )


@dataclass
class Rig:
    """A core over ``workers`` one-slot in-memory workers."""

    keys: tuple
    workers: int = 2
    escalation: EscalationPolicy = field(
        default_factory=lambda: EscalationPolicy(
            retry=RetryPolicy(backoff_seconds=1.0, backoff_factor=1.0, jitter=0.0),
            deadline=DeadlinePolicy(default_seconds=DEADLINE),
        )
    )

    def __post_init__(self):
        self.clock = FakeClock()
        self.timers = TimerWheel(self.clock)
        self.trace = TraceRecorder(clock=self.clock)
        self.free = [f"w{i}" for i in range(self.workers)]
        self.retired: list[tuple] = []
        self.core = DispatchCore(
            [spec_for(key) for key in self.keys],
            Driver(place=self.place, launch=self.launch, retire=self.retire),
            escalation=self.escalation,
            timers=self.timers,
            trace=self.trace,
        )
        self.core.dispatch_ready()

    def place(self):
        return Slot(self.free[0], self.free[0]) if self.free else None

    def launch(self, job):
        self.free.remove(job.worker)

    def retire(self, job, kind):
        self.free.append(job.worker)
        self.retired.append((job.key, job.attempt, kind))

    # -- the script's verbs ------------------------------------------------
    def advance(self, seconds):
        self.clock.value += seconds
        self.timers.fire_due()
        self.core.dispatch_ready()

    def finish(self, key):
        job = self.core.pending[key]
        self.core.result(key, job.attempt, payload_for(job.spec))
        self.core.dispatch_ready()

    def fault(self, key, kind):
        self.core.fault(key, kind, detected_by="script")
        self.core.dispatch_ready()

    def drain(self):
        """Finish whatever is in flight, and let backoffs expire, until
        the core reports done."""
        for _ in range(1000):
            if self.core.done:
                return
            for key in list(self.core.pending):
                self.finish(key)
            self.advance(1.0)
        raise AssertionError("the core never reported done")

    def kinds(self, key):
        return [e.kind for e in self.trace.events() if e.key == key]


# ----------------------------------------------------------------------
# the ladder
# ----------------------------------------------------------------------
#: (kind, failed attempt) -> step, written out — not computed by decide()
DEFAULT_LADDER = {
    (kind, attempt): step
    for kind, steps in {
        "crash": ("reassign", "reassign", "fallback"),
        "hang": ("reassign", "reassign", "fallback"),
        "deadline": ("reassign", "reassign", "fallback"),
        "exception": ("retry", "retry", "fallback"),
    }.items()
    for attempt, step in enumerate(steps, start=1)
}


class TestLadder:
    @pytest.mark.parametrize("kind", sorted({k for k, _ in DEFAULT_LADDER}))
    def test_default_policy_kind_by_attempt(self, kind):
        rig = Rig(keys=((1, 1),))
        for attempt in (1, 2, 3):
            assert rig.core.pending[(1, 1)].attempt == attempt
            rig.fault((1, 1), kind)
            event = rig.core.log.events()[-1]
            assert (event.kind, event.attempt) == (kind, attempt)
            assert event.action == DEFAULT_LADDER[kind, attempt]
        # no clock moved: a reassign waits for nothing, and a retry's
        # backoff ends when a slot would otherwise sit idle
        assert rig.clock.value == 0.0
        assert rig.core.state[(1, 1)] is JobState.FALLBACK
        assert rig.core.done
        outcome = rig.core.outcome()
        assert outcome.report.fallback_keys == ((1, 1),)
        assert outcome.report.recovered_keys == ((1, 1),)
        assert outcome.attempts == 3

    @pytest.mark.parametrize("kind", sorted({k for k, _ in DEFAULT_LADDER}))
    def test_single_attempt_policy_falls_back_at_once(self, kind):
        rig = Rig(
            keys=((1, 1),),
            escalation=EscalationPolicy(retry=RetryPolicy(max_attempts=1)),
        )
        rig.fault((1, 1), kind)
        (event,) = rig.core.log.events()
        assert event.action == "fallback"
        assert rig.core.state[(1, 1)] is JobState.FALLBACK
        assert len(rig.timers) == 1  # only the void deadline; nothing parked

    def test_exhausted_ladder_fails_with_the_report(self):
        rig = Rig(
            keys=((1, 1), (0, 2)),
            escalation=EscalationPolicy(
                retry=RetryPolicy(max_attempts=1), sequential_fallback=False
            ),
        )
        with pytest.raises(FaultToleranceExhausted) as info:
            rig.fault((1, 1), "crash")
        assert info.value.report.failed_key == (1, 1)
        assert not info.value.report.survived
        assert rig.core.state[(1, 1)] is JobState.FAILED

    def test_a_failing_fallback_fails_the_run_with_its_cause(self, monkeypatch):
        boom = RuntimeError("solver blew up")

        def broken(spec, use_cache=True):
            raise boom

        monkeypatch.setattr(dispatch, "execute_job", broken)
        rig = Rig(
            keys=((1, 1),),
            escalation=EscalationPolicy(retry=RetryPolicy(max_attempts=1)),
        )
        with pytest.raises(FaultToleranceExhausted) as info:
            rig.fault((1, 1), "exception")
        assert info.value.__cause__ is boom
        assert [e.action for e in info.value.report.events] == ["fallback", "fail"]

    def test_per_key_trace_order(self):
        rig = Rig(keys=((1, 1),))
        rig.advance(0.5)
        rig.fault((1, 1), "crash")
        rig.finish((1, 1))
        assert rig.kinds((1, 1))[:4] == ["job_submit", "fault", "retry", "job_submit"]
        retry = next(e for e in rig.trace.events() if e.kind == "retry")
        assert retry.data["backoff_seconds"] == 0.0  # re-queued at once
        assert retry.t == 0.5


# ----------------------------------------------------------------------
# the ledger
# ----------------------------------------------------------------------
class TestLedger:
    KEYS = ((2, 0), (1, 1), (0, 2), (1, 0), (0, 1))

    def _mixed_run(self):
        rig = Rig(keys=self.KEYS, workers=2)
        rig.fault((2, 0), "crash")            # re-queued: attempt 2 takes the slot
        rig.finish((1, 1))                    # (0, 2) takes this one
        rig.fault((0, 2), "exception")        # parks; (1, 0) takes the slot
        rig.advance(1.0)                      # the backoff expires
        rig.drain()
        return rig

    def test_every_key_reaches_exactly_one_terminal_state(self):
        rig = self._mixed_run()
        assert set(rig.core.state) == set(self.KEYS)
        assert all(state in TERMINAL for state in rig.core.state.values())
        outcome = rig.core.outcome()
        assert sorted(outcome.completion_order) == sorted(self.KEYS)
        assert len(outcome.completion_order) == len(set(outcome.completion_order))
        assert set(outcome.payloads) == set(self.KEYS)
        assert not rig.core.pending and not rig.core.ready

    def test_attempts_are_monotone_per_key(self):
        rig = self._mixed_run()
        submitted: dict = {}
        for event in rig.trace.events():
            if event.kind == "job_submit":
                submitted.setdefault(event.key, []).append(event.attempt)
        assert set(submitted) == set(self.KEYS)
        for attempts in submitted.values():
            assert attempts[0] == 1
            assert all(b - a == 1 for a, b in zip(attempts, attempts[1:]))
        assert rig.core.attempts == sum(map(len, submitted.values()))

    def test_late_result_for_a_superseded_attempt_is_ignored(self):
        rig = Rig(keys=((1, 1),))
        rig.fault((1, 1), "crash")
        assert rig.core.pending[(1, 1)].attempt == 2  # reassigned at once
        # the lost worker answers after all: wrong attempt, dropped
        rig.core.result((1, 1), 1, payload_for(spec_for((1, 1))))
        rig.core.fault((1, 1), "exception", detected_by="script", attempt=1)
        assert rig.core.pending[(1, 1)].attempt == 2
        assert len(rig.core.log) == 1
        rig.finish((1, 1))
        assert rig.core.outcome().report.recovered_keys == ((1, 1),)
        # and a second answer after completion changes nothing
        rig.core.result((1, 1), 2, payload_for(spec_for((1, 1))))
        assert rig.core.outcome().completion_order == ((1, 1),)


# ----------------------------------------------------------------------
# time
# ----------------------------------------------------------------------
class TestTime:
    @pytest.mark.parametrize("kind", sorted(EscalationPolicy.REASSIGN_KINDS))
    def test_a_reassign_is_requeued_with_no_timer(self, kind):
        rig = Rig(keys=((2, 0), (1, 1)), workers=1)
        timers = len(rig.timers)                  # (2, 0)'s deadline
        rig.core.fault((2, 0), kind, detected_by="script")
        (event,) = rig.core.log.events()
        assert event.action == "reassign"
        assert rig.core.state[(2, 0)] is JobState.READY
        assert rig.core.ready[0] == (spec_for((2, 0)), 2)  # ahead of (1, 1)
        assert len(rig.timers) == timers and not rig.core.parked
        rig.core.dispatch_ready()
        assert rig.core.pending[(2, 0)].attempt == 2
        assert rig.core.state[(1, 1)] is JobState.READY

    def test_a_parked_retry_waits_only_while_ready_work_wants_the_slot(self):
        rig = Rig(keys=((2, 0), (1, 1), (0, 2)), workers=2)
        rig.fault((2, 0), "exception")
        assert rig.clock.value == 0.0             # the core moved no clock
        assert rig.core.state[(2, 0)] is JobState.BACKOFF
        # the freed slot went to the next ready key at once
        assert rig.core.state[(0, 2)] is JobState.IN_FLIGHT
        rig.advance(0.25)
        assert rig.core.state[(2, 0)] is JobState.BACKOFF
        # nothing is ready: the slot (1, 1) frees takes the retry at once
        rig.finish((1, 1))
        job = rig.core.pending[(2, 0)]
        assert (job.attempt, job.submitted_at) == (2, 0.25)
        retry = next(e for e in rig.trace.events() if e.kind == "retry")
        assert retry.data["backoff_seconds"] == 0.25  # what it waited
        rig.finish((0, 2))
        rig.finish((2, 0))
        assert rig.core.done
        assert rig.core.outcome().completion_order == ((1, 1), (0, 2), (2, 0))
        assert rig.clock.value == 0.25

    def test_a_stale_backoff_timer_does_nothing(self):
        rig = Rig(keys=((2, 0), (1, 1)), workers=2)
        place = rig.core.driver.place
        rig.fault((2, 0), "exception")            # parked until 1.0...
        assert rig.core.pending[(2, 0)].attempt == 2  # ...taken at once
        # attempt 2 faults with no slot to be had: parked until 1.5
        rig.core.driver = rig.core.driver._replace(place=lambda: None)
        rig.advance(0.5)
        rig.fault((2, 0), "exception")
        assert rig.core.state[(2, 0)] is JobState.BACKOFF
        rig.advance(0.5)                          # attempt 1's timer: void
        assert rig.core.state[(2, 0)] is JobState.BACKOFF
        assert not rig.core.ready
        rig.core.driver = rig.core.driver._replace(place=place)
        rig.advance(0.5)                          # attempt 2's timer
        assert rig.core.pending[(2, 0)].attempt == 3
        retries = [e for e in rig.trace.events() if e.kind == "retry"]
        assert [(e.attempt, e.data["backoff_seconds"]) for e in retries] == [
            (2, 0.0),
            (3, 1.0),
        ]
        rig.drain()
        assert rig.core.attempts == 4             # (1, 1) once, (2, 0) thrice

    def test_a_persistent_raise_ends_in_the_same_ladder_events(self):
        rig = Rig(keys=((1, 1), (0, 2)), workers=2)
        for _ in range(3):
            rig.fault((1, 1), "exception")
        rig.finish((0, 2))
        assert [(e.kind, e.attempt, e.action) for e in rig.core.log.events()] == [
            ("exception", 1, "retry"),
            ("exception", 2, "retry"),
            ("exception", 3, "fallback"),
        ]
        assert rig.core.done and rig.clock.value == 0.0
        assert rig.core.outcome().report.fallback_keys == ((1, 1),)
        assert rig.kinds((1, 1)).count("retry") == 2

    def test_deadline_is_a_timer_on_the_wheels_clock(self):
        rig = Rig(keys=((1, 1), (0, 2)), workers=2)
        rig.advance(4.0)
        rig.finish((0, 2))
        rig.advance(DEADLINE - 4.0)               # not yet: the grace
        assert len(rig.core.log) == 0
        rig.advance(0.01)
        (event,) = rig.core.log.events()
        assert (event.key, event.kind, event.action) == ((1, 1), "deadline", "reassign")
        assert event.detected_by == "deadline"
        assert event.seconds_lost == pytest.approx(DEADLINE + 0.01)
        assert rig.retired[-1] == ((1, 1), 1, "deadline")
        # the finished key's timer fired too, and was void
        assert rig.core.state[(0, 2)] is JobState.DONE

    def test_deadline_scales_with_the_learned_rate(self):
        policy = DeadlinePolicy(factor=8.0, floor_seconds=2.0, default_seconds=60.0)

        def rig(keys):
            return Rig(
                keys=keys, workers=1, escalation=EscalationPolicy(deadline=policy)
            )

        def answer(rig, key, wall_seconds):
            payload = payload_for(spec_for(key))
            rig.core.result(key, 1, replace(payload, wall_seconds=wall_seconds))
            rig.core.dispatch_ready()

        # (a) before the first result: the flat default
        heavy = rig(((3, 1), (0, 2)))
        assert heavy.core.pending[(3, 1)].deadline_at == policy.default_seconds
        # (b) w seconds on n unknowns price a job on n' unknowns at
        # factor * n' * w / n
        w, n = 1.5, spec_for((3, 1)).grid.n_interior
        n_next = spec_for((0, 2)).grid.n_interior
        heavy.clock.value = 1.0
        answer(heavy, (3, 1), w)
        budget = policy.factor * n_next * w / n
        assert budget > policy.floor_seconds
        assert heavy.core.pending[(0, 2)].deadline_at == pytest.approx(1.0 + budget)
        # a cheaper sample never shortens it: the largest rate stands
        answer(heavy, (0, 2), 0.0)
        assert heavy.core.seconds_per_unknown == w / n
        # (c) after a cheap result, a hang is convicted at the floor
        cheap = rig(((1, 1), (0, 2)))
        answer(cheap, (1, 1), 1e-4)
        cheap.advance(policy.floor_seconds)       # not yet: the grace
        assert len(cheap.core.log) == 0
        cheap.advance(0.01)
        (event,) = cheap.core.log.events()
        assert (event.key, event.kind) == ((0, 2), "deadline")
        assert event.seconds_lost == pytest.approx(policy.floor_seconds + 0.01)
        # (d) a second core handed the first one's rate starts with it
        second = DispatchCore(
            [spec_for((0, 2))],
            Driver(lambda: Slot("w"), lambda job: None, lambda job, kind: None),
            escalation=EscalationPolicy(deadline=policy),
            timers=TimerWheel(FakeClock()),
            seconds_per_unknown=heavy.core.seconds_per_unknown,
        )
        second.dispatch_ready()
        assert second.pending[(0, 2)].deadline_at == pytest.approx(budget)


# ----------------------------------------------------------------------
# retire before the ladder's next step
# ----------------------------------------------------------------------
class TestRetireOrdering:
    """The driver reclaims the faulted attempt's worker *before* the
    ladder moves: the kill of a wedged worker has to come before the
    retry and before the in-master fallback alike."""

    def test_retire_precedes_the_retry(self):
        rig = Rig(keys=((1, 1),))
        seen = []
        rig.core.driver = rig.core.driver._replace(
            retire=lambda job, kind: seen.append(
                (kind, rig.core.state[job.key], len(rig.timers))
            )
        )
        rig.core.fault((1, 1), "hang", detected_by="script")
        # inside retire: not yet re-queued, only the deadline on the wheel
        assert seen == [("hang", JobState.IN_FLIGHT, 1)]
        # after it: at the head of the queue, and no timer armed
        assert rig.core.state[(1, 1)] is JobState.READY
        assert rig.core.ready[0] == (spec_for((1, 1)), 2)
        assert len(rig.timers) == 1

    def test_retire_precedes_the_fallback(self, monkeypatch):
        order = []

        def fallback(spec, use_cache=True):
            order.append("fallback")
            return payload_for(spec)

        monkeypatch.setattr(dispatch, "execute_job", fallback)
        rig = Rig(
            keys=((1, 1),),
            escalation=EscalationPolicy(retry=RetryPolicy(max_attempts=1)),
        )
        rig.core.driver = rig.core.driver._replace(
            retire=lambda job, kind: order.append(("retire", kind))
        )
        rig.core.fault((1, 1), "hang", detected_by="script")
        assert order == [("retire", "hang"), "fallback"]
        assert rig.core.state[(1, 1)] is JobState.FALLBACK
        assert rig.kinds((1, 1))[-4:] == ["fallback", "cache_miss", "job_start", "job_done"]



# ----------------------------------------------------------------------
# one loop
# ----------------------------------------------------------------------
def test_drive_is_the_only_loop_over_a_core():
    """Both substrates go through ``dispatch.drive``: no other module of
    the package launches ready jobs, and the only other module that
    fires a wheel is the MANIFOLD runtime's (``Runtime.serve``, over no
    core), so a second dispatch loop cannot come back unnoticed."""
    package = Path(repro.__file__).parent
    callers: dict[str, set] = {"dispatch_ready": set(), "fire_due": set()}
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in callers
            ):
                callers[node.func.attr].add(str(path.relative_to(package)))
    assert callers == {
        "dispatch_ready": {"restructured/dispatch.py"},
        "fire_due": {"restructured/dispatch.py", "manifold/scheduler.py"},
    }


def test_the_pool_is_the_only_owner_of_task_instances():
    """Only the pool forks a task instance: the ``run_concurrent``
    engine and a socket daemon take theirs from a pool, so a second
    idle list or death rule cannot come back unnoticed."""
    package = Path(repro.__file__).parent
    owners = set()
    for path in package.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "_TaskInstance"
            ):
                owners.add(str(path.relative_to(package)))
    assert owners == {"restructured/pool.py"}
