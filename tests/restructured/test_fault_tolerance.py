"""Fault-tolerant ``run_multiprocessing``: real crashes, hangs and
transient faults against the real pool of task instances.

Everything here uses the seeded, deterministic injector of
:mod:`repro.resilience.inject`, so each test observes the *same* faults
on every run.  The acceptance invariant throughout: a recovered run's
combined solution is bitwise identical to a fault-free run's, because
``subsolve`` is deterministic per spec and replays are idempotent.

The cheap tests run at level 2 (5 grids) so crash recovery is exercised
in tier-1; the level-6 kill of the issue's acceptance criterion is
marked ``slow`` and runs via ``pytest -m slow``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    FaultToleranceExhausted,
    RetryPolicy,
)
from repro.restructured import (
    PersistentWorkerPool,
    PoolClosedError,
    acquire_pool,
    pool_diagnostics,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured.worker import SubsolveJobSpec

LEVEL = 2
TOL = 1.0e-3


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _run(**kw):
    kw.setdefault("root", 2)
    kw.setdefault("level", LEVEL)
    kw.setdefault("tol", TOL)
    kw.setdefault("processes", 2)
    return run_multiprocessing(**kw)


@pytest.fixture(scope="module")
def fault_free_combined():
    result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
    shutdown_pool()
    return result.combined


class TestResilientFaultFree:
    def test_no_faults_means_clean_counters_and_identical_result(
        self, fault_free_combined
    ):
        result = _run(escalation=EscalationPolicy(retry=RetryPolicy()))
        assert result.faults == 0
        assert result.recovered == 0
        assert result.fallbacks == 0
        assert result.attempts == result.n_workers  # one attempt per grid
        assert np.array_equal(result.combined, fault_free_combined)

    def test_default_run_one_attempt_each(self):
        result = _run()
        assert result.attempts == result.n_workers
        assert result.fault_report.events == ()


#: a *default* level-7 run (no ``faults``, no ``escalation``) on the warm
#: shared pool, one of whose workers is SIGKILLed 50 ms in — mid-run,
#: a warm run takes about 0.2 s.  Prints what the parent test asserts.
KILL_A_WORKER = """
import json, os, signal, threading
import numpy as np
from repro.restructured import acquire_pool, run_multiprocessing
from repro.sparsegrid import SequentialApplication

reference = SequentialApplication(root=2, level=7, tol=1e-3).run().combined
for _ in range(2):
    run_multiprocessing(root=2, level=7, tol=1e-3, processes=2)
pool, was_warm = acquire_pool(2)
victim = min(pool.worker_pids())
timer = threading.Timer(0.05, os.kill, (victim, signal.SIGKILL))
timer.start()
hit = run_multiprocessing(root=2, level=7, tol=1e-3, processes=2)
timer.join()
after = run_multiprocessing(root=2, level=7, tol=1e-3, processes=2)
print(json.dumps({
    "was_warm": was_warm,
    "victim_gone": victim not in acquire_pool(2)[0].worker_pids(),
    "hit_bitwise": bool(np.array_equal(hit.combined, reference)),
    "hit": [hit.faults, hit.recovered, hit.fallbacks],
    "hit_kinds": [e.kind for e in hit.fault_report.events],
    "after_warm": after.warm_pool,
    "after_bitwise": bool(np.array_equal(after.combined, reference)),
    "after": [after.faults, after.recovered, after.fallbacks],
}))
"""


#: each worker of the warm shared pool in turn is SIGKILLed while *idle*
#: — what an OOM kill between two runs looks like — and the next run
#: must not notice.  ``waitid(WNOWAIT)`` waits for the death without
#: reaping it: the corpse is the pool's to find.
KILL_AN_IDLE_WORKER = """
import json, os, signal
import numpy as np
from repro.resilience import DeadlinePolicy, EscalationPolicy
from repro.restructured import acquire_pool, run_multiprocessing

def run():
    return run_multiprocessing(
        root=2, level=5, tol=1e-3, processes=2,
        escalation=EscalationPolicy(
            deadline=DeadlinePolicy(floor_seconds=3, default_seconds=3)
        ),
    )

reference = run().combined
seen = []
for victim in sorted(acquire_pool(2)[0].worker_pids()):
    os.kill(victim, signal.SIGKILL)
    os.waitid(os.P_PID, victim, os.WEXITED | os.WNOWAIT)
    after = run()
    seen.append({
        "warm": after.warm_pool,
        "victim_gone": victim not in acquire_pool(2)[0].worker_pids(),
        "bitwise": bool(np.array_equal(after.combined, reference)),
        "faults": after.faults,
    })
print(json.dumps(seen))
"""


class TestDefaultRun:
    """Nothing has to be passed to get the ladder: the default call is
    driven by the dispatch core like every other."""

    def test_worker_killed_mid_run(self):
        # in a subprocess with a timeout: a lost job that is never
        # convicted means a run that never returns
        done = subprocess.run(
            [sys.executable, "-c", KILL_A_WORKER],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        seen = json.loads(done.stdout)
        assert seen == {
            "was_warm": True,
            "victim_gone": True,
            "hit_bitwise": True,
            "hit": [1, 1, 0],
            "hit_kinds": ["crash"],
            "after_warm": True,
            "after_bitwise": True,
            "after": [0, 0, 0],
        }

    def test_idle_worker_killed_between_runs(self):
        # in a subprocess with a timeout: on ``multiprocessing.Pool`` the
        # dead worker held a queue lock and the next run never returned
        done = subprocess.run(
            [sys.executable, "-c", KILL_AN_IDLE_WORKER],
            capture_output=True, text=True, timeout=30,
        )
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == 2 * [
            {"warm": True, "victim_gone": True, "bitwise": True, "faults": 0}
        ]

    def test_failed_run_leaves_nothing_behind(self):
        """A run that fails on its first grid takes its other jobs with
        it: nothing stays queued or running in the shared pool, so the
        next run finds every worker idle."""
        level7 = dict(root=2, level=7, tol=TOL, processes=2)
        reference = run_multiprocessing(**level7).combined
        pool, _ = acquire_pool(2)
        before = pool_diagnostics()["jobs_dispatched"]
        with pytest.raises(FaultToleranceExhausted):
            run_multiprocessing(
                **level7,
                faults="raise@3,4:attempt=*",
                escalation=EscalationPolicy(
                    retry=RetryPolicy(max_attempts=1), sequential_fallback=False
                ),
            )
        assert pool_diagnostics()["jobs_dispatched"] - before <= pool.processes
        held = [pool.take() for _ in range(pool.processes)]
        assert None not in held
        for worker in held:
            pool.give(worker)
        after = run_multiprocessing(**level7)
        assert after.warm_pool is True
        assert np.array_equal(after.combined, reference)

    @pytest.mark.parametrize("engine", ("pool", "socket"))
    def test_deterministic_exception(self, engine):
        """A spec that raises on every worker *and* in the master's
        fallback: the run fails with the whole history and the original
        exception, the same on both engines."""
        with pytest.raises(FaultToleranceExhausted) as info:
            _run(engine=engine, problem_name="no-such-problem")
        assert isinstance(info.value.__cause__, KeyError)
        assert "no-such-problem" in str(info.value.__cause__)
        report = info.value.report
        assert not report.survived
        failed = [e for e in report.events if e.key == report.failed_key]
        # RetryPolicy() allows three attempts, then the in-master one
        assert [(e.attempt, e.kind, e.action) for e in failed] == [
            (1, "exception", "retry"),
            (2, "exception", "retry"),
            (3, "exception", "fallback"),
            (3, "exception", "fail"),
        ]
        assert failed[-1].detected_by == "fallback"
        assert all("no-such-problem" in e.error for e in failed)


class TestCrashRecovery:
    def test_killed_worker_is_detected_and_job_replayed(
        self, fault_free_combined
    ):
        result = _run(faults="crash@1,1")
        assert result.faults == 1
        assert result.recovered == 1
        assert result.fallbacks == 0
        assert result.attempts == result.n_workers + 1
        event = result.fault_report.events[0]
        assert event.kind == "crash"
        assert event.detected_by == "liveness"
        assert event.action == "reassign"
        assert (1, 1) in result.fault_report.recovered_keys
        assert np.array_equal(result.combined, fault_free_combined)

    def test_recovery_report_survives(self):
        result = _run(faults="crash@0,2")
        report = result.fault_report
        assert report.survived
        assert report.faults == 1
        assert report.recovered_keys == ((0, 2),)

    def test_private_pool_recovers_and_shuts_down(self, fault_free_combined):
        result = _run(warm_pool=False, faults="crash@2,0")
        assert result.faults == 1 and result.recovered == 1
        assert np.array_equal(result.combined, fault_free_combined)


class TestTransientFaults:
    def test_single_transient_exception_is_retried(self, fault_free_combined):
        result = _run(
            faults="raise@1,1",
            escalation=EscalationPolicy(
                retry=RetryPolicy(max_attempts=3, backoff_seconds=0.01)
            ),
        )
        assert result.faults == 1
        assert result.recovered == 1
        assert result.fallbacks == 0
        event = result.fault_report.events[0]
        assert event.kind == "exception"
        assert event.action == "retry"
        assert "injected transient fault" in event.error
        assert np.array_equal(result.combined, fault_free_combined)

    def test_retry_event_carries_the_backoff_it_waited(self):
        """The pool's ``retry`` event carries the seconds its grid was
        actually parked for — stamped by the dispatch core, the same
        code path as the socket engine's — which is the planned delay
        at most: a worker that comes free with nothing ready takes the
        grid early."""
        from repro.trace import TraceAnalysis, TraceRecorder

        policy = RetryPolicy(backoff_seconds=0.05, jitter=0.0)
        recorder = TraceRecorder()
        result = _run(
            faults="raise@1,1",
            escalation=EscalationPolicy(retry=policy),
            trace=recorder,
        )
        assert result.faults == 1 and result.recovered == 1
        events = recorder.events()
        fault = next(e for e in events if e.kind == "fault")
        (retry,) = (e for e in events if e.kind == "retry")
        waited = retry.data["backoff_seconds"]
        assert waited == pytest.approx(retry.t - fault.t, abs=2e-3)
        assert 0.0 < waited <= policy.delay_seconds(1, (1, 1)) + 0.02
        assert TraceAnalysis.from_recorder(
            recorder
        ).retry_backoff_seconds == pytest.approx(waited)

    def test_persistent_fault_degrades_to_sequential_fallback(
        self, fault_free_combined
    ):
        result = _run(
            faults="raise@1,1:attempt=*",
            escalation=EscalationPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01)
            ),
        )
        assert result.faults == 2  # both attempts raised
        assert result.fallbacks == 1
        assert (1, 1) in result.fault_report.fallback_keys
        assert result.fault_report.events[-1].action == "fallback"
        # graceful degradation preserves the answer exactly
        assert np.array_equal(result.combined, fault_free_combined)

    def test_exhaustion_without_fallback_raises_with_report(self):
        with pytest.raises(FaultToleranceExhausted) as info:
            _run(
                faults="raise@1,1:attempt=*",
                escalation=EscalationPolicy(
                    retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                    sequential_fallback=False,
                ),
            )
        report = info.value.report
        assert not report.survived
        assert report.failed_key == (1, 1)
        assert report.faults == 2


class TestHangRecovery:
    def test_hung_worker_trips_deadline_and_pool_respawns(
        self, fault_free_combined
    ):
        respawns = pool_diagnostics()["respawns"]
        result = _run(
            faults="hang@1,1:seconds=120",
            escalation=EscalationPolicy(
                deadline=DeadlinePolicy(floor_seconds=1.5, default_seconds=1.5)
            ),
        )
        assert result.faults >= 1
        kinds = {e.kind for e in result.fault_report.events}
        assert "deadline" in kinds
        assert pool_diagnostics()["respawns"] - respawns >= 1
        assert (1, 1) in result.fault_report.recovered_keys
        assert np.array_equal(result.combined, fault_free_combined)

    def test_a_hang_costs_one_worker(self, fault_free_combined):
        _run()  # warm the two-worker pool
        before = acquire_pool(2)[0].worker_pids()
        respawns = pool_diagnostics()["respawns"]
        options, _ = CHAOS["hang"]
        result = _run(**options)
        after = acquire_pool(2)[0].worker_pids()
        assert result.warm_pool and len(before) == len(after) == 2
        assert len(after - before) == 1  # the wedged one, nothing else
        assert pool_diagnostics()["respawns"] - respawns == 1
        assert np.array_equal(result.combined, fault_free_combined)

    @pytest.mark.parametrize("engine", ("pool", "socket"))
    def test_a_slow_host_is_not_a_hung_one(self, engine, fault_free_combined):
        _run(engine=engine)  # warm: the run starts with a learned rate
        result = _run(engine=engine, faults="slow@*:factor=4")
        assert result.warm_pool
        assert result.faults == 0
        assert np.array_equal(result.combined, fault_free_combined)

    @pytest.mark.parametrize("engine", ("pool", "socket"))
    def test_a_warm_run_convicts_a_hang_at_the_floor(self, engine):
        """The default ladder, no ``escalation=``: the substrate kept the
        rate its last run learned, so a hung job gets the 2 s floor, not
        the 60 s ``default_seconds`` of a run that knows nothing yet."""
        reference = _run(engine=engine, level=3)
        started = time.perf_counter()
        result = _run(engine=engine, level=3, faults="hang@1,2:seconds=120")
        elapsed = time.perf_counter() - started
        assert result.warm_pool
        assert np.array_equal(result.combined, reference.combined)
        assert [(e.key, e.kind) for e in result.fault_report.events] == [
            ((1, 2), "deadline")
        ]
        assert elapsed < 10.0


class TestColdPoolCrash:
    def test_death_seen_before_the_start_beat_still_convicts(self):
        """Benchmark finding F1.  On a cold pool the transient fault on
        (1,3) is handled while the other worker takes (2,2), beats and
        dies; a master that is busy then (it used to sleep the backoff
        on the dispatch thread) reaps the death before it drains the
        beat.  The job must be convicted as a crash all the same, not
        left to wait out its deadline."""
        reference = run_multiprocessing(
            root=2, level=5, tol=TOL, processes=2
        ).combined
        shutdown_pool()
        result = run_multiprocessing(
            root=2,
            level=5,
            tol=TOL,
            processes=2,
            faults="crash@2,2;raise@1,3",
            escalation=EscalationPolicy(deadline=DeadlinePolicy(default_seconds=3)),
        )
        assert {e.kind for e in result.fault_report.events} == {
            "exception", "crash"
        }
        assert (result.faults, result.recovered, result.fallbacks) == (2, 2, 0)
        assert np.array_equal(result.combined, reference)


#: one fault schedule per row, with what *either* engine must report:
#: (faults, recovered, fallbacks, fault kinds, ladder actions)
CHAOS = {
    "crash": (
        {"faults": "crash@2,0"},
        (1, 1, 0, ("crash",), ("reassign",)),
    ),
    "raise": (
        {"faults": "raise@1,1"},
        (1, 1, 0, ("exception",), ("retry",)),
    ),
    "hang": (
        {
            "faults": "hang@1,1:seconds=120",
            "escalation": EscalationPolicy(
                deadline=DeadlinePolicy(floor_seconds=1.5, default_seconds=1.5)
            ),
        },
        (1, 1, 0, ("deadline",), ("reassign",)),
    ),
    "slow": (
        {"faults": "slow@1,1:factor=3"},
        (0, 0, 0, (), ()),
    ),
    "hang-to-fallback": (
        {
            "faults": "hang@1,1:attempt=*,seconds=120",
            "escalation": EscalationPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                deadline=DeadlinePolicy(floor_seconds=1.0, default_seconds=1.0),
            ),
        },
        (2, 1, 1, ("deadline", "deadline"), ("reassign", "fallback")),
    ),
    "fallback": (
        {
            "faults": "raise@1,1:attempt=*",
            "escalation": EscalationPolicy(
                retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01)
            ),
        },
        (2, 1, 1, ("exception", "exception"), ("retry", "fallback")),
    ),
}


@pytest.mark.parametrize("engine", ("pool", "socket"))
class TestChaosMatrix:
    """The ladder is one implementation, so one fault schedule must read
    the same on both substrates: bitwise-equal result, identical counts,
    kinds and actions.  What legitimately differs per engine (who
    detected it, respawn vs reconnect) is asserted in the per-engine
    suites, not here — but for the one count the pool keeps itself: a
    wedged worker is replaced once per ``deadline`` fault, before the
    retry or the in-master fallback."""

    @pytest.mark.parametrize("scenario", sorted(CHAOS))
    def test_recovery_reads_the_same(self, engine, scenario, fault_free_combined):
        options, expected = CHAOS[scenario]
        respawns = pool_diagnostics()["respawns"]
        result = _run(engine=engine, **options)
        events = result.fault_report.events
        assert np.array_equal(result.combined, fault_free_combined)
        assert (
            result.faults,
            result.recovered,
            result.fallbacks,
            tuple(e.kind for e in events),
            tuple(e.action for e in events),
        ) == expected
        if engine == "pool":
            assert pool_diagnostics()["respawns"] - respawns == sum(
                e.kind == "deadline" for e in events
            )

    def test_exhausted_ladder_raises_with_the_report(self, engine):
        with pytest.raises(FaultToleranceExhausted) as info:
            _run(
                engine=engine,
                faults="raise@1,1:attempt=*",
                escalation=EscalationPolicy(
                    retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                    sequential_fallback=False,
                ),
            )
        report = info.value.report
        assert report.failed_key == (1, 1)
        assert not report.survived
        assert [(e.kind, e.action) for e in report.events] == [
            ("exception", "retry"),
            ("exception", "fail"),
        ]


@pytest.mark.slow
class TestLevelSixAcceptance:
    @pytest.mark.parametrize(
        "options, respawns",
        [
            # kill the worker holding a heavy top-diagonal grid mid-run
            ({"faults": "crash@3,3"}, 0),
            # wedge it instead: that one worker is killed and replaced
            (
                {
                    "faults": "hang@3,3:seconds=120",
                    "escalation": EscalationPolicy(deadline=DeadlinePolicy(
                        floor_seconds=2.0, default_seconds=2.0
                    )),
                },
                1,
            ),
        ],
        ids=("crash", "hang"),
    )
    def test_mid_run_kill_at_level_6_is_bitwise_transparent(
        self, options, respawns
    ):
        baseline = run_multiprocessing(root=2, level=6, tol=TOL, processes=4)
        before = pool_diagnostics()["respawns"]
        result = run_multiprocessing(
            root=2, level=6, tol=TOL, processes=4, **options
        )
        assert result.faults == 1
        assert result.recovered == 1
        assert result.fallbacks == 0
        assert pool_diagnostics()["respawns"] - before == respawns
        assert np.array_equal(result.combined, baseline.combined)


class TestShutdownSubmitRace:
    def test_submit_during_graceful_shutdown_fails_fast(self):
        """Satellite (a): a taker racing ``shutdown()`` gets a clean
        ``PoolClosedError`` immediately — it must not hang behind the
        drain — and the in-flight job still completes."""
        pool = PersistentWorkerPool(2)
        spec = SubsolveJobSpec(
            problem_name="rotating-cone", root=2, l=1, m=1, tol=TOL
        )
        worker = pool.take()
        worker.channel.send((spec, None, 1, True))
        shutter = threading.Thread(target=pool.shutdown)
        shutter.start()
        try:
            while not pool.closed:  # pragma: no branch
                time.sleep(0.001)
            started = time.monotonic()
            with pytest.raises(PoolClosedError, match="shut down"):
                pool.take()
            # failed fast: did not queue behind the graceful drain
            assert time.monotonic() - started < 1.0
            assert worker.channel.poll(60)
            status, payload = worker.channel.recv()
            assert status == "ok" and (payload.l, payload.m) == (1, 1)
            pool.give(worker)  # to a closed pool: stopped, not parked
            assert worker.process.exitcode == 0
        finally:
            shutter.join()

    def test_pool_closed_error_is_a_runtime_error(self):
        # callers guarding against the old generic error keep working
        assert issubclass(PoolClosedError, RuntimeError)
