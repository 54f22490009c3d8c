"""A pool worker's warm standby: made, promoted and ended.

A warm worker keeps one standby, an ``os.fork()`` of itself made while
it is idle, so a worker lost to a crash or a hang is succeeded by a copy
that holds its operator and LU caches.  These tests run the real fork
pool at level 2-3 with ``processes=1``, where every job lands on the one
worker and the cache contents are deterministic: one run fills the
caches, the next adds nothing, and at its end the worker is copied.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    FaultToleranceExhausted,
    RetryPolicy,
)
from repro.restructured import (
    acquire_pool,
    pool_diagnostics,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured.taskengine import _TaskInstance
from repro.trace import TraceRecorder
from tests.conftest import process_running as _alive

TOL = 1.0e-3
SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _run(level=3, **kw):
    kw.setdefault("processes", 1)
    return run_multiprocessing(root=2, level=level, tol=TOL, **kw)


def _warm(level=3):
    """Two clean runs on one worker: the first fills its caches, the
    second adds nothing, so the worker is copied at its end."""
    for _ in range(2):
        result = _run(level)
    assert result.operator_cache_misses == 0
    return result


def _pool_processes() -> set[int]:
    """Every worker of the shared pool and every standby it keeps."""
    pool, _ = acquire_pool(1)
    pids = set()
    for worker in pool._workers:
        pids.add(worker.process.pid)
        if worker.standby is not None and worker.standby.process.is_alive():
            pids.add(worker.standby.process.pid)
    return pids


class TestPromotion:
    def test_a_crash_is_replayed_on_the_standby_warm(self):
        reference = _warm()
        before = pool_diagnostics()
        result = _run(faults="crash@2,0")
        assert (result.faults, result.recovered, result.fallbacks) == (1, 1, 0)
        assert result.replacements == ("standby",)
        replay = result.payloads[(2, 0)]
        assert replay.operator_cache_hit and replay.factorizations == 0
        assert result.operator_cache_misses == 0
        assert np.array_equal(result.combined, reference.combined)
        after = pool_diagnostics()
        assert after["promotions"] - before["promotions"] == 1
        assert after["respawns"] == before["respawns"]  # a crash is no respawn

    def test_a_wedged_workers_standby_is_promoted(self):
        reference = _warm()
        before = pool_diagnostics()
        result = _run(
            faults="hang@2,0:seconds=120",
            escalation=EscalationPolicy(
                deadline=DeadlinePolicy(floor_seconds=0.5, default_seconds=0.5)
            ),
        )
        (event,) = result.fault_report.events
        assert (event.kind, event.action) == ("deadline", "reassign")
        assert result.replacements == ("standby",)
        replay = result.payloads[(2, 0)]
        assert replay.operator_cache_hit and replay.factorizations == 0
        assert np.array_equal(result.combined, reference.combined)
        after = pool_diagnostics()
        assert after["promotions"] - before["promotions"] == 1
        assert after["respawns"] - before["respawns"] == 1

    def test_a_worker_with_no_standby_is_succeeded_by_a_cold_fork(self):
        result = _run(faults="crash@2,0")  # a fresh pool: nothing copied yet
        assert result.replacements == ("cold",)
        assert not result.payloads[(2, 0)].operator_cache_hit

    def test_a_dead_idle_worker_is_succeeded_by_its_standby(self):
        reference = _warm()
        (worker,) = acquire_pool(1)[0]._workers
        standby = worker.standby.process.pid
        os.kill(worker.process.pid, signal.SIGKILL)
        os.waitid(os.P_PID, worker.process.pid, os.WEXITED | os.WNOWAIT)
        result = _run()
        assert result.faults == 0
        assert {p.worker_pid for p in result.payloads.values()} == {standby}
        assert result.operator_cache_misses == 0
        assert np.array_equal(result.combined, reference.combined)


class TestWhenToCopy:
    @pytest.fixture
    def copies(self, monkeypatch):
        made: list = []
        copy = _TaskInstance.copy

        def counted(worker):
            made.append(worker.process.pid)
            copy(worker)

        monkeypatch.setattr(_TaskInstance, "copy", counted)
        return made

    def test_a_cold_run_forks_no_standby(self, copies):
        for _ in range(3):
            _run(warm_pool=False)
        assert copies == []

    def test_a_worker_is_copied_once_its_caches_stop_growing(self, copies):
        _run()
        assert copies == []  # the first run filled the caches
        _run()
        (pid,) = copies      # the second added nothing
        for _ in range(2):
            _run()
        assert copies == [pid]  # the standby is as new as the caches
        _run(level=4)          # new grids: the standby is now older...
        assert copies == [pid]
        _run(level=4)          # ...and is replaced once nothing grows
        assert copies == [pid, pid]


class TestEnding:
    @pytest.mark.parametrize("how", ["ok", "failed", "forced"])
    def test_shutdown_leaves_no_worker_or_standby_alive(self, how):
        _warm()
        _run(faults="crash@2,0")  # the promoted standby is now a worker
        _run()                    # ...and copied in turn
        if how == "failed":
            with pytest.raises(FaultToleranceExhausted):
                _run(
                    faults="raise@1,1:attempt=*",
                    escalation=EscalationPolicy(
                        retry=RetryPolicy(max_attempts=2),
                        sequential_fallback=False,
                    ),
                )
        pids = _pool_processes()
        assert len(pids) == 2  # a worker and its standby
        if how == "forced":
            # the worker is killed, so it cannot end its standby itself
            acquire_pool(1)[0].shutdown(force=True)
        shutdown_pool()
        assert [pid for pid in pids if _alive(pid)] == []

    def test_a_standby_leaves_when_its_master_is_killed(self):
        script = (
            "import time\n"
            "from repro.restructured import acquire_pool, run_multiprocessing\n"
            "for _ in range(2):\n"
            "    run_multiprocessing(root=2, level=2, tol=1e-3, processes=1)\n"
            "(worker,) = acquire_pool(1)[0]._workers\n"
            "print(worker.process.pid, worker.standby.process.pid, flush=True)\n"
            "time.sleep(120)\n"
        )
        master = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            worker, standby = map(int, master.stdout.readline().split())
            assert _alive(worker) and _alive(standby)
        finally:
            master.kill()
            master.wait()
            master.stdout.close()
        deadline = time.monotonic() + 5.0
        while (_alive(worker) or _alive(standby)) and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not _alive(standby) and not _alive(worker)


class TestObservability:
    def test_worker_spawn_and_the_report_say_how_a_worker_was_made(self):
        recorder = TraceRecorder()
        cold = _run(faults="crash@2,0", trace=recorder)
        _warm()
        warm = _run(faults="crash@2,0", trace=recorder)
        spawns = [
            ("promoted" if e.data.get("promoted") else "repopulated")
            for e in recorder.events()
            if e.kind == "worker_spawn"
            and (e.data.get("promoted") or e.data.get("repopulated"))
        ]
        assert spawns == ["repopulated", "promoted"]
        assert "worker replaced by a cold fork" in cold.report_lines()[1]
        assert "worker replaced by a warm standby" in warm.report_lines()[1]

