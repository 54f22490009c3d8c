"""Real OS task instances with perpetual reuse, leased from the pool."""

from __future__ import annotations

import inspect
import multiprocessing
import os
import select
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.restructured import (
    PersistentWorkerPool,
    PoolClosedError,
    TaskInstanceDied,
    TaskInstanceEngine,
    pool_diagnostics,
    run_concurrent,
    shutdown_pool,
)
from repro.restructured.taskengine import PARKED_EXIT
from repro.restructured.worker import SubsolveJobSpec, execute_job
from repro.sparsegrid import SequentialApplication
from repro.sparsegrid.cache import reset_default_operator_cache


def spec(l=1, m=1, tol=1e-3, t_end=0.25):
    return SubsolveJobSpec(
        problem_name="rotating-cone", root=2, l=l, m=m, tol=tol, t_end=t_end
    )


def kill_and_wait(pid: int) -> None:
    """``SIGKILL`` a pool worker and wait until it has exited, by a
    pidfd: a promoted standby is no child of this process."""
    pidfd = os.pidfd_open(pid)
    try:
        signal.pidfd_send_signal(pidfd, signal.SIGKILL)
        assert select.select([pidfd], [], [], 10.0)[0]
    finally:
        os.close(pidfd)


def wait_until(predicate, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "timed out"


class TestComputation:
    def test_takes_no_options(self):
        assert not inspect.signature(TaskInstanceEngine).parameters

    def test_matches_in_process_execution(self):
        with TaskInstanceEngine() as engine:
            payload = engine.compute(spec())
        assert np.array_equal(payload.solution, execute_job(spec()).solution)

    def test_sequential_jobs_reuse_one_instance(self):
        """The §6 effect, on real processes: three workers, one task
        instance, because each worker dies before the next arrives."""
        with TaskInstanceEngine() as engine:
            pids = engine.pool.worker_pids()
            served = {engine.compute(spec(l=l, m=0)).worker_pid for l in range(3)}
            assert engine.pool.worker_pids() == pids
        assert len(served) == 1
        assert served <= pids

    def test_instance_accounting(self):
        engine = TaskInstanceEngine()
        try:
            dispatched = pool_diagnostics()["jobs_dispatched"]
            payload = engine.compute(spec())
            assert payload.worker_pid in engine.pool.worker_pids()
            assert pool_diagnostics()["jobs_dispatched"] == dispatched + 1
        finally:
            engine.close()

    def test_worker_exception_propagates_and_keeps_its_worker(self):
        bad = SubsolveJobSpec(
            problem_name="no-such-problem", root=2, l=0, m=0, tol=1e-3
        )
        with TaskInstanceEngine() as engine:
            pids = engine.pool.worker_pids()
            with pytest.raises(RuntimeError, match="task instance failed"):
                engine.compute(bad)
            # a job's own error is no fault of its worker
            assert engine.pool.worker_pids() == pids
            # the engine still works afterwards
            assert engine.compute(spec()).worker_pid in pids

    def test_closed_engine_rejects_jobs(self):
        engine = TaskInstanceEngine()
        engine.close()
        with pytest.raises(RuntimeError, match="closed"):
            engine.compute(spec())

    def test_close_idempotent(self):
        engine = TaskInstanceEngine()
        engine.compute(spec())
        engine.close()
        engine.close()

    def test_a_rebuilt_pool_is_followed(self):
        """Each job leases the shared pool anew."""
        with TaskInstanceEngine() as engine:
            engine.compute(spec())
            shutdown_pool()
            payload = engine.compute(spec())
            assert payload.worker_pid in engine.pool.worker_pids()
            assert not engine.pool.closed

    def test_close_leaves_the_shared_pool_up(self):
        with TaskInstanceEngine() as engine:
            engine.compute(spec())
        assert not engine.pool.closed
        assert pool_diagnostics()["alive"]


class TestLifecycleFaults:
    """Regressions for the shutdown race and the died-worker traceback.

    Before the fix, ``stop()`` sent ``_STOP`` and closed the channel
    with a reply still in flight (child traceback, nonzero exit), and a
    task instance that died under a job surfaced as a raw
    ``EOFError``/``BrokenPipeError`` escaping the engine.
    """

    def test_stop_drains_inflight_result(self):
        """A reply larger than the pipe buffer is in flight when stop()
        arrives: the serve loop must still exit cleanly (the drain reads
        the reply; the _STOP never interleaves with it)."""
        from repro.restructured.taskengine import _TaskInstance

        instance = _TaskInstance(multiprocessing.get_context("fork"))
        try:
            # ~130 KB solution — the child's send blocks until drained
            instance.channel.send((spec(l=5, m=5), None, 1, True))
            instance.stop()
            assert instance.process.exitcode == 0
        finally:
            if instance.process.is_alive():  # pragma: no cover - cleanup
                instance.process.terminate()

    def test_death_between_jobs_is_no_fault(self):
        """A worker killed while idle is succeeded when it is next
        taken, before anyone is handed it: the job runs, on a new pid."""
        with TaskInstanceEngine() as engine:
            # the worker given back last is the next one taken
            victim = engine.compute(spec(l=0, m=0)).worker_pid
            kill_and_wait(victim)
            payload = engine.compute(spec(l=0, m=0))
            assert payload.solution.shape == (5, 5)
            assert payload.worker_pid != victim
            assert victim not in engine.pool.worker_pids()

    def test_crash_under_job_is_structured_fault(self):
        """A worker killed under a job fails that job with
        :class:`TaskInstanceDied` and is replaced."""
        with TaskInstanceEngine() as engine:
            victim = engine.compute(spec(l=0, m=0)).worker_pid
            taken = engine.pool.jobs_dispatched
            raised: list[BaseException] = []

            def run_long_job():
                try:
                    # seconds of compute: it cannot answer before the kill
                    engine.compute(spec(l=5, m=5, t_end=5.0))
                except BaseException as exc:  # noqa: BLE001
                    raised.append(exc)

            thread = threading.Thread(target=run_long_job)
            thread.start()
            # the job has its worker once the pool has handed one out
            wait_until(lambda: engine.pool.jobs_dispatched > taken)
            kill_and_wait(victim)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(raised) == 1
            assert isinstance(raised[0], TaskInstanceDied)
            assert raised[0].fault_kind == "death_worker"
            # a dead instance is never reused
            assert victim not in engine.pool.worker_pids()
            engine.compute(spec(l=0, m=0))


class TestParking:
    """An engine's ``close()`` parks the idle workers: with no job to
    follow, each leaves by itself; a job that follows in time finds it
    warm."""

    def test_a_lease_nobody_follows_leaves_no_process(self):
        shutdown_pool()
        with TaskInstanceEngine() as engine:
            engine.compute(spec())
        pids = engine.pool.worker_pids()
        # the fresh pool's workers are this process's children, so a
        # pidfd of one stays valid until it is reaped
        pidfds = [os.pidfd_open(pid) for pid in pids]
        try:
            for pidfd in pidfds:
                assert select.select([pidfd], [], [], PARKED_EXIT + 10)[0]
        finally:
            for pidfd in pidfds:
                os.close(pidfd)
        cold = pool_diagnostics()["cold_starts"]
        with TaskInstanceEngine() as engine:
            # succeeded inside take(), with no fault
            assert engine.compute(spec()).worker_pid not in pids
        assert pool_diagnostics()["cold_starts"] == cold

    def test_a_job_unparks_its_worker(self):
        pool = PersistentWorkerPool(1)
        try:
            pool.park()
            worker = pool.take()
            assert worker.run(spec(l=0, m=0))[0] == "ok"
            pool.give(worker)
            pidfd = os.pidfd_open(worker.process.pid)
            try:
                assert not select.select([pidfd], [], [], PARKED_EXIT + 0.5)[0]
            finally:
                os.close(pidfd)
            assert pool.take() is worker
            pool.give(worker)
        finally:
            pool.shutdown()

    def test_a_worker_parked_long_ago_is_never_handed_out(self):
        """It may be on its way out: the job would meet its EOF."""
        pool = PersistentWorkerPool(1)
        try:
            pool.park()
            (parked,) = pool._idle
            parked.parked_at -= PARKED_EXIT  # as if parked that long ago
            worker = pool.take()
            assert worker is not parked and worker.process.is_alive()
            assert not parked.process.is_alive()
            pool.give(worker)
        finally:
            pool.shutdown()


class TestBlockingTake:
    """A taker that must have a worker sleeps on the pool's condition
    until a ``give`` or a ``shutdown`` wakes it."""

    @staticmethod
    def _blocked_taker(pool):
        """Start a thread in ``take_waiting`` on a pool with no idle
        worker; returns it and what it got, once it is waiting."""
        got: list = []

        def taker():
            try:
                got.append(pool.take_waiting())
            except BaseException as exc:  # noqa: BLE001
                got.append(exc)

        thread = threading.Thread(target=taker)
        thread.start()
        wait_until(lambda: pool._ready._waiters)
        return thread, got

    def test_a_second_taker_is_woken_by_give(self):
        pool = PersistentWorkerPool(1)
        try:
            worker = pool.take()
            assert pool.take() is None
            thread, got = self._blocked_taker(pool)
            assert not got
            pool.give(worker)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert got == [worker]
            pool.give(worker)
        finally:
            pool.shutdown()

    def test_a_blocked_taker_gets_pool_closed_from_shutdown(self):
        pool = PersistentWorkerPool(1)
        worker = pool.take()
        thread, got = self._blocked_taker(pool)
        pool.shutdown()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert len(got) == 1 and isinstance(got[0], PoolClosedError)
        pool.give(worker)  # a closed pool stops it
        assert not worker.process.is_alive()


    def test_more_takers_than_workers_never_share_one(self):
        """Six takers on two workers, switching threads as often as the
        interpreter lets them: no worker is ever held by two at once,
        and no take is lost."""
        pool = PersistentWorkerPool(2)
        held, guard, clashes = set(), threading.Lock(), []

        def taker():
            for _ in range(50):
                worker = pool.take_waiting()
                with guard:
                    if worker in held:
                        clashes.append(worker)
                    held.add(worker)
                with guard:
                    held.discard(worker)
                pool.give(worker)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=taker) for _ in range(6)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        assert not clashes
        assert pool.jobs_dispatched == 6 * 50


class TestThroughProtocol:
    def test_full_application_bitwise_identical(self):
        """The complete stack: MANIFOLD coordination, each worker's
        computation in its own (reusable) OS task instance."""
        seq = SequentialApplication(root=2, level=1, tol=1e-3).run()
        with TaskInstanceEngine() as engine:
            dispatched = pool_diagnostics()["jobs_dispatched"]
            result, _ = run_concurrent(
                root=2, level=1, tol=1e-3, engine=engine, timeout=240
            )
            jobs = pool_diagnostics()["jobs_dispatched"] - dispatched
            pids = engine.pool.worker_pids()
        assert np.array_equal(seq.combined, result.combined)
        assert jobs == 3
        # the pool held; reuse covered the rest
        assert {p.worker_pid for p in result.payloads.values()} <= pids

    def test_a_second_run_finds_the_workers_warm(self, monkeypatch):
        """Task instances outlive the run: a second ``run_concurrent``
        forks no worker and finds operators its workers assembled in
        the first."""
        # one worker, so every grid of the second run lands where the
        # first run assembled it, forked from a master with no cached
        # operator of its own to hand down
        monkeypatch.setattr(multiprocessing, "cpu_count", lambda: 1)
        shutdown_pool()
        reset_default_operator_cache()
        runs = []
        for _ in range(2):
            with TaskInstanceEngine() as engine:
                result, _ = run_concurrent(
                    root=2, level=3, tol=1e-3, engine=engine, timeout=240
                )
            runs.append((result, engine.pool.worker_pids(),
                         pool_diagnostics()["cold_starts"]))
        (first, pids, cold), (second, warm_pids, warm_cold) = runs
        seq = SequentialApplication(root=2, level=3, tol=1e-3).run()
        assert np.array_equal(first.combined, seq.combined)
        assert np.array_equal(second.combined, seq.combined)
        assert not any(p.operator_cache_hit for p in first.payloads.values())
        assert all(p.operator_cache_hit for p in second.payloads.values())
        assert (warm_pids, warm_cold) == (pids, cold)
