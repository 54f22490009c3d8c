"""Real OS task instances with perpetual reuse."""

from __future__ import annotations

import numpy as np
import pytest

import os
import signal
import time

from repro.restructured import TaskInstanceDied, TaskInstanceEngine, run_concurrent
from repro.restructured.worker import SubsolveJobSpec, execute_job
from repro.sparsegrid import SequentialApplication


def spec(l=1, m=1, tol=1e-3):
    return SubsolveJobSpec(
        problem_name="rotating-cone", root=2, l=l, m=m, tol=tol, t_end=0.25
    )


class TestComputation:
    def test_matches_in_process_execution(self):
        with TaskInstanceEngine() as engine:
            payload = engine.compute(spec())
        assert np.array_equal(payload.solution, execute_job(spec()).solution)

    def test_sequential_jobs_reuse_one_instance(self):
        """The §6 effect, on real processes: five workers, one task
        instance, because each worker dies before the next arrives."""
        with TaskInstanceEngine() as engine:
            for l in range(3):
                engine.compute(spec(l=l, m=0))
            stats = engine.stats
        assert stats.jobs == 3
        assert stats.spawned == 1
        assert stats.reused == 2

    def test_non_perpetual_spawns_per_job(self):
        with TaskInstanceEngine(perpetual=False) as engine:
            for l in range(3):
                engine.compute(spec(l=l, m=0))
            stats = engine.stats
        assert stats.spawned == 3
        assert stats.reused == 0

    def test_instance_accounting(self):
        engine = TaskInstanceEngine()
        try:
            engine.compute(spec())
            assert engine.live_instances == 1
            assert engine.idle_instances == 1
        finally:
            engine.close()

    def test_worker_exception_propagates_and_instance_discarded(self):
        bad = SubsolveJobSpec(
            problem_name="no-such-problem", root=2, l=0, m=0, tol=1e-3
        )
        with TaskInstanceEngine() as engine:
            with pytest.raises(RuntimeError, match="task instance failed"):
                engine.compute(bad)
            assert engine.live_instances == 0
            # the engine still works afterwards
            engine.compute(spec())

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

    def test_invalid_cap_rejected(self):
        with pytest.raises(ValueError):
            TaskInstanceEngine(max_instances=0)


class TestLifecycleFaults:
    """Regressions for the shutdown race and the died-worker traceback.

    Before the fix, ``stop()`` sent ``_STOP`` and closed the channel
    with a reply still in flight (child traceback, nonzero exit), and a
    task instance that died between or under jobs surfaced as a raw
    ``EOFError``/``BrokenPipeError`` escaping the engine.
    """

    def _kill_and_reap(self, pid: int) -> None:
        os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                return
            time.sleep(0.01)

    def test_stop_drains_inflight_result(self):
        """A reply larger than the pipe buffer is in flight when stop()
        arrives: the serve loop must still exit cleanly (the drain reads
        the reply; the _STOP never interleaves with it)."""
        import multiprocessing

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

    def test_death_between_jobs_is_structured_fault(self):
        with TaskInstanceEngine() as engine:
            engine.compute(spec(l=0, m=0))  # warm one perpetual instance
            pid = engine._idle[0].process.pid
            self._kill_and_reap(pid)
            with pytest.raises(TaskInstanceDied) as exc_info:
                engine.compute(spec(l=0, m=0))
            assert exc_info.value.fault_kind == "death_worker"
            assert engine.live_instances == 0
            # the engine recovers with a fresh instance
            payload = engine.compute(spec(l=0, m=0))
            assert payload.solution.shape == (5, 5)

    def test_crash_under_job_is_structured_fault(self):
        import threading

        with TaskInstanceEngine() as engine:
            engine.compute(spec(l=0, m=0))
            pid = engine._idle[0].process.pid
            raised: list[BaseException] = []

            def run_long_job():
                try:
                    engine.compute(spec(l=5, m=5))  # ~0.7 s of compute
                except BaseException as exc:  # noqa: BLE001
                    raised.append(exc)

            thread = threading.Thread(target=run_long_job)
            thread.start()
            time.sleep(0.2)  # let the job reach the child
            self._kill_and_reap(pid)
            thread.join(timeout=30)
            assert not thread.is_alive()
            assert len(raised) == 1
            assert isinstance(raised[0], TaskInstanceDied)
            # a dead instance is never reused
            assert engine.live_instances == 0
            engine.compute(spec(l=0, m=0))


class TestThroughProtocol:
    def test_full_application_bitwise_identical(self):
        """The complete stack: MANIFOLD coordination, each worker's
        computation in its own (reusable) OS task instance."""
        seq = SequentialApplication(root=2, level=1, tol=1e-3).run()
        with TaskInstanceEngine(max_instances=2) as engine:
            result, _ = run_concurrent(
                root=2, level=1, tol=1e-3, engine=engine, timeout=240
            )
            stats = engine.stats
        assert np.array_equal(seq.combined, result.combined)
        assert stats.jobs == 3
        assert stats.spawned <= 2  # the cap held; reuse covered the rest
