"""The persistent pool, dispatch policies, and warm-path plumbing of
``run_multiprocessing``.

The pool tests exercise the real fork pool at a tiny level so they stay
fast; the bitwise-identity assertions are the acceptance criterion —
warm and cold configurations must agree with the sequential loop to the
last bit.
"""

from __future__ import annotations

import signal
import time

import numpy as np
import pytest

from repro.restructured import (
    PersistentWorkerPool,
    SubsolveJobSpec,
    acquire_pool,
    order_longest_first,
    pool_diagnostics,
    run_multiprocessing,
    shutdown_pool,
)
from repro.sparsegrid import SequentialApplication
from repro.sparsegrid.grid import nested_loop_grids

LEVEL = 2
TOL = 1.0e-3


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _spec(l: int, m: int, root: int = 2) -> SubsolveJobSpec:
    return SubsolveJobSpec(
        problem_name="rotating-cone", root=root, l=l, m=m, tol=TOL
    )


class TestPersistentWorkerPool:
    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            PersistentWorkerPool(0)

    def test_dispatch_counters_and_graceful_shutdown(self):
        pool = PersistentWorkerPool(1)
        try:
            assert pool.cold_start_seconds > 0.0
            out = []
            for key in ((0, 0), (0, 1)):
                worker = pool.take()
                assert pool.take() is None  # its one worker is busy
                worker.channel.send((_spec(*key), None, 1, True))
                status, payload = worker.channel.recv()
                assert status == "ok"
                out.append(payload)
                pool.give(worker)
            assert [(p.l, p.m) for p in out] == [(0, 0), (0, 1)]
            assert pool.jobs_dispatched == 2
            assert pool.worker_pids() == {worker.process.pid}
        finally:
            pool.shutdown()
        pool.shutdown()  # idempotent
        assert worker.process.exitcode == 0  # stopped, not killed
        with pytest.raises(RuntimeError, match="shut down"):
            pool.take()


    def test_forced_shutdown_kills_a_wedged_worker(self):
        from repro.resilience import FaultPlan

        pool = PersistentWorkerPool(2)
        held = pool.take()
        hang = FaultPlan.parse("hang@0,0:seconds=120")
        held.channel.send((_spec(0, 0), hang, 1, True))
        workers = list(pool._workers)
        pool.shutdown(force=True)
        assert [w.process.exitcode for w in workers] == 2 * [-signal.SIGKILL]
        pool.replace(held)  # what its run does on the way out: no successor
        assert pool.closed and pool.worker_pids() == set()


class TestProcessesBound:
    def test_a_smaller_run_on_a_larger_warm_pool_keeps_its_bound(self):
        run_multiprocessing(root=2, level=3, tol=TOL, processes=2)
        result = run_multiprocessing(root=2, level=3, tol=TOL, processes=1)
        assert result.processes == 1
        assert len({p.worker_pid for p in result.payloads.values()}) == 1
        spans = sorted(
            (p.started_monotonic, p.finished_monotonic)
            for p in result.payloads.values()
        )
        assert all(a[1] <= b[0] for a, b in zip(spans, spans[1:]))


class TestStarvedRun:
    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_a_run_another_run_starves_raises_at_once(self, monkeypatch, warm):
        """Another run takes every idle worker the moment this run gives
        one back: with nothing of its own in flight, no timer can give
        it a worker, so it raises at once — not at the deadline of a job
        it already finished (60 s on a fresh pool, 2 s on a warm one)."""
        if warm:
            run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
        pool, _ = acquire_pool(1)
        give = PersistentWorkerPool.give
        taken = []

        def give_to_another_run(self, worker):
            give(self, worker)
            if not taken:
                while (idle := self.take()) is not None:
                    taken.append(idle)

        monkeypatch.setattr(PersistentWorkerPool, "give", give_to_another_run)
        started = time.monotonic()
        try:
            with pytest.raises(RuntimeError, match="another run holds them all"):
                run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
            assert time.monotonic() - started < 1.0
        finally:
            for worker in taken:
                give(pool, worker)
        assert taken


class TestAcquirePool:
    def test_second_acquisition_is_warm_and_same_pool(self):
        first, warm1 = acquire_pool(1)
        second, warm2 = acquire_pool(1)
        assert not warm1 and warm2
        assert second is first

    def test_larger_requirement_grows_pool(self):
        small, _ = acquire_pool(1)
        grown, warm = acquire_pool(2)
        assert not warm
        assert grown is not small
        assert grown.processes == 2
        assert small.closed  # the old pool was drained, not abandoned

    def test_diagnostics_reflect_state(self):
        assert pool_diagnostics()["alive"] is False
        acquire_pool(1)
        diag = pool_diagnostics()
        assert diag["alive"] is True
        assert diag["processes"] == 1
        shutdown_pool()
        assert pool_diagnostics()["alive"] is False


class TestFleetSlot:
    """The parked socket fleet's slot sits beside the shared pool; the
    fleet's own behaviour is tested in ``test_netengine.py``."""

    def test_pool_module_never_imports_the_socket_engine(self):
        import ast
        import inspect

        from repro.restructured import pool

        imported = set()
        for node in ast.walk(ast.parse(inspect.getsource(pool))):
            if isinstance(node, ast.Import):
                imported.update(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                imported.add(node.module or "")
                imported.update(alias.name for alias in node.names)
        assert not [name for name in imported if "netengine" in name]

    def test_pool_runs_leave_the_slot_alone(self):
        from repro.restructured import pool

        run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
        diagnostics = pool_diagnostics()
        assert pool._fleet is None
        assert diagnostics["alive"]
        assert diagnostics["fleet_hosts"] == ""
        assert diagnostics["fleet_daemons"] == 0
        assert diagnostics["fleet_runs_served"] == 0
        assert diagnostics["fleet_idle_s"] == 0.0

    def test_shutdown_pool_closes_pool_and_fleet_together(self):
        from repro.restructured import pool

        run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
        first = run_multiprocessing(
            root=2, level=LEVEL, tol=TOL, processes=2, engine="socket"
        )
        # one of each, side by side: neither lease disturbs the other
        assert pool_diagnostics()["alive"]
        assert pool_diagnostics()["fleet_daemons"] == 2
        warm = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
        assert warm.warm_pool and np.array_equal(warm.combined, first.combined)
        parked = pool._fleet.engine
        shutdown_pool()
        assert parked._closed and pool._fleet is None
        assert not pool_diagnostics()["alive"]


class TestDispatchOrdering:
    def test_longest_first_orders_by_interior_count(self):
        specs = [_spec(g.l, g.m) for g in nested_loop_grids(2, 4)]
        ordered = order_longest_first(specs)
        costs = [s.grid.n_interior for s in ordered]
        assert costs == sorted(costs, reverse=True)
        # the top diagonal's near-square grids lead; the paper loop's
        # coarse opener is nowhere near the front
        assert ordered[0].l + ordered[0].m == 4
        assert (ordered[-1].l, ordered[-1].m) != (ordered[0].l, ordered[0].m)

    def test_proxy_is_interior_count(self):
        # within a diagonal the square-most grid has the most unknowns
        # and leads, though the paper's loop reaches it second
        specs = [_spec(0, 3), _spec(1, 2)]
        assert [s.grid.n_interior for s in specs] == [93, 105]
        assert [(s.l, s.m) for s in order_longest_first(specs)] == [(1, 2), (0, 3)]

    def test_stable_on_ties(self):
        # level 3's natural ties: (1,2)/(2,1) at 105, (0,3)/(3,0) at 93,
        # (0,2)/(2,0) at 45; each pair keeps its loop order
        specs = [_spec(g.l, g.m) for g in nested_loop_grids(2, 3)]
        ordered = order_longest_first(specs)
        assert [(s.l, s.m, s.grid.n_interior) for s in ordered] == [
            (1, 2, 105), (2, 1, 105), (0, 3, 93), (3, 0, 93),
            (1, 1, 49), (0, 2, 45), (2, 0, 45),
        ]


class TestRunMultiprocessing:
    def test_pool_reuse_across_two_runs(self):
        # processes=1 makes the cache property deterministic: caches are
        # per worker, so with several workers a job may land on one that
        # has not seen its grid yet
        first = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
        second = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
        assert not first.warm_pool
        assert first.pool_cold_start_seconds > 0.0
        assert second.warm_pool
        assert second.pool_cold_start_seconds == 0.0
        assert np.array_equal(first.combined, second.combined)
        # with one shared fork pool the second run's workers inherit or
        # retain warm caches: every operator request hits
        assert second.operator_cache_hit_ratio == 1.0

    def test_the_pool_keeps_the_rate_its_run_learned(self):
        result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
        pool, _ = acquire_pool(2)
        assert pool.seconds_per_unknown == max(
            p.wall_seconds / _spec(p.l, p.m).grid.n_interior
            for p in result.payloads.values()
        )

    @pytest.mark.parametrize("engine", ("pool", "socket"))
    @pytest.mark.parametrize("warm", (True, False))
    @pytest.mark.parametrize("processes", (0, -1))
    def test_processes_below_one_rejected(self, engine, warm, processes):
        if warm:  # a shared substrate that any size would otherwise reuse
            run_multiprocessing(root=2, level=LEVEL, tol=TOL, engine=engine)
        with pytest.raises(ValueError, match="processes must be >= 1"):
            run_multiprocessing(
                root=2, level=LEVEL, tol=TOL, engine=engine,
                processes=processes, warm_pool=warm,
            )

    def test_warm_and_cold_match_sequential_bitwise(self):
        sequential = SequentialApplication(root=2, level=LEVEL, tol=TOL).run()
        cold = run_multiprocessing(root=2, level=LEVEL, tol=TOL, warm_pool=False)
        warm = run_multiprocessing(root=2, level=LEVEL, tol=TOL)
        warm2 = run_multiprocessing(root=2, level=LEVEL, tol=TOL)
        assert np.array_equal(cold.combined, sequential.combined)
        assert np.array_equal(warm.combined, sequential.combined)
        assert np.array_equal(warm2.combined, sequential.combined)
        assert not cold.warm_pool
        assert warm2.warm_pool

    def test_dispatch_order_recorded_longest_first(self):
        result = run_multiprocessing(root=2, level=LEVEL, tol=TOL)
        n_grids = 2 * LEVEL + 1
        assert len(result.dispatch_order) == n_grids
        assert len(result.completion_order) == n_grids
        assert set(result.completion_order) == set(result.dispatch_order)
        # heaviest diagonal first under the n_interior proxy
        l0, m0 = result.dispatch_order[0]
        assert l0 + m0 == LEVEL

    def test_observability_counters_populated(self):
        run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
        result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=1)
        assert result.operator_cache_hits == len(result.payloads)
        assert result.operator_cache_misses == 0
        assert 0.0 <= result.factor_reuse_ratio <= 1.0
        payload = next(iter(result.payloads.values()))
        assert payload.prepare_calls > 0
        # a cache hit skips assembly entirely
        assert payload.operator_cache_hit
        assert payload.assembly_seconds == 0.0
