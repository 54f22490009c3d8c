"""The deterministic scheduling metric and the warm-path report.

Hand-checkable examples pin down the simulator (greedy list schedule);
the metric and the report are then checked on a real (tiny) run.
"""

from __future__ import annotations

import pytest

from repro.perf.warmpath import (
    dispatch_makespan,
    simulate_makespan,
    warm_path_report,
)
from repro.restructured import run_multiprocessing, shutdown_pool


class TestSimulateMakespan:
    def test_hand_example_two_workers(self):
        # worker A: 3, then 1 (free at t=3 vs B free at t=2) -> 4
        # worker B: 2, then 2 -> 4
        assert simulate_makespan([3, 2, 2, 1], 2) == 4.0

    def test_single_worker_is_sum(self):
        assert simulate_makespan([1, 2, 3], 1) == 6.0

    def test_more_workers_than_jobs(self):
        assert simulate_makespan([5, 1], 8) == 5.0

    def test_empty(self):
        assert simulate_makespan([], 4) == 0.0

    def test_order_matters(self):
        # shortest-first strands the long job at the end...
        worst = simulate_makespan([1, 1, 1, 1, 4], 2)
        # ...longest-first overlaps it with everything else
        best = simulate_makespan([4, 1, 1, 1, 1], 2)
        assert worst == 6.0 and best == 4.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            simulate_makespan([1.0], 0)
        with pytest.raises(ValueError):
            simulate_makespan([-1.0], 2)


class TestDispatchMakespan:
    @pytest.fixture(scope="class")
    def result(self):
        shutdown_pool()
        try:
            # processes=1 keeps the cache counters deterministic (caches
            # are per worker process)
            run_multiprocessing(root=2, level=3, tol=1.0e-3, processes=1)
            yield run_multiprocessing(root=2, level=3, tol=1.0e-3, processes=1)
        finally:
            shutdown_pool()

    def test_real_run_metric_is_consistent(self, result):
        span = dispatch_makespan(result, n_workers=8)
        assert span.n_workers == 8
        assert span.lower_bound_seconds <= span.longest_first_seconds
        assert span.lower_bound_seconds <= span.dispatched_seconds
        assert span.dispatched_seconds > 0.0

    def test_default_worker_count_floor(self, result):
        span = dispatch_makespan(result)
        assert span.n_workers == max(2, result.processes)

    def test_report_lines_render(self, result):
        report = warm_path_report(result, n_workers=8)
        text = "\n".join(report.lines())
        assert "operator cache" in text
        assert "makespan @8 workers" in text
        assert report.result.warm_pool
        assert report.result.operator_cache_hit_ratio == 1.0
        assert report.result.level == 3 and report.result.tol == 1.0e-3
