"""The deterministic scheduling metric and the run report.

Hand-checkable examples pin down the simulator (greedy list schedule);
the metric and the report are then checked on a real (tiny) run.
"""

from __future__ import annotations

import re

import pytest

from repro.restructured import run_multiprocessing, shutdown_pool
from repro.restructured.parallel import _greedy_makespan


class TestSimulateMakespan:
    def test_hand_example_two_workers(self):
        # worker A: 3, then 1 (free at t=3 vs B free at t=2) -> 4
        # worker B: 2, then 2 -> 4
        assert _greedy_makespan([3, 2, 2, 1], 2) == 4.0

    def test_single_worker_is_sum(self):
        assert _greedy_makespan([1, 2, 3], 1) == 6.0

    def test_more_workers_than_jobs(self):
        assert _greedy_makespan([5, 1], 8) == 5.0

    def test_empty(self):
        assert _greedy_makespan([], 4) == 0.0

    def test_order_matters(self):
        # shortest-first strands the long job at the end...
        worst = _greedy_makespan([1, 1, 1, 1, 4], 2)
        # ...longest-first overlaps it with everything else
        best = _greedy_makespan([4, 1, 1, 1, 1], 2)
        assert worst == 6.0 and best == 4.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            _greedy_makespan([1.0], 0)
        with pytest.raises(ValueError):
            _greedy_makespan([-1.0], 2)


def _makespan(result) -> tuple[int, float, float]:
    """The report's makespan line: workers, dispatched, lower bound."""
    [line] = [
        line for line in result.report_lines() if line.startswith("makespan")
    ]
    workers, dispatched, bound = re.fullmatch(
        r"makespan @(\d+) workers: dispatched (\S+)s \(lower bound (\S+)s\)",
        line,
    ).groups()
    return int(workers), float(dispatched), float(bound)


class TestReportMakespan:
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
        durations = [
            result.payloads[key].wall_seconds for key in result.dispatch_order
        ]
        dispatched = _greedy_makespan(durations, 8)
        assert sum(durations) / 8 <= dispatched
        assert dispatched > 0.0
        _, dispatched, bound = _makespan(result)
        assert bound <= dispatched
        assert dispatched > 0.0

    def test_default_worker_count_floor(self, result):
        workers, _, _ = _makespan(result)
        assert workers == max(2, result.processes)

    def test_report_lines_render(self, result):
        text = "\n".join(result.report_lines())
        assert "operator cache" in text
        assert "makespan @2 workers" in text
        assert result.warm_pool
        assert result.operator_cache_hit_ratio == 1.0
        assert result.level == 3 and result.tol == 1.0e-3
