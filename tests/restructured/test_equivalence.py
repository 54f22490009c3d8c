"""The headline correctness claim of §6: the restructured application's
results "are exactly the same as in the sequential version"."""

from __future__ import annotations

import importlib
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.resilience import FaultEvent, FaultReport
from repro.restructured import (
    RunResult,
    run_concurrent,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured.mainprog import DEFAULT_MLINK
from repro.restructured.master import make_master_definition
from repro.sparsegrid import SequentialApplication, nested_loop_grids

ROOT, LEVEL, TOL = 2, 2, 1.0e-3

#: a root-0 family: four of its five grids have no interior node
ROOT_ZERO = """
import numpy as np
from repro.restructured import run_multiprocessing
from repro.sparsegrid import SequentialApplication
mp = run_multiprocessing(root=0, level=2, tol=1e-3, processes=2)
seq = SequentialApplication(root=0, level=2, tol=1e-3).run()
print(bool(np.array_equal(seq.combined, mp.combined)), mp.faults, mp.fallbacks)
"""


@pytest.fixture(scope="module")
def sequential_result():
    return SequentialApplication(root=ROOT, level=LEVEL, tol=TOL).run()


class TestBitwiseEquivalence:
    def test_concurrent_threads_identical(self, sequential_result):
        concurrent, _ = run_concurrent(root=ROOT, level=LEVEL, tol=TOL, timeout=120)
        assert np.array_equal(sequential_result.combined, concurrent.combined)

    def test_multiprocessing_identical(self, sequential_result):
        mp = run_multiprocessing(root=ROOT, level=LEVEL, tol=TOL, processes=2)
        assert np.array_equal(sequential_result.combined, mp.combined)

    def test_root_zero_family_identical(self):
        # in a subprocess with a timeout: a grid with no unknowns once
        # kept the integrator stepping forever, in a worker and in the
        # master's fallback alike
        done = subprocess.run(
            [sys.executable, "-c", ROOT_ZERO],
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "0", "0"]

    def test_per_grid_solutions_identical(self, sequential_result):
        concurrent, _ = run_concurrent(root=ROOT, level=LEVEL, tol=TOL, timeout=120)
        for key, payload in concurrent.payloads.items():
            assert np.array_equal(
                payload.solution, sequential_result.data.results[key].solution
            ), f"grid {key} differs"

    def test_pool_per_diagonal_identical(self, sequential_result):
        concurrent, _ = run_concurrent(
            root=ROOT, level=LEVEL, tol=TOL, pool_per_diagonal=True, timeout=120
        )
        assert np.array_equal(sequential_result.combined, concurrent.combined)

    def test_manufactured_problem_identical(self):
        seq = SequentialApplication(
            root=2, level=2, tol=1e-4,
            problem=None,  # default
        )
        seq_result = SequentialApplication(root=2, level=2, tol=1e-4).run()
        conc, _ = run_concurrent(root=2, level=2, tol=1e-4, timeout=120)
        assert np.array_equal(seq_result.combined, conc.combined)


class TestConcurrentStructure:
    def test_worker_count_matches_paper_relation(self):
        concurrent, _ = run_concurrent(root=2, level=3, tol=TOL, timeout=120)
        assert concurrent.n_workers == 2 * 3 + 1

    def test_pool_per_diagonal_runs_two_pools(self):
        single, _ = run_concurrent(root=2, level=2, tol=TOL, timeout=120)
        double, _ = run_concurrent(
            root=2, level=2, tol=TOL, pool_per_diagonal=True, timeout=120
        )
        assert single.n_workers == double.n_workers == 5

    def test_task_manager_records_bundling(self):
        _, task_manager = run_concurrent(
            root=2, level=2, tol=TOL, link_spec_text=DEFAULT_MLINK, timeout=120
        )
        assert task_manager is not None
        assert task_manager.peak_instances() >= 1
        # after wind-down every perpetual task was ended
        assert not task_manager.alive_instances()

    def test_result_fields_populated(self):
        concurrent, _ = run_concurrent(root=2, level=2, tol=TOL, timeout=120)
        assert concurrent.total_seconds > 0
        assert concurrent.pool_seconds > 0
        assert concurrent.combine_seconds >= 0
        assert set(concurrent.payloads) == {
            (g.l, g.m) for g in nested_loop_grids(2, 2)
        }

    def test_level_zero_single_worker(self):
        seq = SequentialApplication(root=2, level=0, tol=TOL).run()
        conc, _ = run_concurrent(root=2, level=0, tol=TOL, timeout=120)
        assert conc.n_workers == 1
        assert np.array_equal(seq.combined, conc.combined)


#: the three deployments of the protocol, at level 3
DEPLOYMENTS = {
    "manifold": lambda: run_concurrent(
        root=ROOT, level=3, tol=TOL, timeout=120
    )[0],
    "pool": lambda: run_multiprocessing(root=ROOT, level=3, tol=TOL, processes=2),
    "socket": lambda: run_multiprocessing(
        root=ROOT, level=3, tol=TOL, processes=2, engine="socket"
    ),
}


#: every name the end-to-end harness (``benchmarks/e2e``) reads off a run
HARNESS_NAMES = (
    "combined", "payloads", "pool_seconds", "combine_seconds",
    "pool_cold_start_seconds", "operator_cache_hit_ratio",
    "factor_reuse_ratio", "attempts", "faults", "recovered", "fallbacks",
    "engine", "reconnects", "net_bytes_sent", "net_bytes_received",
    "net_send_seconds", "net_recv_seconds",
)


class TestOneRunResult:
    """However the protocol is deployed, a run reports through one
    record, and a fault-free run's record says so."""

    @pytest.fixture(scope="class")
    def level3_combined(self):
        return SequentialApplication(root=ROOT, level=3, tol=TOL).run().combined

    @pytest.fixture(scope="class")
    def runs(self):
        """Each deployment's level-3 result, run once for the class."""
        done = {}

        def run(deployment):
            if deployment not in done:
                try:
                    done[deployment] = DEPLOYMENTS[deployment]()
                finally:
                    shutdown_pool()
            return done[deployment]

        return run

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_every_deployment_returns_a_run_result(
        self, deployment, level3_combined, runs
    ):
        result = runs(deployment)
        assert isinstance(result, RunResult)
        assert result.engine == deployment
        assert result.combined.shape == level3_combined.shape
        assert result.combined.tobytes() == level3_combined.tobytes()
        assert result.n_workers == len(result.payloads) == 2 * 3 + 1
        assert result.fault_report == FaultReport()

    @pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
    def test_every_deployment_carries_the_harness_names(self, deployment, runs):
        result = runs(deployment)
        missing = [name for name in HARNESS_NAMES if not hasattr(result, name)]
        assert missing == []
        assert result.attempts == len(result.payloads)
        assert result.pool_seconds > 0 and result.combine_seconds >= 0
        assert 0.0 <= result.operator_cache_hit_ratio <= 1.0
        assert 0.0 <= result.factor_reuse_ratio <= 1.0
        socket = deployment == "socket"
        assert (result.net_bytes_sent > 0) is socket
        assert (result.net_bytes_received > 0) is socket

    def test_fault_counters_read_the_report(self, runs):
        event = FaultEvent(
            key=(1, 1), kind="crash", attempt=1, action="retry",
            detected_by="liveness",
        )
        report = FaultReport(
            events=(event, replace(event, key=(2, 0), kind="exception")),
            recovered_keys=((1, 1), (2, 0)),
            fallback_keys=((2, 0),),
        )
        result = replace(runs("pool"), fault_report=report)
        assert (result.faults, result.recovered, result.fallbacks) == (2, 2, 1)
        assert result.fault_report is report


@pytest.mark.parametrize("module, name", [
    ("repro.restructured", "ConcurrentResult"),
    ("repro.restructured", "MultiprocessingResult"),
    ("repro.restructured.master", "ConcurrentResult"),
    ("repro.restructured.parallel", "MultiprocessingResult"),
    ("repro.perf", "costs_from_run"),
    ("repro.perf", "records_from_run"),
    ("repro.perf", "replay_on_cluster"),
    ("repro.manifold", "DeadlockError"),
    ("repro.manifold.errors", "DeadlockError"),
    ("repro.manifold.errors", "RuntimeShutdown"),
    ("repro.restructured", "TaskInstanceStats"),
    ("repro.restructured.taskengine", "TaskInstanceStats"),
    ("repro.restructured.taskengine", "TaskInstanceEngine"),
])
def test_no_alias_of_a_retired_name(module, name):
    assert not hasattr(importlib.import_module(module), name)


def test_the_run_to_simulation_bridge_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("repro.perf.bridge")


def test_master_definition_publishes_its_result_only_on_the_process():
    """The master's record reaches ``run_concurrent`` as ``proc.result``;
    there is no callback option beside it."""
    with pytest.raises(TypeError, match="on_result"):
        make_master_definition(ROOT, 1, TOL, on_result=lambda result: None)
