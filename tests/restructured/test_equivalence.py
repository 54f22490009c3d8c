"""The headline correctness claim of §6: the restructured application's
results "are exactly the same as in the sequential version"."""

from __future__ import annotations

import subprocess
import sys

import numpy as np
import pytest

from repro.restructured import run_concurrent, run_multiprocessing
from repro.restructured.mainprog import DEFAULT_MLINK
from repro.sparsegrid import SequentialApplication

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
        assert concurrent.prolongation_seconds >= 0
        assert set(concurrent.grid_seconds) == set(concurrent.payloads)

    def test_level_zero_single_worker(self):
        seq = SequentialApplication(root=2, level=0, tol=TOL).run()
        conc, _ = run_concurrent(root=2, level=0, tol=TOL, timeout=120)
        assert conc.n_workers == 1
        assert np.array_equal(seq.combined, conc.combined)
