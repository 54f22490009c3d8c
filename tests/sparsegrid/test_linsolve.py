"""The one sparse LU: its ordering, guarded by counts that repeat exactly."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import repro
from repro.sparsegrid import manufactured_problem
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.grid import nested_loop_grids
from repro.sparsegrid.linsolve import (
    FactorCache,
    RosenbrockSystemSolver,
    factorize,
)
from repro.sparsegrid.rosenbrock import GAMMA

ROOT, LEVEL, H = 2, 7, 1e-3


def fill(lu: spla.SuperLU) -> int:
    return lu.L.nnz + lu.U.nnz


@pytest.fixture(scope="module")
def jacobians():
    problem = manufactured_problem()
    return {
        (grid.l, grid.m): SpatialOperator(grid, problem).J
        for grid in nested_loop_grids(ROOT, LEVEL)
    }


def stage_matrix(J: sp.spmatrix) -> sp.csc_matrix:
    identity = sp.identity(J.shape[0], format="csc")
    return (identity - (GAMMA * H) * J).tocsc()


def test_fill_never_exceeds_colamd_on_the_table1_family(jacobians):
    for key, J in jacobians.items():
        matrix = stage_matrix(J)
        assert fill(factorize(matrix)) <= fill(spla.splu(matrix)), key
    assert fill(factorize(stage_matrix(jacobians[(3, 4)]))) <= 52_000


def test_cached_and_fresh_factor_solve_identically(jacobians):
    """What makes a cached, replayed or re-dispatched factor bitwise
    interchangeable with a fresh one."""
    J = jacobians[(3, 4)]
    rhs = np.random.default_rng(0).standard_normal(J.shape[0])
    cache = FactorCache()
    first = RosenbrockSystemSolver(J, GAMMA, factor_cache=cache)
    first.prepare(H)
    second = RosenbrockSystemSolver(J, GAMMA, factor_cache=cache)
    second.prepare(H)
    assert (first.factorizations, second.factorizations) == (1, 0)
    fresh = factorize(stage_matrix(J))
    assert np.array_equal(second.solve(rhs), fresh.solve(rhs))
    assert np.array_equal(first.solve(rhs), fresh.solve(rhs))


def test_factorize_is_the_only_splu_call_in_the_package():
    offenders = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if "splu(" in path.read_text() and path.name != "linsolve.py"
    ]
    assert offenders == []
