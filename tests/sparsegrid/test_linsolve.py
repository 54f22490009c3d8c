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
    ShiftedOperator,
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


@pytest.mark.parametrize("c", [GAMMA * H, 0.3, -0.25, 0.0, -0.0])
def test_shifted_operator_is_the_sparse_difference(jacobians, c):
    """``I − c·J`` on the fixed pattern stores what the sparse algebra
    stores — a diagonal J lacks included, exact zeros left out."""
    lacking = sp.csr_matrix(
        np.array([[0.0, 1.0, 0.0], [2.0, 0.0, 0.0], [0.0, 3.0, 4.0]])
    )
    empty, no_unknowns = sp.csr_matrix((3, 3)), sp.csr_matrix((0, 0))
    for J in (jacobians[(3, 4)], lacking, empty, no_unknowns):
        expected = (sp.identity(J.shape[0], format="csc") - c * J.tocsc()).tocsc()
        built = ShiftedOperator(J).matrix(c)
        assert built.shape == expected.shape
        assert np.array_equal(built.indptr, expected.indptr)
        assert np.array_equal(built.indices, expected.indices)
        assert np.array_equal(built.data, expected.data)


def test_factorize_is_the_only_splu_call_in_the_package():
    offenders = [
        str(path)
        for path in Path(repro.__file__).parent.rglob("*.py")
        if "splu(" in path.read_text() and path.name != "linsolve.py"
    ]
    assert offenders == []
