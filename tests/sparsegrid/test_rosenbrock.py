"""The ROS2 integrator: accuracy, adaptivity, counters."""

from __future__ import annotations

import sys

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparsegrid import Grid, inhomogeneous_problem, manufactured_problem
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.linsolve import RosenbrockSystemSolver
from repro.sparsegrid.rosenbrock import GAMMA, Ros2Integrator

#: the SciPy methods sparse-sparse and sparse-scalar arithmetic runs through
SPARSE_ARITHMETIC = {
    "_binopt", "_add_sparse", "_sub_sparse", "_mul_scalar", "_matmul_sparse",
    "__add__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__",
}


@pytest.fixture(scope="module")
def operator():
    return SpatialOperator(Grid(2, 2, 2), manufactured_problem(diffusion=0.02))


class TestSystemSolver:
    def test_solves_shifted_system(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        solver.prepare(0.01)
        rhs = np.ones(operator.n_interior)
        x = solver.solve(rhs)
        matrix = np.eye(operator.n_interior) - GAMMA * 0.01 * operator.J.toarray()
        assert np.allclose(matrix @ x, rhs, atol=1e-10)

    def test_factorization_cached_for_same_h(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        solver.prepare(0.01)
        solver.prepare(0.01)
        assert solver.factorizations == 1

    def test_refactorizes_on_h_change(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        solver.prepare(0.01)
        solver.prepare(0.02)
        assert solver.factorizations == 2
        assert solver.current_h == 0.02

    def test_solve_before_prepare_rejected(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        with pytest.raises(RuntimeError):
            solver.solve(np.ones(operator.n_interior))

    def test_invalid_h_rejected(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        with pytest.raises(ValueError):
            solver.prepare(0.0)

    def test_invalid_gamma_rejected(self, operator):
        with pytest.raises(ValueError):
            RosenbrockSystemSolver(operator.J, 0.0)

    def test_factorization_builds_one_sparse_matrix(self, operator):
        """A stage matrix is written onto the fixed pattern: no sparse
        arithmetic (scaled copy, difference) and one new matrix."""
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        solver.prepare(0.01)  # the first one also lays out the pattern
        built, arithmetic = [], []

        def watch(frame, event, arg):
            if event != "call" or "scipy" not in frame.f_code.co_filename:
                return
            name = frame.f_code.co_name
            if name == "__init__" and isinstance(
                frame.f_locals.get("self"), sp.spmatrix
            ):
                built.append(frame.f_locals["self"])
            elif name in SPARSE_ARITHMETIC:
                arithmetic.append(name)

        sys.setprofile(watch)
        try:
            solver.prepare(0.02)
        finally:
            sys.setprofile(None)
        assert solver.factorizations == 2
        assert arithmetic == []
        assert len({id(matrix) for matrix in built}) == 1

    def test_counters_track_solves(self, operator):
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        solver.prepare(0.01)
        solver.solve(np.ones(operator.n_interior))
        solver.solve(np.ones(operator.n_interior))
        assert solver.solves == 2
        assert solver.solve_seconds > 0
        assert solver.factor_seconds > 0


class TestIntegration:
    def solve_error(self, tol, level=2):
        problem = manufactured_problem(diffusion=0.02, t_end=0.5)
        grid = Grid(2, level, level)
        op = SpatialOperator(grid, problem)
        integrator = Ros2Integrator(op, tol)
        u, stats = integrator.integrate(op.initial_interior(), 0.0, 0.5)
        xx, yy = grid.interior_meshgrid()
        exact = problem.exact(xx, yy, 0.5).reshape(-1)
        return float(np.max(np.abs(u - exact))), stats

    def test_reaches_final_time_accurately(self):
        error, stats = self.solve_error(1e-4)
        # total error is dominated by the O(h) spatial scheme here;
        # the point is the integrator tracked the ODE solution
        assert error < 0.05
        assert stats.steps_accepted > 0

    def test_tighter_tolerance_takes_more_steps(self):
        _, loose = self.solve_error(1e-3)
        _, tight = self.solve_error(1e-5)
        assert tight.steps_accepted > loose.steps_accepted

    def test_temporal_error_controlled_by_tolerance(self):
        """Against a tol=1e-9 reference on the same grid, the temporal
        error must drop when the tolerance drops."""
        problem = manufactured_problem(diffusion=0.02, t_end=0.5)
        grid = Grid(2, 2, 2)

        def run(tol):
            op = SpatialOperator(grid, problem)
            integrator = Ros2Integrator(op, tol)
            u, _ = integrator.integrate(op.initial_interior(), 0.0, 0.5)
            return u

        reference = run(1e-9)
        err_loose = np.max(np.abs(run(3e-3) - reference))
        err_tight = np.max(np.abs(run(1e-5) - reference))
        assert err_tight < err_loose
        assert err_tight < 1e-4

    def test_step_statistics_populated(self):
        _, stats = self.solve_error(1e-4)
        assert stats.solves == 2 * (stats.steps_accepted + stats.steps_rejected)
        assert stats.factorizations >= 1
        assert stats.factorizations <= stats.steps_total
        assert 0 < stats.min_h <= stats.max_h
        assert stats.final_h > 0
        assert stats.total_seconds > 0

    def test_step_history_recording(self):
        problem = manufactured_problem(t_end=0.25)
        op = SpatialOperator(Grid(2, 1, 1), problem)
        integrator = Ros2Integrator(op, 1e-4, record_history=True)
        _, stats = integrator.integrate(op.initial_interior(), 0.0, 0.25)
        assert len(stats.h_history) == stats.steps_accepted
        assert abs(sum(stats.h_history) - 0.25) < 1e-9

    def test_fixed_initial_step_honoured(self):
        problem = manufactured_problem(t_end=0.25)
        op = SpatialOperator(Grid(2, 1, 1), problem)
        integrator = Ros2Integrator(op, 1e-4, h0=1e-3, record_history=True)
        _, stats = integrator.integrate(op.initial_interior(), 0.0, 0.25)
        assert stats.h_history[0] == pytest.approx(1e-3)

    def test_h_max_cap_respected(self):
        problem = manufactured_problem(t_end=0.25)
        op = SpatialOperator(Grid(2, 1, 1), problem)
        integrator = Ros2Integrator(op, 1e-2, h_max=0.01, record_history=True)
        _, stats = integrator.integrate(op.initial_interior(), 0.0, 0.25)
        assert max(stats.h_history) <= 0.01 + 1e-12

    def test_invalid_time_interval_rejected(self):
        problem = manufactured_problem()
        op = SpatialOperator(Grid(2, 1, 1), problem)
        integrator = Ros2Integrator(op, 1e-3)
        with pytest.raises(ValueError):
            integrator.integrate(op.initial_interior(), 1.0, 0.5)

    def test_invalid_tolerance_rejected(self):
        problem = manufactured_problem()
        op = SpatialOperator(Grid(2, 1, 1), problem)
        with pytest.raises(ValueError):
            Ros2Integrator(op, 0.0)

    def test_deterministic_across_runs(self):
        """Identical inputs produce bitwise-identical trajectories —
        the property behind 'the results are exactly the same'."""
        problem = manufactured_problem(t_end=0.25)

        def run():
            op = SpatialOperator(Grid(2, 2, 1), problem)
            integrator = Ros2Integrator(op, 1e-4)
            u, _ = integrator.integrate(op.initial_interior(), 0.0, 0.25)
            return u

        assert np.array_equal(run(), run())

    def test_forcing_once_per_distinct_time(self):
        """Stage 2's ``t + h`` is the next step's ``t``: one forcing
        evaluation per time the integration visits, rejected attempts
        included, and none twice."""
        problem = inhomogeneous_problem()  # boundary and source depend on t
        op = SpatialOperator(Grid(2, 1, 1), problem)
        forcing, seen = op.forcing, []

        def counting(t):
            seen.append(t)
            return forcing(t)

        op.forcing = counting
        _, stats = Ros2Integrator(op, 1e-4).integrate(
            op.initial_interior(), 0.0, problem.t_end
        )
        assert stats.steps_rejected > 0
        assert len(seen) == len(set(seen)) == stats.steps_total + 1

    def test_step_holding_limits_factorizations(self):
        """The controller holds h when the change would not pay for a
        refactorization: far fewer factorizations than steps."""
        _, stats = self.solve_error(1e-5, level=3)
        assert stats.steps_accepted > 30
        assert stats.factorizations < stats.steps_accepted / 3
