"""``subsolve`` and the sequential driver."""

from __future__ import annotations

import contextlib
import hashlib
import signal

import numpy as np
import pytest

from repro.sparsegrid import (
    Grid,
    SequentialApplication,
    inhomogeneous_problem,
    manufactured_problem,
    rotating_cone_problem,
    subsolve,
)
from repro.sparsegrid.problem import AdvectionDiffusionProblem
from repro.sparsegrid.registry import make_problem

#: sha256 of ``combined`` with the steps and factorizations summed over
#: the grids, for ``SequentialApplication(root=2, level, tol=1e-3)`` —
#: recorded before the operator assembly, the stage-matrix build and the
#: ROS2 step were rewritten, which had to leave every one unchanged
PINNED = {
    ("boundary-layer", 3): (
        "6e6e09c6dfa9f760fd47cd46807c5d70166dcd1c714708db5ad9ee49d4c76f40", 533, 98),
    ("boundary-layer", 5): (
        "924d8ee6859404fdb7e7699768aedee1468da763cc11a255a215b8989e2f54bd", 1039, 176),
    ("inhomogeneous", 3): (
        "abf75cc60f225b30bbd6652a4280b89e7c129364a17e66cdac2160900245674b", 253, 40),
    ("inhomogeneous", 5): (
        "04e54c5d99c3f8426718ee59d7040acf126244c0624093c9b9bc9952962ed57d", 414, 67),
    ("manufactured", 3): (
        "25c8300368949db4b6e313111b60f4e9309f6cdb8e93c9eb046599aeeb81639e", 111, 28),
    ("manufactured", 5): (
        "c03c6bf1d67cea09a4ef74e6a85fbee0ec0d981a46682425e65826a70ae021ea", 155, 44),
    ("rotating-cone", 3): (
        "48ff23c09e62a40360251ab3892605263a4032e469c6fee74b46f52c50dfe422", 456, 89),
    ("rotating-cone", 5): (
        "57a029522e42a097f7e4d0c2623223d7b1196dc88444ddc6cf6cc88662fb0661", 892, 127),
}


@contextlib.contextmanager
def deadline(seconds: int):
    """Fail instead of hanging: ``TimeoutError`` after ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("name, level", sorted(PINNED))
def test_pinned_bits(name, level):
    result = SequentialApplication(
        root=2, level=level, tol=1e-3, problem=make_problem(name)
    ).run()
    stats = [r.stats for r in result.data.results.values()]
    assert (
        hashlib.sha256(result.combined.tobytes()).hexdigest(),
        sum(s.steps_total for s in stats),
        sum(s.factorizations for s in stats),
    ) == PINNED[(name, level)]


class TestDegenerateSystems:
    """A root-0 family has grids one cell wide — no interior node — and
    a state can stop being finite; neither may keep the loop running."""

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_root_zero_family_returns(self, level):
        with deadline(20):
            result = SequentialApplication(root=0, level=level, tol=1e-3).run()
        assert result.data.complete
        assert result.combined.shape == result.target_grid.shape

    def test_no_unknowns_is_the_boundary_data(self):
        problem = inhomogeneous_problem()
        grid = Grid(0, 0, 2)
        assert grid.n_interior == 0
        with deadline(10):
            result = subsolve(problem, grid, tol=1e-3)
        xx, yy = grid.meshgrid()
        assert np.array_equal(
            result.solution, problem.boundary(xx, yy, problem.t_end)
        )
        assert result.stats.steps_total == 0
        assert result.stats.solves == 0

    def test_non_finite_state_raises(self):
        zero = lambda x, y: np.zeros(np.broadcast(x, y).shape)  # noqa: E731
        problem = AdvectionDiffusionProblem(
            name="nan-after-half",
            velocity_x=zero,
            velocity_y=zero,
            diffusion=0.05,
            initial=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
            boundary=lambda x, y, t: zero(x, y),
            source=lambda x, y, t: zero(x, y) + (np.nan if t > 0.5 else 0.0),
        )
        with deadline(1):
            with pytest.raises(RuntimeError, match=r"grid\(1,1\)@root2 at t=.* with h="):
                subsolve(problem, Grid(2, 1, 1), tol=1e-3)


class TestSubsolve:
    def test_returns_full_node_array(self):
        grid = Grid(2, 1, 1)
        result = subsolve(manufactured_problem(t_end=0.2), grid, tol=1e-3)
        assert result.solution.shape == grid.shape

    def test_boundary_values_imposed(self):
        problem = manufactured_problem(t_end=0.2)
        result = subsolve(problem, Grid(2, 1, 1), tol=1e-3)
        # homogeneous Dirichlet: boundary must be exactly zero
        assert np.allclose(result.solution[0, :], 0.0)
        assert np.allclose(result.solution[:, -1], 0.0)

    def test_self_contained_and_deterministic(self):
        """The cut criterion: subsolve reads/writes only its own grid,
        so two calls with identical inputs agree bitwise."""
        problem = rotating_cone_problem(t_end=0.25)
        a = subsolve(problem, Grid(2, 2, 1), tol=1e-3)
        b = subsolve(problem, Grid(2, 2, 1), tol=1e-3)
        assert np.array_equal(a.solution, b.solution)

    def test_explicit_t_end_overrides_problem(self):
        problem = manufactured_problem(t_end=1.0)
        short = subsolve(problem, Grid(2, 1, 1), tol=1e-3, t_end=0.1)
        long = subsolve(problem, Grid(2, 1, 1), tol=1e-3, t_end=0.5)
        assert not np.array_equal(short.solution, long.solution)

    def test_work_units_positive(self):
        result = subsolve(manufactured_problem(t_end=0.2), Grid(2, 1, 1), tol=1e-3)
        assert result.work_units > 0
        assert result.wall_seconds > 0

    def test_accuracy_against_exact(self):
        problem = manufactured_problem(diffusion=0.02, t_end=0.3)
        grid = Grid(2, 3, 3)
        result = subsolve(problem, grid, tol=1e-5)
        xx, yy = grid.meshgrid()
        err = np.max(np.abs(result.solution - problem.exact(xx, yy, 0.3)))
        assert err < 0.05


class TestSequentialApplication:
    def test_run_produces_complete_data(self):
        app = SequentialApplication(root=2, level=2, tol=1e-3)
        result = app.run()
        assert result.data.complete
        assert result.n_grids == 5

    def test_worker_count_property(self):
        assert SequentialApplication(level=4).n_workers == 9
        assert SequentialApplication(level=0).n_workers == 1

    def test_timings_partition_total(self):
        result = SequentialApplication(root=2, level=2, tol=1e-3).run()
        parts = (
            result.init_seconds
            + result.subsolve_seconds
            + result.prolongation_seconds
        )
        assert parts == pytest.approx(result.total_seconds, rel=0.05)

    def test_grid_seconds_reported_per_grid(self):
        result = SequentialApplication(root=2, level=2, tol=1e-3).run()
        assert set(result.grid_seconds) == {
            (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        }
        assert all(s > 0 for s in result.grid_seconds.values())

    def test_observer_hook_sees_each_grid(self):
        seen = []
        app = SequentialApplication(
            root=2, level=2, tol=1e-3, on_grid_done=lambda r: seen.append(r.grid)
        )
        app.run()
        assert len(seen) == 5

    def test_prolongate_requires_complete_data(self):
        app = SequentialApplication(root=2, level=2, tol=1e-3)
        data = app.initialize()
        with pytest.raises(ValueError, match="missing grids"):
            app.prolongate(data)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SequentialApplication(root=-1)
        with pytest.raises(ValueError):
            SequentialApplication(level=-1)
        with pytest.raises(ValueError):
            SequentialApplication(tol=0.0)

    def test_target_cap_respected(self):
        app = SequentialApplication(root=2, level=3, tol=1e-3, target_cap=2)
        result = app.run()
        assert (result.target_grid.l, result.target_grid.m) == (2, 2)

    def test_default_problem_is_rotating_cone(self):
        app = SequentialApplication()
        assert "rotating-cone" in app.problem.name

    def test_rerun_is_bitwise_reproducible(self):
        a = SequentialApplication(root=2, level=2, tol=1e-3).run()
        b = SequentialApplication(root=2, level=2, tol=1e-3).run()
        assert np.array_equal(a.combined, b.combined)
