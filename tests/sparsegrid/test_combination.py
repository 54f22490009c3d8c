"""Prolongation, restriction and the combination formula."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sparsegrid import (
    Grid,
    SequentialApplication,
    combine,
    manufactured_problem,
    resample_1d,
    resample_2d,
)
from repro.sparsegrid.combination import IncrementalCombiner
from repro.sparsegrid.grid import combination_grids


class TestResample1D:
    def test_prolongation_doubles_cells(self):
        values = np.array([0.0, 1.0, 0.0])
        out = resample_1d(values, 1, axis=0)
        assert out.shape == (5,)

    def test_prolongation_is_linear_interpolation(self):
        values = np.array([0.0, 2.0])
        out = resample_1d(values, 1, axis=0)
        assert np.allclose(out, [0.0, 1.0, 2.0])

    def test_prolongation_preserves_existing_nodes(self):
        values = np.array([3.0, -1.0, 4.0])
        out = resample_1d(values, 2, axis=0)
        assert np.allclose(out[::4], values)

    def test_restriction_subsamples(self):
        values = np.linspace(0, 1, 9)
        out = resample_1d(values, -1, axis=0)
        assert np.allclose(out, values[::2])

    def test_zero_levels_is_identity(self):
        values = np.arange(5, dtype=float)
        assert np.array_equal(resample_1d(values, 0, axis=0), values)

    def test_prolong_then_restrict_is_identity(self):
        values = np.array([1.0, 4.0, 2.0, 7.0, 3.0])
        round_trip = resample_1d(resample_1d(values, 2, axis=0), -2, axis=0)
        assert np.allclose(round_trip, values)

    def test_respects_axis(self):
        values = np.zeros((3, 5))
        out = resample_1d(values, 1, axis=0)
        assert out.shape == (5, 5)
        out = resample_1d(values, 1, axis=1)
        assert out.shape == (3, 9)

    def test_linear_functions_reproduced_exactly(self):
        x = np.linspace(0, 1, 5)
        values = 3.0 * x + 1.0
        out = resample_1d(values, 3, axis=0)
        x_fine = np.linspace(0, 1, len(out))
        assert np.allclose(out, 3.0 * x_fine + 1.0)


class TestResample2D:
    def test_shape_mapping(self):
        src = Grid(2, 0, 2)
        dst = Grid(2, 2, 2)
        values = np.zeros(src.shape)
        assert resample_2d(values, src, dst).shape == dst.shape

    def test_mixed_prolong_restrict(self):
        src = Grid(2, 2, 0)
        dst = Grid(2, 1, 1)
        xx, yy = src.meshgrid()
        values = 2 * xx + 3 * yy  # bilinear: exactly representable
        out = resample_2d(values, src, dst)
        xx2, yy2 = dst.meshgrid()
        assert np.allclose(out, 2 * xx2 + 3 * yy2)

    def test_root_mismatch_rejected(self):
        with pytest.raises(ValueError):
            resample_2d(np.zeros(Grid(2, 0, 0).shape), Grid(2, 0, 0), Grid(3, 0, 0))

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            resample_2d(np.zeros((3, 3)), Grid(2, 1, 1), Grid(2, 2, 2))


class TestCombine:
    def solutions_for(self, root, level, f):
        from repro.sparsegrid.grid import nested_loop_grids

        return {
            (g.l, g.m): g.sample(lambda x, y: f(x, y))
            for g in nested_loop_grids(root, level)
        }

    def test_constant_field_reproduced(self):
        solutions = self.solutions_for(2, 3, lambda x, y: np.full_like(x, 7.0))
        _, combined = combine(solutions, 2, 3)
        assert np.allclose(combined, 7.0)

    def test_bilinear_field_reproduced_exactly(self):
        f = lambda x, y: 2 * x - y + 3 * x * y + 1
        solutions = self.solutions_for(2, 3, f)
        target, combined = combine(solutions, 2, 3)
        xx, yy = target.meshgrid()
        assert np.allclose(combined, f(xx, yy))

    def test_target_grid_is_isotropic_at_level(self):
        solutions = self.solutions_for(2, 2, lambda x, y: x)
        target, _ = combine(solutions, 2, 2)
        assert (target.l, target.m) == (2, 2)

    def test_target_cap_bounds_target(self):
        solutions = self.solutions_for(2, 3, lambda x, y: x)
        target, _ = combine(solutions, 2, 3, target_cap=2)
        assert (target.l, target.m) == (2, 2)

    def test_missing_grid_rejected(self):
        solutions = self.solutions_for(2, 2, lambda x, y: x)
        del solutions[(1, 1)]
        with pytest.raises(KeyError):
            combine(solutions, 2, 2)

    def test_level_zero_is_passthrough(self):
        g = Grid(2, 0, 0)
        values = g.sample(lambda x, y: x * y)
        _, combined = combine({(0, 0): values}, 2, 0)
        assert np.allclose(combined, values)

    def test_combination_error_decreases_with_level(self):
        """The headline numerical property of the sparse-grid method:
        the combined solution converges as the level grows."""
        problem = manufactured_problem(diffusion=0.02, t_end=0.25)
        errors = []
        for level in (1, 3, 5):
            app = SequentialApplication(
                root=2, level=level, tol=1e-6, problem=problem
            )
            result = app.run()
            xx, yy = result.target_grid.meshgrid()
            exact = problem.exact(xx, yy, 0.25)
            errors.append(float(np.max(np.abs(result.combined - exact))))
        assert errors[1] < errors[0]
        assert errors[2] < errors[1]


class TestFoldedCombiner:
    """Contracts of the Horner-folded streaming combiner beyond its
    value (the value properties are in ``tests/test_properties.py``)."""

    ROOT = 2

    def family(self, level):
        rng = np.random.default_rng(level)
        return {
            (g.l, g.m): rng.uniform(-1, 1, g.shape)
            for g, _ in combination_grids(self.ROOT, level)
        }

    def test_worst_arrival_order_parks_about_three_target_arrays(self):
        """Nothing folds until the chain's first grid lands, so feeding
        it last parks the whole family — at its axis-1-prolonged size,
        rows(l) x cols(target), not at target size."""
        level = 7
        solutions = self.family(level)
        combiner = IncrementalCombiner(self.ROOT, level)
        target_bytes = 8 * combiner.target.n_nodes
        cols = combiner.target.shape[1]
        family_bytes = sum(
            8 * Grid(self.ROOT, l, m).shape[0] * cols for l, m in solutions
        )
        assert family_bytes < 3.1 * target_bytes
        first, *rest = combiner.expected_keys()
        peak = 0
        for key in rest:
            assert combiner.add(key, solutions[key]) == 0
            peak = max(peak, sum(a.nbytes for a in combiner._parked.values()))
        assert 2.9 * target_bytes < peak <= family_bytes
        assert combiner.add(first, solutions[first]) == len(solutions)
        assert not combiner._parked
        assert np.array_equal(
            combiner.result()[1], combine(solutions, self.ROOT, level)[1]
        )

    @pytest.mark.parametrize("target_cap", [None, 1])
    def test_add_copies_views_of_caller_memory(self, target_cap):
        """The copy contract: the caller may reclaim (here: scribble on)
        its buffer the moment ``add`` returns, parked or not."""
        level = 3
        solutions = self.family(level)
        _, expected = combine(solutions, self.ROOT, level, target_cap=target_cap)
        combiner = IncrementalCombiner(self.ROOT, level, target_cap=target_cap)
        for key in reversed(combiner.expected_keys()):
            buffer = solutions[key].copy()
            combiner.add(key, buffer)
            assert not any(
                np.shares_memory(buffer, a) for a in combiner._parked.values()
            )
            buffer.fill(np.nan)
        assert np.array_equal(combiner.result()[1], expected)

    def test_rejections_keep_their_exception_types(self):
        combiner = IncrementalCombiner(self.ROOT, 2)
        with pytest.raises(KeyError):
            combiner.add((5, 5), np.zeros((3, 3)))
        with pytest.raises(ValueError):
            combiner.add((1, 1), np.zeros((3, 3)))
        combiner.add((1, 1), np.zeros(Grid(self.ROOT, 1, 1).shape))
        with pytest.raises(ValueError):
            combiner.add((1, 1), np.zeros(Grid(self.ROOT, 1, 1).shape))
        with pytest.raises(KeyError):
            combiner.result()
        assert (1, 1) not in combiner.remaining
