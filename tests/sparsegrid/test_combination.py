"""Prolongation, restriction and the combination formula."""

from __future__ import annotations

import hashlib
import re

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
    """Contracts of the Horner-folded :func:`combine` beyond its value
    (the value properties are in ``tests/test_properties.py``)."""

    ROOT = 2

    #: sha256 of ``combine()`` on :meth:`closed_form`, recorded at the
    #: commit before the fold lost its streaming class.  The sequential
    #: driver shares ``combine``, so ``np.array_equal`` against it cannot
    #: see the bits move here; this can.  Levels 0-7 with the target at
    #: the level, then levels 4-7 under ``target_cap=3``.
    GOLDEN = {
        0: "8571f7d2460cb9f512dd15459e58a8c4b1b96a4b9a174a44a002b831ab3b6b17",
        1: "42b3a48da2f12cb83888a4cab69fd924296484547c3d7692f42b1ff0c7bc48d9",
        2: "497b5ab28b0461c0c25577ad94945378ad4509a83cccb033f2f187c88d56b415",
        3: "3f7574e4a6628f7ccaf4e13b48272cbd776a23a0610b988b398ac4c7826644a4",
        4: "3d00071e27d4d8d807cddab0dadd69beb33f14d7486aa0d9935b96943ab8a8d4",
        5: "1983fc1dfedba93401504861beb8741ca73daaa0477101eb8352dfc4c4b9bb59",
        6: "bf5cb9aaac377ee87989662797b0cfd72b48333116852f84161ffdb9841baaa8",
        7: "695c4e8a1330986546d1cba2092e0a86e801d6a236dbdca03b82a43e9ecae4c1",
    }
    GOLDEN_CAP_3 = {
        4: "695c0cec73ee40e81a1f437c1a14a16e04033b973d451d6cd5f9dc7fab89121a",
        5: "eed5323b9f1861ba74b2af11ad0351da438d249b3c4fd47e2bcd2e4b2c086f26",
        6: "8054942e6d6fa76ec9064ddc53d85daa3c8424440b372a30c5a264a4281b15cb",
        7: "a2210cead112b98cfd4d1e77b958bc4907c3f348dcb216f217373060f775860f",
    }

    def family(self, level):
        rng = np.random.default_rng(level)
        return {
            (g.l, g.m): rng.uniform(-1, 1, g.shape)
            for g, _ in combination_grids(self.ROOT, level)
        }

    @staticmethod
    def closed_form(grid):
        """Exact binary fractions over fifty binades, no RNG: every
        input is the same double everywhere, and nearly every ``+`` and
        midpoint rounds, so the digest moves with the order of any two
        of them (the direct ``sum c * P u`` differs in bits on half of
        the cases below)."""
        i, j = np.indices(grid.shape)
        mantissa = (31 * i + 17 * j + 7 * grid.l + 3 * grid.m) % 1021 + 1
        exponent = -((i + 2 * j + grid.l) % 50)
        sign = 1 - 2 * ((i + j + grid.m) % 2)
        return np.ldexp((sign * mantissa).astype(float), exponent)

    @pytest.mark.parametrize("target_cap", [None, 3, 8])
    @pytest.mark.parametrize("level", range(8))
    def test_golden_bits(self, level, target_cap):
        solutions = {
            (g.l, g.m): self.closed_form(g)
            for g, _ in combination_grids(self.ROOT, level)
        }
        _, combined = combine(solutions, self.ROOT, level, target_cap=target_cap)
        capped = target_cap is not None and target_cap < level
        expected = (self.GOLDEN_CAP_3 if capped else self.GOLDEN)[level]
        assert hashlib.sha256(combined.tobytes()).hexdigest() == expected

    @pytest.mark.parametrize("target_cap", [None, 1])
    def test_inputs_untouched_result_is_fresh(self, target_cap):
        """The fold is in place on its own accumulator only: a caller's
        arrays — subsampled as views under a cap — are read, never
        written, and the result aliases none of them."""
        level = 3
        solutions = self.family(level)
        before = {key: values.copy() for key, values in solutions.items()}
        _, combined = combine(solutions, self.ROOT, level, target_cap=target_cap)
        for key, values in solutions.items():
            assert np.array_equal(values, before[key])
            assert not np.shares_memory(combined, values)

    def test_rejections_keep_their_exception_types(self):
        solutions = self.family(2)
        loop_order = [(g.l, g.m) for g, _ in combination_grids(self.ROOT, 2)]
        # a missing grid is named in nested-loop order, whatever else is
        # missing after it
        del solutions[loop_order[1]], solutions[loop_order[3]]
        with pytest.raises(KeyError, match=re.escape(str(loop_order[1]))):
            combine(solutions, self.ROOT, 2)
        solutions = self.family(2)
        solutions[(1, 1)] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            combine(solutions, self.ROOT, 2)
