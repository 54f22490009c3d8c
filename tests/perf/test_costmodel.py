"""Cost model: fitting, extrapolation, persistence."""

from __future__ import annotations

import json
import math
import time
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.perf.costmodel import (
    CalibrationError,
    CostModel,
    CostRecord,
    measure_costs,
)
from tests.conftest import synthetic_records


class TestFitOnSyntheticTruth:
    """Fitting noise-free records from a known model must recover it."""

    def test_solve_model_recovered(self, synthetic_cost_model):
        s0, s1, s2, s3 = synthetic_cost_model.solve_coefficients
        assert s1 == pytest.approx(0.11, abs=0.02)
        assert s3 == pytest.approx(1.2, abs=0.05)
        assert synthetic_cost_model.solves_r_squared > 0.99

    def test_wall_model_recovered(self, synthetic_cost_model):
        gamma, beta, alpha = synthetic_cost_model.wall_coefficients
        assert alpha == pytest.approx(1.0e-7, rel=0.15)
        assert synthetic_cost_model.r_squared > 0.99

    def test_extrapolation_matches_truth(self, synthetic_cost_model):
        """Predict level 10 from a fit on levels 2-6."""
        truth = synthetic_records(levels=[10])
        err = synthetic_cost_model.holdout_error(truth)
        assert err < 0.15

    def test_measured_values_pass_through(self, synthetic_cost_model):
        records = synthetic_records(levels=[4])
        sample = [r for r in records if r.wall_seconds > 0.01][0]
        got = synthetic_cost_model.work_seconds(sample.l, sample.m, sample.tol)
        assert got == pytest.approx(sample.wall_seconds)

    def test_prediction_used_beyond_measurements(self, synthetic_cost_model):
        predicted = synthetic_cost_model.work_seconds(9, 3, 1e-3)
        assert predicted == pytest.approx(
            synthetic_cost_model.predict_seconds(9, 3, 1e-3)
        )

    def test_work_grows_with_level(self, synthetic_cost_model):
        levels = [
            sum(c.work_ref_seconds for c in synthetic_cost_model.level_costs(lvl, 1e-3))
            for lvl in (8, 10, 12)
        ]
        assert levels[0] < levels[1] < levels[2]

    def test_tighter_tolerance_costs_more(self, synthetic_cost_model):
        loose = synthetic_cost_model.work_seconds(8, 8, 1e-3)
        tight = synthetic_cost_model.work_seconds(8, 8, 1e-4)
        assert tight > loose

    def test_level_costs_in_loop_order(self, synthetic_cost_model):
        costs = synthetic_cost_model.level_costs(2, 1e-3)
        assert [(c.l, c.m) for c in costs] == [
            (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)
        ]

    def test_result_bytes_match_grid(self, synthetic_cost_model):
        cost = synthetic_cost_model.grid_cost(2, 3, 1e-3)
        from repro.sparsegrid import Grid

        assert cost.result_bytes == 8 * Grid(2, 2, 3).n_nodes

    def test_prolongation_grows_with_grid_count(self, synthetic_cost_model):
        p5 = synthetic_cost_model.prolongation_seconds(5)
        p10 = synthetic_cost_model.prolongation_seconds(10)
        assert p10 > p5

    def test_prolongation_cap_bounds_target(self, synthetic_cost_model):
        capped = synthetic_cost_model.prolongation_seconds(12, target_cap=6)
        uncapped = synthetic_cost_model.prolongation_seconds(12, target_cap=None)
        assert capped < uncapped


class TestFitValidation:
    def test_too_few_records_rejected(self):
        with pytest.raises(ValueError):
            CostModel.fit(synthetic_records(levels=[2])[:4], root=2)

    def test_too_few_records_error_is_typed(self):
        with pytest.raises(CalibrationError) as exc:
            CostModel.fit(synthetic_records(levels=[2])[:4], root=2)
        assert exc.value.n_records == 4

    def test_all_below_noise_floor_rejected(self):
        records = [
            CostRecord(l=i, m=0, tol=1e-3, wall_seconds=1e-6, solves=10,
                       steps_accepted=5, n_interior=100)
            for i in range(10)
        ]
        with pytest.raises(ValueError):
            CostModel.fit(records, root=2)

    def test_noise_floor_error_carries_counts(self):
        records = [
            CostRecord(l=i, m=0, tol=1e-3, wall_seconds=1e-6, solves=10,
                       steps_accepted=5, n_interior=100)
            for i in range(10)
        ]
        with pytest.raises(CalibrationError) as exc:
            CostModel.fit(records, root=2, noise_floor_seconds=5e-3)
        assert exc.value.n_records == 10
        assert exc.value.n_usable == 0
        assert exc.value.noise_floor_seconds == 5e-3

    def test_holdout_requires_usable_records(self, synthetic_cost_model):
        tiny = [
            CostRecord(l=0, m=0, tol=1e-3, wall_seconds=1e-9, solves=1,
                       steps_accepted=1, n_interior=1)
        ]
        with pytest.raises(ValueError):
            synthetic_cost_model.holdout_error(tiny)


class TestDegenerateFitRecovery:
    """The load-flake scenario: background noise inflates the cheap
    grids until wall time no longer grows with ``N*S`` and plain NNLS
    zeroes the dominant coefficient.  The fit must recover by refitting
    on the large-grid subset, where the signal survives the noise."""

    @staticmethod
    def _loaded_records():
        # level-2 grids are sub-ms jobs: scheduler noise on a loaded
        # machine easily adds tens of ms, dwarfing the level-5 timings
        records = synthetic_records(levels=(2, 5), tols=(1e-3,))
        return [
            replace(r, wall_seconds=r.wall_seconds + 0.05)
            if r.n_interior < 100
            else r
            for r in records
        ]

    def test_refit_recovers_alpha(self):
        model = CostModel.fit(
            self._loaded_records(), root=2, noise_floor_seconds=1e-3
        )
        gamma, beta, alpha = model.wall_coefficients
        # ground truth alpha of synthetic_records is 1e-7
        assert alpha == pytest.approx(1.0e-7, rel=0.15)

    def test_refit_r_squared_reflects_fitted_subset(self):
        model = CostModel.fit(
            self._loaded_records(), root=2, noise_floor_seconds=1e-3
        )
        assert model.r_squared > 0.99

    def test_refit_extrapolates_like_clean_fit(self):
        model = CostModel.fit(
            self._loaded_records(), root=2, noise_floor_seconds=1e-3
        )
        truth = synthetic_records(levels=[8], tols=(1e-3,))
        assert model.holdout_error(truth) < 0.2

    def test_unrecoverable_degeneracy_raises_typed_error(self):
        flat = [
            replace(r, wall_seconds=0.05)
            for r in synthetic_records(levels=(2, 5), tols=(1e-3,))
        ]
        with pytest.raises(CalibrationError) as exc:
            CostModel.fit(flat, root=2, noise_floor_seconds=1e-3)
        assert exc.value.n_usable == len(flat)
        assert "degenerate" in str(exc.value)


class TestPersistence:
    def test_json_roundtrip(self, synthetic_cost_model, tmp_path):
        path = tmp_path / "model.json"
        synthetic_cost_model.to_json(path)
        loaded = CostModel.from_json(path)
        assert loaded.solve_coefficients == synthetic_cost_model.solve_coefficients
        assert loaded.wall_coefficients == synthetic_cost_model.wall_coefficients
        assert loaded.measured == synthetic_cost_model.measured
        assert loaded.work_seconds(9, 9, 1e-4) == pytest.approx(
            synthetic_cost_model.work_seconds(9, 9, 1e-4)
        )
        # a calibration saved when the model still carried transport
        # terms has three keys more; they are ignored, not an error
        payload = json.loads(path.read_text())
        payload.update(
            pickle_bytes_per_second=0.8e9,
            shm_bytes_per_second=4.0e9,
            transport_latency_seconds=5.0e-5,
        )
        path.write_text(json.dumps(payload))
        assert CostModel.from_json(path) == loaded


class TestMeasurement:
    """What ``measure_costs`` charges a solve, on a stand-in solver."""

    @staticmethod
    def _stand_in(monkeypatch, body):
        calls = []

        def subsolve(problem, grid, tol, t_end=None):
            body(len(calls))
            calls.append(grid)
            return SimpleNamespace(
                stats=SimpleNamespace(solves=3, steps_accepted=2)
            )

        monkeypatch.setattr("repro.perf.costmodel.subsolve", subsolve)
        return calls

    @staticmethod
    def _burn(seconds):
        started = time.thread_time()
        while time.thread_time() - started < seconds:
            pass

    def test_time_descheduled_is_not_charged(self, monkeypatch):
        """A solve that waits 50 ms off the CPU — as one does when other
        processes hold it — is charged its CPU time, not its wall time."""
        self._stand_in(monkeypatch, lambda call: time.sleep(0.05))
        (record,) = measure_costs("rotating-cone", root=2, levels=[0],
                                  tols=[1e-3])
        assert 0.0 <= record.wall_seconds < 0.025
        assert (record.solves, record.steps_accepted) == (3, 2)

    def test_cheapest_repeat_is_kept(self, monkeypatch):
        calls = self._stand_in(
            monkeypatch, lambda call: self._burn(0.04 if call == 0 else 0.0)
        )
        (record,) = measure_costs("rotating-cone", root=2, levels=[0],
                                  tols=[1e-3], repeats=3)
        assert len(calls) == 3
        assert record.wall_seconds < 0.02


class TestRealCalibration:
    """Calibration against the actual solver (small levels)."""

    def test_measure_costs_covers_all_grids(self, calibrated_cost_model):
        # levels 3..5 for two tolerances: union of nested-loop grids
        measured_keys = set(calibrated_cost_model.measured)
        assert (2, 3, 1e-3) in measured_keys
        assert (0, 3, 1e-4) in measured_keys

    def test_fit_quality(self, calibrated_cost_model):
        assert calibrated_cost_model.r_squared > 0.7
        assert calibrated_cost_model.solves_r_squared > 0.5

    def test_growth_factor_in_paper_range(self, calibrated_cost_model):
        """Sequential work grows 2-3x per level (paper: ~2.4)."""
        st = [
            sum(c.work_ref_seconds for c in calibrated_cost_model.level_costs(l, 1e-3))
            for l in (12, 13, 14)
        ]
        assert 1.8 < st[1] / st[0] < 3.2
        assert 1.8 < st[2] / st[1] < 3.2

    def test_tolerance_ratio_in_paper_range(self, calibrated_cost_model):
        """The 1e-4 runs cost ~1.5-3x the 1e-3 runs (paper: ~2)."""
        a = sum(c.work_ref_seconds for c in calibrated_cost_model.level_costs(12, 1e-3))
        b = sum(c.work_ref_seconds for c in calibrated_cost_model.level_costs(12, 1e-4))
        assert 1.3 < b / a < 4.0

    def test_extrapolation_validates_on_next_level(self, calibrated_cost_model):
        """Hold out level 6: the model fitted on 3-5 predicts the real
        measured level-6 costs within a factor ~2 (median)."""
        holdout = measure_costs(
            "rotating-cone", root=2, levels=[6], tols=[1e-3], repeats=2
        )
        assert calibrated_cost_model.holdout_error(holdout) < 1.0
