"""The calibrated cost model for ``subsolve`` and the prolongation.

The Table-1 sweep covers levels 0..15 at two tolerances, five runs
each, sequential *and* concurrent — at level 15 a single sequential run
took the authors ~2000-4000 s.  Re-running that for real is neither
possible in a benchmark harness nor necessary: the timing *structure*
is what matters.  We therefore

1. **measure** real ``subsolve`` CPU times *and solver counters* on
   every grid of the calibration levels (both tolerances) with the
   actual solver;
2. **fit** the linear-solve count ``S`` with a log-linear model
   ``log S = s0 + s1*(l+m) + s2*|l-m| + s3*log10(1/tol)`` — counts are
   exact integers, so this regression is noise-free and captures how
   the adaptive controller reacts to refinement, anisotropy and
   tolerance;
3. **fit** the wall time with the physically-structured form
   ``w = gamma + beta*N + alpha*N*S`` (``N`` = interior unknowns):
   ``gamma`` is the per-call constant, ``beta*N`` the assembly cost,
   ``alpha*N*S`` the time-stepping cost that dominates at scale;
4. **extrapolate** to the full sweep, preferring exact measurements
   wherever they exist.

Fit quality (R^2, holdout error) is checked by the test suite.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from repro.cluster.simulator import GridCost
from repro.sparsegrid.grid import Grid, nested_loop_grids
from repro.sparsegrid.registry import make_problem
from repro.sparsegrid.subsolve import subsolve

__all__ = ["CalibrationError", "CostRecord", "CostModel", "measure_costs"]


class CalibrationError(ValueError):
    """The calibration data cannot support a usable wall-time fit.

    A ``ValueError`` subclass so existing guards keep working; carries
    the counts a caller needs to react usefully — how many records were
    supplied, how many cleared the noise floor, and the floor itself —
    instead of forcing them to parse the message.
    """

    def __init__(
        self,
        message: str,
        *,
        n_records: int = 0,
        n_usable: int = 0,
        noise_floor_seconds: float = 0.0,
    ) -> None:
        super().__init__(message)
        self.n_records = n_records
        self.n_usable = n_usable
        self.noise_floor_seconds = noise_floor_seconds


@dataclass(frozen=True)
class CostRecord:
    """One measured ``subsolve`` execution."""

    l: int
    m: int
    tol: float
    #: seconds of one solve (from :func:`measure_costs`: the solving
    #: thread's CPU seconds, its wall time when it has a CPU to itself)
    wall_seconds: float
    solves: int
    steps_accepted: int
    n_interior: int


def measure_costs(
    problem_name: str,
    root: int,
    levels: Sequence[int],
    tols: Sequence[float],
    *,
    problem_kwargs: Optional[dict] = None,
    t_end: Optional[float] = None,
    repeats: int = 1,
) -> list[CostRecord]:
    """Run the real solver on every grid of the given levels/tolerances.

    A record's seconds are the CPU seconds the calling thread spent in
    ``subsolve``: a solve is single-threaded, so on an idle machine this
    is its wall time, but time spent descheduled while other processes
    hold the CPU is not charged to it.  A wall clock is not robust here:
    on a shared host sustained contention inflated individual large-grid
    timings two- to three-fold and pulled the fit's R^2 from ~0.9 to
    ~0.6.  With ``repeats > 1`` each grid is solved that many times and
    the cheapest kept (cache and frequency noise only ever *add* time),
    while the solve counts are deterministic across repeats.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    problem = make_problem(problem_name, **(problem_kwargs or {}))
    records: list[CostRecord] = []
    seen: set[tuple[int, int, float]] = set()
    for tol in tols:
        for level in levels:
            for grid in nested_loop_grids(root, level):
                key = (grid.l, grid.m, tol)
                if key in seen:
                    continue
                seen.add(key)
                seconds = math.inf
                for _ in range(repeats):
                    started = time.thread_time()
                    result = subsolve(problem, grid, tol, t_end=t_end)
                    seconds = min(seconds, time.thread_time() - started)
                records.append(
                    CostRecord(
                        l=grid.l,
                        m=grid.m,
                        tol=tol,
                        wall_seconds=seconds,
                        solves=result.stats.solves,
                        steps_accepted=result.stats.steps_accepted,
                        n_interior=grid.n_interior,
                    )
                )
    return records


@dataclass
class CostModel:
    """Fitted cost model with exact-measurement pass-through."""

    root: int
    #: (s0, s1, s2, s3) of the log-linear solve-count model
    solve_coefficients: tuple[float, float, float, float]
    #: (gamma, beta, alpha) of ``w = gamma + beta*N + alpha*N*S``
    wall_coefficients: tuple[float, float, float]
    r_squared: float
    solves_r_squared: float
    noise_floor_seconds: float
    measured: dict[tuple[int, int, float], float] = field(default_factory=dict)
    #: prolongation cost per combined target node, per component grid
    prolongation_seconds_per_node_grid: float = 2.0e-8
    #: calibration machine → reference machine scale (1.0: report our
    #: own machine's seconds as "reference seconds"; the shape analysis
    #: is scale-free)
    reference_scale: float = 1.0

    # ------------------------------------------------------------------
    # fitting
    # ------------------------------------------------------------------
    @classmethod
    def fit(
        cls,
        records: Sequence[CostRecord],
        root: int,
        *,
        noise_floor_seconds: float = 5.0e-3,
    ) -> "CostModel":
        """Fit the solve-count and wall-time models.

        Raises :class:`CalibrationError` when the data cannot support a
        usable fit: too few records, too few above the noise floor, or
        a wall-time fit whose ``N*S`` term vanishes even on the
        large-grid subset (see below).
        """
        if len(records) < 8:
            raise CalibrationError(
                f"need >= 8 records to fit, got {len(records)}",
                n_records=len(records),
                noise_floor_seconds=noise_floor_seconds,
            )

        # --- solve-count regression (exact integer data) ---------------
        s_rows = np.array(
            [
                [1.0, r.l + r.m, abs(r.l - r.m), math.log10(1.0 / r.tol)]
                for r in records
            ]
        )
        s_target = np.array([math.log(max(r.solves, 1)) for r in records])
        s_coef, *_ = np.linalg.lstsq(s_rows, s_target, rcond=None)
        s_pred = s_rows @ s_coef
        s_res = float(np.sum((s_target - s_pred) ** 2))
        s_tot = float(np.sum((s_target - s_target.mean()) ** 2))
        solves_r2 = 1.0 - s_res / s_tot if s_tot > 0 else 1.0

        # --- wall-time regression (structured, dominated by large grids)
        usable = [r for r in records if r.wall_seconds >= noise_floor_seconds]
        if len(usable) < 4:
            raise CalibrationError(
                f"need >= 4 records above the {noise_floor_seconds}s noise "
                f"floor, got {len(usable)} of {len(records)}",
                n_records=len(records),
                n_usable=len(usable),
                noise_floor_seconds=noise_floor_seconds,
            )
        # non-negative least squares: every structural term is a cost,
        # so the physical constraint is part of the estimation (a plain
        # lstsq-then-clip biases the fit badly on single-tolerance data)
        from scipy.optimize import nnls

        def _nnls_wall(subset: Sequence[CostRecord]):
            rows = np.array(
                [
                    [
                        1.0,
                        float(r.n_interior),
                        float(r.n_interior) * float(r.solves),
                    ]
                    for r in subset
                ]
            )
            target = np.array([r.wall_seconds for r in subset])
            coef, _ = nnls(rows, target)
            return coef, rows, target

        def _degenerate(coef, rows) -> bool:
            # NNLS rarely returns an exact 0.0 — numerical dust like
            # 1e-24 survives — so test whether the N*S term contributes
            # measurably to even the largest grid's predicted time
            return float(coef[2]) * float(rows[:, 2].max()) < 1.0e-9

        w_coef, w_rows, w_target = _nnls_wall(usable)
        if _degenerate(w_coef, w_rows):
            # Degenerate under load: background machine noise inflates
            # the small-grid timings, so NNLS explains everything with
            # the constant and ``beta*N`` terms and zeroes ``alpha`` —
            # leaving a model that cannot extrapolate.  The ``N*S``
            # signal lives in the large grids, where noise is relatively
            # tiny; refit on the top half by unknown count.
            large = sorted(usable, key=lambda r: r.n_interior)
            large = large[len(large) // 2 :]
            if len(large) >= 4:
                coef, rows, target = _nnls_wall(large)
                if not _degenerate(coef, rows):
                    w_coef, w_rows, w_target = coef, rows, target
        if _degenerate(w_coef, w_rows):
            raise CalibrationError(
                "wall-time fit degenerate: the N*S term vanished even on "
                "the large-grid subset; calibrate on larger levels",
                n_records=len(records),
                n_usable=len(usable),
                noise_floor_seconds=noise_floor_seconds,
            )
        # fit quality on the records actually fitted (the large-grid
        # subset, when the refit path was taken)
        w_pred = w_rows @ w_coef
        w_res = float(np.sum((w_target - w_pred) ** 2))
        w_tot = float(np.sum((w_target - w_target.mean()) ** 2))
        r_squared = 1.0 - w_res / w_tot if w_tot > 0 else 1.0

        measured = {(r.l, r.m, r.tol): r.wall_seconds for r in records}
        return cls(
            root=root,
            solve_coefficients=tuple(float(c) for c in s_coef),  # type: ignore[arg-type]
            wall_coefficients=tuple(float(c) for c in w_coef),  # type: ignore[arg-type]
            r_squared=r_squared,
            solves_r_squared=solves_r2,
            noise_floor_seconds=noise_floor_seconds,
            measured=measured,
        )

    # ------------------------------------------------------------------
    # prediction
    # ------------------------------------------------------------------
    def predict_solves(self, l: int, m: int, tol: float) -> float:
        """Predicted number of linear solves of one ``subsolve``."""
        s0, s1, s2, s3 = self.solve_coefficients
        return math.exp(
            s0 + s1 * (l + m) + s2 * abs(l - m) + s3 * math.log10(1.0 / tol)
        )

    def predict_seconds(self, l: int, m: int, tol: float) -> float:
        """Model prediction, ignoring any exact measurement."""
        gamma, beta, alpha = self.wall_coefficients
        grid = Grid(self.root, l, m)
        n = float(grid.n_interior)
        s = self.predict_solves(l, m, tol)
        return gamma + beta * n + alpha * n * s

    def work_seconds(self, l: int, m: int, tol: float) -> float:
        """Reference-machine seconds for ``subsolve(l, m)`` at ``tol``.

        Prefers the exact measurement when one was recorded above the
        noise floor (small-grid measurements are timer noise; the model
        smooths them).
        """
        exact = self.measured.get((l, m, tol))
        if exact is not None and exact >= self.noise_floor_seconds:
            return exact * self.reference_scale
        return self.predict_seconds(l, m, tol) * self.reference_scale

    def grid_cost(self, l: int, m: int, tol: float) -> GridCost:
        grid = Grid(self.root, l, m)
        return GridCost(
            l=l,
            m=m,
            work_ref_seconds=self.work_seconds(l, m, tol),
            result_bytes=8 * grid.n_nodes,
        )

    def level_costs(self, level: int, tol: float) -> list[GridCost]:
        """Costs of every grid of the nested loop, in loop order."""
        return [
            self.grid_cost(g.l, g.m, tol)
            for g in nested_loop_grids(self.root, level)
        ]

    def prolongation_seconds(self, level: int, target_cap: int | None = 8) -> float:
        """Master-side combination cost: per target node, per grid."""
        target_level = level if target_cap is None else min(level, target_cap)
        target_nodes = (2 ** (self.root + target_level) + 1) ** 2
        n_grids = 2 * level + 1 if level > 0 else 1
        return self.prolongation_seconds_per_node_grid * target_nodes * n_grids

    # ------------------------------------------------------------------
    # diagnostics / persistence
    # ------------------------------------------------------------------
    def holdout_error(self, records: Sequence[CostRecord]) -> float:
        """Median relative |prediction - measurement| on given records."""
        errors = [
            abs(self.predict_seconds(r.l, r.m, r.tol) - r.wall_seconds)
            / r.wall_seconds
            for r in records
            if r.wall_seconds >= self.noise_floor_seconds
        ]
        if not errors:
            raise CalibrationError(
                "no records above the noise floor to validate on",
                n_records=len(records),
                noise_floor_seconds=self.noise_floor_seconds,
            )
        return float(np.median(errors))

    def to_json(self, path: str | Path) -> None:
        payload = {
            "root": self.root,
            "solve_coefficients": list(self.solve_coefficients),
            "wall_coefficients": list(self.wall_coefficients),
            "r_squared": self.r_squared,
            "solves_r_squared": self.solves_r_squared,
            "noise_floor_seconds": self.noise_floor_seconds,
            "prolongation_seconds_per_node_grid": self.prolongation_seconds_per_node_grid,
            "reference_scale": self.reference_scale,
            "measured": [
                {"l": l, "m": m, "tol": tol, "wall_seconds": w}
                for (l, m, tol), w in sorted(self.measured.items())
            ],
        }
        Path(path).write_text(json.dumps(payload, indent=2))

    @classmethod
    def from_json(cls, path: str | Path) -> "CostModel":
        payload = json.loads(Path(path).read_text())
        return cls(
            root=payload["root"],
            solve_coefficients=tuple(payload["solve_coefficients"]),
            wall_coefficients=tuple(payload["wall_coefficients"]),
            r_squared=payload["r_squared"],
            solves_r_squared=payload["solves_r_squared"],
            noise_floor_seconds=payload["noise_floor_seconds"],
            prolongation_seconds_per_node_grid=payload[
                "prolongation_seconds_per_node_grid"
            ],
            # keys are read by name: a file saved with keys this model
            # no longer has (the transport terms) still loads
            reference_scale=payload.get("reference_scale", 1.0),
            measured={
                (rec["l"], rec["m"], rec["tol"]): rec["wall_seconds"]
                for rec in payload["measured"]
            },
        )
