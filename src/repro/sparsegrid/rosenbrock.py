"""The adaptive Rosenbrock (ROS2) time integrator.

The original program integrates each grid's semi-discrete system with a
Rosenbrock solver whose "adaptive time step ... must be computed again
and again".  We implement the classical two-stage, second-order,
L-stable ROS2 scheme of Verwer et al. (developed at CWI, like the paper
itself), for the linear system ``du/dt = J u + b(t)``::

    (I - gamma*h*J) k1 = f(u_n, t_n)
    (I - gamma*h*J) k2 = f(u_n + h*k1, t_n + h) - 2*k1
    u_{n+1} = u_n + (3/2) h k1 + (1/2) h k2        gamma = 1 + 1/sqrt(2)

Step control is the standard embedded-pair strategy: the first-order
result ``u_n + h k1`` provides the error estimate ``(h/2)||k1 + k2||``
in a mixed absolute/relative norm with tolerance ``le_tol`` (the
program's third command-line argument); accepted/rejected steps resize
``h`` by the usual safety-factored square-root rule.  All counters are
exposed for the performance model.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .discretize import SpatialOperator
from .linsolve import FactorCache, RosenbrockSystemSolver

__all__ = ["StepStats", "Ros2Integrator"]

#: The L-stability parameter of ROS2.
GAMMA = 1.0 + 1.0 / math.sqrt(2.0)


@dataclass
class StepStats:
    """Counters accumulated over one integration."""

    steps_accepted: int = 0
    steps_rejected: int = 0
    factorizations: int = 0
    solves: int = 0
    rhs_evaluations: int = 0
    #: ``prepare()`` calls on the linear solver (one per attempted step)
    prepare_calls: int = 0
    #: prepares served without computing a fresh LU (same-``h`` hold or
    #: a warm-path factor-cache hit)
    factor_reuse_hits: int = 0
    #: the subset of reuse hits served by a cross-run factor cache
    factor_cache_hits: int = 0
    assembly_seconds: float = 0.0
    factor_seconds: float = 0.0
    solve_seconds: float = 0.0
    total_seconds: float = 0.0
    final_h: float = 0.0
    min_h: float = math.inf
    max_h: float = 0.0
    #: accepted step sizes, for diagnostics (kept small: bounded runs)
    h_history: list[float] = field(default_factory=list)

    @property
    def steps_total(self) -> int:
        return self.steps_accepted + self.steps_rejected

    @property
    def factor_reuse_ratio(self) -> float:
        """Fraction of prepares that reused a factorization — the
        factorization-cache effectiveness the cost model reports."""
        if self.prepare_calls == 0:
            return 0.0
        return self.factor_reuse_hits / self.prepare_calls


class Ros2Integrator:
    """Integrate one grid's semi-discrete system from ``t0`` to ``t_end``."""

    #: step-size controller constants
    SAFETY = 0.9
    GROW_MAX = 2.0
    SHRINK_MIN = 0.2
    MAX_REJECTS = 60
    #: hold the current step while the proposed change is within this
    #: band — refactorizing (I - gamma*h*J) costs far more than the
    #: accuracy a few-percent step tweak buys, so the controller only
    #: moves ``h`` when it pays for a new factorization
    HOLD_LO = 1.0
    HOLD_HI = 1.35

    def __init__(
        self,
        operator: SpatialOperator,
        tol: float,
        *,
        h0: float | None = None,
        h_min: float = 1.0e-12,
        h_max: float | None = None,
        record_history: bool = False,
        factor_cache: FactorCache | None = None,
    ) -> None:
        if tol <= 0:
            raise ValueError(f"tolerance must be positive, got {tol}")
        self.operator = operator
        self.tol = tol
        self.h_min = h_min
        self.h_max = h_max
        self.record_history = record_history
        self.solver = RosenbrockSystemSolver(
            operator.J, GAMMA, factor_cache=factor_cache
        )
        self._h0 = h0

    # ------------------------------------------------------------------
    def _initial_step(
        self, u: np.ndarray, b0: np.ndarray, t0: float, t_end: float
    ) -> float:
        """A conservative initial step: limited by the RHS magnitude
        (``b0`` is the forcing at ``t0``)."""
        if self._h0 is not None:
            return min(self._h0, t_end - t0)
        f0 = self.operator.J @ u + b0
        scale = np.linalg.norm(f0) / math.sqrt(max(1, f0.size))
        span = t_end - t0
        if scale <= 0:
            return span / 16.0
        h = math.sqrt(self.tol) / scale
        return float(min(max(h, self.h_min), span / 4.0))

    def _error_norm(
        self, est: np.ndarray, u: np.ndarray, u_new: np.ndarray,
        scale: np.ndarray, scratch: np.ndarray,
    ) -> float:
        """Mixed norm: RMS of est / (atol + rtol*|u|), tol plays both roles.

        ``scale`` and ``scratch`` are work arrays the norm overwrites.
        """
        np.abs(u, out=scale)
        np.maximum(scale, np.abs(u_new, out=scratch), out=scale)
        np.multiply(self.tol, scale, out=scale)
        np.add(self.tol, scale, out=scale)
        ratio = np.divide(est, scale, out=scale)
        np.multiply(ratio, ratio, out=ratio)
        return math.sqrt(np.add.reduce(ratio) / ratio.size)

    # ------------------------------------------------------------------
    def integrate(
        self, u0: np.ndarray, t0: float, t_end: float
    ) -> tuple[np.ndarray, StepStats]:
        """Run the adaptive loop; returns the final state and counters.

        Every update goes into this integration's work arrays (a step
        allocates only what ``J @ x``, the stage solves and ``forcing``
        return), and ``forcing`` is evaluated once per distinct ``t``:
        stage 2's ``t + h`` is, on acceptance, the next step's ``t``.
        Each update keeps the operands and their order from the plain
        array expression of the scheme, so the bits do not depend on
        the buffers.
        """
        if t_end <= t0:
            raise ValueError(f"t_end ({t_end}) must exceed t0 ({t0})")
        started = time.perf_counter()
        stats = StepStats(assembly_seconds=self.operator.assembly_seconds)
        u = np.array(u0, dtype=float)
        if u.size == 0:
            # a grid with no interior node: the solution is its boundary
            stats.total_seconds = time.perf_counter() - started
            stats.min_h = 0.0
            return u, stats
        J, forcing, solver = self.operator.J, self.operator.forcing, self.solver
        t = t0
        b = forcing(t)
        h = self._initial_step(u, b, t0, t_end)
        if self.h_max is not None:
            h = min(h, self.h_max)
        rejects_in_a_row = 0
        u_new, stage, est, work = (np.empty_like(u) for _ in range(4))

        while t < t_end - 1.0e-14 * max(1.0, abs(t_end)):
            h = min(h, t_end - t)
            h = max(h, self.h_min)
            solver.prepare(h)

            f = J @ u
            f += b
            k1 = solver.solve(f)
            np.multiply(h, k1, out=stage)
            np.add(u, stage, out=stage)  # u + h k1
            t_stage = t + h
            b_stage = forcing(t_stage)
            f = J @ stage
            f += b_stage
            np.subtract(f, np.multiply(2.0, k1, out=stage), out=f)
            k2 = solver.solve(f)
            np.multiply(1.5, k1, out=stage)
            np.add(stage, np.multiply(0.5, k2, out=work), out=stage)
            np.multiply(h, stage, out=stage)
            np.add(u, stage, out=u_new)  # u + h (1.5 k1 + 0.5 k2)
            stats.rhs_evaluations += 2

            np.add(k1, k2, out=est)
            np.multiply(0.5 * h, est, out=est)  # h/2 (k1 + k2)
            err = self._error_norm(est, u, u_new, work, stage)
            if not math.isfinite(err):
                raise RuntimeError(
                    f"ROS2 error estimate is {err} on {self.operator.grid} "
                    f"at t={t!r} with h={h!r}: the state is not finite"
                )

            if err <= 1.0 or h <= self.h_min * (1 + 1e-12):
                # accept
                t = t_stage
                b = b_stage
                u, u_new = u_new, u
                stats.steps_accepted += 1
                stats.min_h = min(stats.min_h, h)
                stats.max_h = max(stats.max_h, h)
                if self.record_history:
                    stats.h_history.append(h)
                rejects_in_a_row = 0
                factor = self.SAFETY * (1.0 / max(err, 1.0e-10)) ** 0.5
                factor = min(self.GROW_MAX, max(self.SHRINK_MIN, factor))
                if not (self.HOLD_LO <= factor <= self.HOLD_HI):
                    h *= factor
            else:
                stats.steps_rejected += 1
                rejects_in_a_row += 1
                if rejects_in_a_row > self.MAX_REJECTS:
                    raise RuntimeError(
                        f"ROS2 rejected {rejects_in_a_row} consecutive steps on "
                        f"{self.operator.grid} (h={h:.3e}, err={err:.3e})"
                    )
                factor = self.SAFETY * (1.0 / err) ** 0.5
                h *= max(self.SHRINK_MIN, factor)
                h = max(h, self.h_min)
            if self.h_max is not None:
                h = min(h, self.h_max)

        stats.final_h = h
        stats.factorizations = self.solver.factorizations
        stats.prepare_calls = self.solver.prepare_calls
        stats.factor_reuse_hits = self.solver.reuse_hits
        stats.factor_cache_hits = self.solver.factor_cache_hits
        stats.solves = self.solver.solves
        stats.factor_seconds = self.solver.factor_seconds
        stats.solve_seconds = self.solver.solve_seconds
        stats.total_seconds = time.perf_counter() - started
        if stats.min_h is math.inf:
            stats.min_h = 0.0
        return u, stats
