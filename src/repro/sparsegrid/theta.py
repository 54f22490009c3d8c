"""Fixed-step θ-method integrators — the baseline family.

The original program uses an *adaptive Rosenbrock* solver; the natural
baselines are the classical fixed-step θ-methods on the same linear
semi-discrete system ``du/dt = J u + b(t)``::

    (I - θ h J) u_{n+1} = (I + (1-θ) h J) u_n + h [θ b(t_{n+1}) + (1-θ) b(t_n)]

* ``θ = 1``   — implicit (backward) Euler: first order, L-stable;
* ``θ = 1/2`` — Crank–Nicolson: second order, A-stable;
* ``θ = 0``   — explicit Euler (first order, conditionally stable;
  provided for completeness, with the CFL danger documented).

One factorization serves the whole integration (``h`` fixed), so the
trade-off against ROS2 is: no error control and no step adaptation, in
exchange for minimal factorization work — exactly the design choice the
paper's developers rejected ("the adaptive time step in the time
integrator ... must be computed again and again"), quantified by the
integrator ablation benchmark.
"""

from __future__ import annotations

import math
import time

import numpy as np

from .discretize import SpatialOperator
from .linsolve import ShiftedOperator, factorize
from .rosenbrock import Ros2Integrator, StepStats

__all__ = ["ThetaIntegrator", "make_integrator", "steps_for_tolerance"]


class ThetaIntegrator:
    """Fixed-step θ-method on one grid's semi-discrete system."""

    def __init__(
        self,
        operator: SpatialOperator,
        theta: float = 0.5,
        n_steps: int = 64,
        *,
        record_history: bool = False,
    ) -> None:
        if not 0.0 <= theta <= 1.0:
            raise ValueError(f"theta must be in [0, 1], got {theta}")
        if n_steps < 1:
            raise ValueError(f"n_steps must be >= 1, got {n_steps}")
        self.operator = operator
        self.theta = theta
        self.n_steps = n_steps
        self.record_history = record_history

    def integrate(
        self, u0: np.ndarray, t0: float, t_end: float
    ) -> tuple[np.ndarray, StepStats]:
        if t_end <= t0:
            raise ValueError(f"t_end ({t_end}) must exceed t0 ({t0})")
        started = time.perf_counter()
        stats = StepStats(assembly_seconds=self.operator.assembly_seconds)
        shifted = ShiftedOperator(self.operator.J)
        h = (t_end - t0) / self.n_steps

        solve = None
        factor_started = time.perf_counter()
        if self.theta > 0.0:
            solve = factorize(shifted.matrix(self.theta * h)).solve
            stats.factorizations = 1
        stats.factor_seconds = time.perf_counter() - factor_started

        explicit = shifted.matrix(-((1.0 - self.theta) * h)).tocsr()
        u = np.asarray(u0, dtype=float).copy()
        t = t0
        b_old = self.operator.forcing(t)
        for _ in range(self.n_steps):
            b_new = self.operator.forcing(t + h)
            rhs = explicit @ u + h * (
                self.theta * b_new + (1.0 - self.theta) * b_old
            )
            stats.rhs_evaluations += 1
            if solve is not None:
                solve_started = time.perf_counter()
                u = solve(rhs)
                stats.solves += 1
                stats.solve_seconds += time.perf_counter() - solve_started
            else:
                u = rhs
            t += h
            b_old = b_new
            stats.steps_accepted += 1
            if self.record_history:
                stats.h_history.append(h)

        stats.min_h = stats.max_h = stats.final_h = h
        stats.total_seconds = time.perf_counter() - started
        return u, stats


def steps_for_tolerance(theta: float, tol: float, t_span: float) -> int:
    """A step count aiming the θ-method at a target accuracy.

    Local-error heuristics: Crank–Nicolson's global error is O(h^2) ⇒
    ``h ~ sqrt(tol)``; the first-order members need ``h ~ tol``.  The
    constants are calibrated loosely — the point of the baseline is the
    *cost ratio* against the adaptive ROS2 at comparable accuracy.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if abs(theta - 0.5) < 1.0e-12:
        h = math.sqrt(tol)
    else:
        h = tol
    return max(8, int(math.ceil(t_span / h)))


def make_integrator(
    name: str,
    operator: SpatialOperator,
    tol: float,
    t_span: float = 1.0,
    *,
    record_history: bool = False,
):
    """Integrator factory shared by ``subsolve`` and the benchmarks.

    ``name``: ``ros2`` (the paper's adaptive Rosenbrock),
    ``crank-nicolson``, ``implicit-euler`` or ``explicit-euler``.
    """
    if name == "ros2":
        return Ros2Integrator(operator, tol, record_history=record_history)
    thetas = {
        "crank-nicolson": 0.5,
        "implicit-euler": 1.0,
        "explicit-euler": 0.0,
    }
    if name not in thetas:
        raise ValueError(
            f"unknown integrator {name!r}; choose from "
            f"{['ros2', *thetas]}"
        )
    theta = thetas[name]
    n_steps = steps_for_tolerance(theta, tol, t_span)
    return ThetaIntegrator(
        operator, theta=theta, n_steps=n_steps, record_history=record_history
    )
