"""``subsolve(l, m)`` — the computation-intensive grid routine.

This is the routine the paper's cut identifies as the concurrency
candidate: "every grid subroutine with the property that it reads and
writes data only from and to its own grid, can be restructured to run
concurrently".  Our ``subsolve`` honours exactly that contract — its
inputs are the problem and the grid indices, its output is the final
solution on that grid; it touches no shared state, so the sequential
driver, the thread workers, and the multiprocessing workers all call
the *same* function.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .discretize import Scheme, SpatialOperator
from .grid import Grid
from .linsolve import FactorCache
from .problem import AdvectionDiffusionProblem
from .rosenbrock import Ros2Integrator, StepStats

__all__ = ["SubsolveResult", "subsolve"]


@dataclass
class SubsolveResult:
    """Outcome of one grid integration."""

    grid: Grid
    #: final solution on the full node array, boundary included
    solution: np.ndarray
    stats: StepStats
    wall_seconds: float

    @property
    def work_units(self) -> float:
        """An architecture-independent work measure for the cost model:
        interior unknowns times linear solves performed."""
        return float(self.grid.n_interior) * float(self.stats.solves)


def subsolve(
    problem: AdvectionDiffusionProblem,
    grid: Grid,
    tol: float,
    t_end: float | None = None,
    *,
    scheme: Scheme = "upwind",
    integrator_name: str = "ros2",
    record_history: bool = False,
    operator: SpatialOperator | None = None,
    factor_cache: FactorCache | None = None,
) -> SubsolveResult:
    """Integrate the problem on one grid from ``t=0`` to ``t_end``.

    Heavy computational work on grid ``(l, m)``: assemble the spatial
    operator, then run the time integrator (default: the adaptive ROS2
    of the original program; ``integrator_name`` selects a θ-method
    baseline instead).  The result is the full node array at the final
    time.

    ``operator`` is the warm-path entry point: a pre-assembled (cached)
    :class:`SpatialOperator` for exactly this grid/scheme skips the
    assembly cost; ``factor_cache`` likewise lets the ROS2 linear solver
    reuse LU factors across repeated integrations.  Both are pure reuse
    — the operator and factors are deterministic functions of their
    inputs, so results stay bitwise identical to a cold call.
    """
    started = time.perf_counter()
    t_final = problem.t_end if t_end is None else t_end
    if operator is None:
        operator = SpatialOperator(grid, problem, scheme=scheme)
    elif operator.grid != grid or operator.scheme != scheme:
        raise ValueError(
            f"cached operator is for ({operator.grid}, {operator.scheme!r}), "
            f"not ({grid}, {scheme!r})"
        )
    if integrator_name == "ros2":
        integrator = Ros2Integrator(
            operator, tol, record_history=record_history,
            factor_cache=factor_cache,
        )
    else:
        from .theta import make_integrator

        integrator = make_integrator(
            integrator_name, operator, tol, t_span=t_final,
            record_history=record_history,
        )
    u0 = operator.initial_interior()
    u_final, stats = integrator.integrate(u0, 0.0, t_final)
    solution = operator.full_solution(u_final, t_final)
    return SubsolveResult(
        grid=grid,
        solution=solution,
        stats=stats,
        wall_seconds=time.perf_counter() - started,
    )
