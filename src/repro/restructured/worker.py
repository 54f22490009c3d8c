"""The worker wrapper and its compute engines.

A worker's contract is fixed by the protocol (read job, compute, write
result, raise ``death_worker``); *where* the computation runs is the
task-composition decision of §6.  Two engines realize the two
configurations of the paper:

* :class:`InlineEngine` — the worker thread computes in place.  All
  workers share one OS process: the "parallel" (single task instance)
  configuration.  CPython's GIL limits the speedup to what NumPy/SciPy
  release — this is the repro-band caveat; measured honestly in the
  benchmarks.
* :class:`~repro.restructured.pool.TaskInstanceEngine` — each job is
  shipped to a task instance of the shared worker pool, an OS process
  of its own: the "distributed" (one worker per task instance)
  configuration, and the GIL workaround.
  Only the small job spec and the result arrays cross the process
  boundary, exactly the data the paper's master passes to and from its
  workers.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.manifold import AtomicDefinition
from repro.protocol import make_worker_definition
from repro.sparsegrid.cache import default_operator_cache, operator_key
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.grid import Grid
from repro.sparsegrid.registry import make_problem
from repro.sparsegrid.subsolve import subsolve

__all__ = [
    "SubsolveJobSpec",
    "SubsolvePayload",
    "execute_job",
    "ComputeEngine",
    "InlineEngine",
    "make_subsolve_worker",
]


@dataclass(frozen=True)
class SubsolveJobSpec:
    """Everything a worker needs to run ``subsolve(l, m)``.

    Deliberately small and picklable: the problem travels by registry
    name, not by object.
    """

    problem_name: str
    root: int
    l: int
    m: int
    tol: float
    t_end: Optional[float] = None
    scheme: str = "upwind"
    problem_kwargs: tuple = ()  # sorted (key, value) pairs

    @property
    def grid(self) -> Grid:
        return Grid(self.root, self.l, self.m)

    def kwargs(self) -> dict:
        return dict(self.problem_kwargs)

    @property
    def cache_key(self) -> tuple:
        """Key into the process-local operator cache.  Tolerance and
        final time are excluded on purpose: the assembled operator does
        not depend on them."""
        return operator_key(
            self.problem_name, self.problem_kwargs, self.grid, self.scheme
        )


@dataclass(frozen=True)
class SubsolvePayload:
    """What a worker sends back: the grid solution plus its counters."""

    l: int
    m: int
    solution: np.ndarray
    steps_accepted: int
    steps_rejected: int
    factorizations: int
    solves: int
    wall_seconds: float
    work_units: float
    # ------------------------------------------------------------------
    # warm-path observability (defaults keep old constructors working)
    # ------------------------------------------------------------------
    #: the spatial operator came from the worker's process-local cache
    operator_cache_hit: bool = False
    #: ``prepare()`` calls on the linear solver (one per attempted step)
    prepare_calls: int = 0
    #: prepares served without a fresh LU (hold band or factor cache)
    factor_reuse_hits: int = 0
    #: the subset served by the cross-run factor cache
    factor_cache_hits: int = 0
    #: seconds spent assembling the operator (0.0 on a cache hit)
    assembly_seconds: float = 0.0
    # ------------------------------------------------------------------
    # trace observability: where and when this job actually ran.  On
    # Linux ``time.monotonic`` is CLOCK_MONOTONIC, shared across
    # processes, so these land on the master's trace timeline directly.
    # ------------------------------------------------------------------
    #: OS PID of the process that executed the job (0 = unknown)
    worker_pid: int = 0
    #: ``time.monotonic()`` just before / after the computation
    started_monotonic: float = 0.0
    finished_monotonic: float = 0.0

    @property
    def factor_reuse_ratio(self) -> float:
        """Factorization-cache effectiveness of this job."""
        if self.prepare_calls == 0:
            return 0.0
        return self.factor_reuse_hits / self.prepare_calls


def execute_job(spec: SubsolveJobSpec, *, use_cache: bool = True) -> SubsolvePayload:
    """Run one job — the function both engines ultimately call.

    Must stay importable at module top level so multiprocessing can
    pickle it by reference.  With ``use_cache`` (the default) the
    spatial operator and its LU factors come from the process-local
    warm-path cache; results are bitwise identical either way, only the
    assembly/factorization work is skipped on a hit.
    """
    started_monotonic = time.monotonic()
    if use_cache:
        cache = default_operator_cache()
        entry, hit = cache.get(
            spec.cache_key,
            lambda: SpatialOperator(
                spec.grid,
                make_problem(spec.problem_name, **spec.kwargs()),
                scheme=spec.scheme,
            ),
        )
        operator, factor_cache = entry.operator, entry.factor_cache
        problem = operator.problem
    else:
        hit = False
        operator = factor_cache = None
        problem = make_problem(spec.problem_name, **spec.kwargs())
    result = subsolve(
        problem,
        spec.grid,
        spec.tol,
        t_end=spec.t_end,
        scheme=spec.scheme,
        operator=operator,
        factor_cache=factor_cache,
    )
    stats = result.stats
    return SubsolvePayload(
        l=spec.l,
        m=spec.m,
        solution=result.solution,
        steps_accepted=stats.steps_accepted,
        steps_rejected=stats.steps_rejected,
        factorizations=stats.factorizations,
        solves=stats.solves,
        wall_seconds=result.wall_seconds,
        work_units=result.work_units,
        operator_cache_hit=hit,
        prepare_calls=stats.prepare_calls,
        factor_reuse_hits=stats.factor_reuse_hits,
        factor_cache_hits=stats.factor_cache_hits,
        assembly_seconds=0.0 if hit else stats.assembly_seconds,
        worker_pid=os.getpid(),
        started_monotonic=started_monotonic,
        finished_monotonic=time.monotonic(),
    )


class ComputeEngine:
    """Strategy interface: how a worker executes its job."""

    def compute(self, spec: SubsolveJobSpec) -> SubsolvePayload:
        raise NotImplementedError

    def close(self) -> None:
        """Release any resources; idempotent."""

    def __enter__(self) -> "ComputeEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class InlineEngine(ComputeEngine):
    """Compute in the calling worker thread (single task instance)."""

    def compute(self, spec: SubsolveJobSpec) -> SubsolvePayload:
        return execute_job(spec)


def make_subsolve_worker(engine: ComputeEngine) -> AtomicDefinition:
    """The ``Worker`` manifold of §5: protocol-compliant wrapper whose
    computation is delegated to the chosen engine."""
    return make_worker_definition("Worker", engine.compute)
