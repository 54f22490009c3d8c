"""Bridging real executions into the simulated cluster.

The cost model extrapolates; sometimes you want the opposite — take a
run that actually executed on this machine and ask "what would this
exact workload have cost on the paper's cluster?".  This module
converts the per-grid measurements carried by real run results
(sequential, coordination-runtime, or multiprocessing) into the
simulator's :class:`~repro.cluster.simulator.GridCost` inputs and into
:class:`~repro.perf.costmodel.CostRecord` calibration records.
"""

from __future__ import annotations

import math
from typing import Sequence, Union

import numpy as np

from repro.cluster.host import Host, paper_cluster
from repro.cluster.simulator import (
    DistributedRun,
    GridCost,
    SimulationParams,
    simulate_distributed,
)
from repro.restructured.master import ConcurrentResult
from repro.restructured.parallel import MultiprocessingResult
from repro.sparsegrid.grid import Grid, nested_loop_grids
from repro.sparsegrid.sequential import SequentialResult

from .costmodel import CostRecord

__all__ = ["costs_from_run", "records_from_run", "replay_on_cluster"]

AnyRunResult = Union[SequentialResult, ConcurrentResult, MultiprocessingResult]


def _per_grid(result: AnyRunResult) -> dict[tuple[int, int], tuple[float, int, int]]:
    """(wall seconds, solves, result bytes) per grid, from any run kind.

    Rejects non-finite or negative wall times up front: a corrupted
    timing (NaN from a serialization bug, a negative from clock
    arithmetic) would otherwise silently poison the cost-model fit or
    the cluster replay far downstream of its origin.
    """
    out: dict[tuple[int, int], tuple[float, int, int]] = {}
    if isinstance(result, SequentialResult):
        for key, sub in result.data.results.items():
            out[key] = (sub.wall_seconds, sub.stats.solves, sub.solution.nbytes)
    else:
        for key, payload in result.payloads.items():
            out[key] = (payload.wall_seconds, payload.solves, payload.solution.nbytes)
    bad = {
        key: wall
        for key, (wall, _solves, _bytes) in out.items()
        if not math.isfinite(wall) or wall < 0.0
    }
    if bad:
        raise ValueError(
            f"run result carries invalid wall_seconds for grids {sorted(bad)}: "
            f"{[bad[k] for k in sorted(bad)]}"
        )
    return out


def costs_from_run(result: AnyRunResult) -> list[GridCost]:
    """The run's grids as simulator inputs, in nested-loop order.

    The measured wall seconds become the reference-machine work (i.e.
    "this machine" plays the 1200 MHz Athlon's role; the shape analysis
    is scale-free).
    """
    per_grid = _per_grid(result)
    expected = nested_loop_grids(result.root, result.level)
    missing = [(g.l, g.m) for g in expected if (g.l, g.m) not in per_grid]
    if missing:
        raise ValueError(f"run result is missing grids: {missing}")
    return [
        GridCost(
            l=g.l,
            m=g.m,
            work_ref_seconds=per_grid[(g.l, g.m)][0],
            result_bytes=per_grid[(g.l, g.m)][2],
        )
        for g in expected
    ]


def records_from_run(result: AnyRunResult) -> list[CostRecord]:
    """The run's grids as cost-model calibration records."""
    records = []
    for (l, m), (wall, solves, _bytes) in sorted(_per_grid(result).items()):
        grid = Grid(result.root, l, m)
        records.append(
            CostRecord(
                l=l,
                m=m,
                tol=result.tol,
                wall_seconds=wall,
                solves=solves,
                steps_accepted=max(1, solves // 2),
                n_interior=grid.n_interior,
            )
        )
    return records


def replay_on_cluster(
    result: AnyRunResult,
    cluster: Sequence[Host] | None = None,
    params: SimulationParams | None = None,
    seed: int = 0,
    *,
    prolongation_ref_seconds: float | None = None,
) -> DistributedRun:
    """Simulate this exact measured workload on the (paper's) cluster."""
    if prolongation_ref_seconds is None:
        prolongation_ref_seconds = getattr(result, "prolongation_seconds", 0.0)
    return simulate_distributed(
        [costs_from_run(result)],
        cluster if cluster is not None else paper_cluster(),
        params if params is not None else SimulationParams(),
        np.random.default_rng(seed),
        master_prolongation_ref_seconds=prolongation_ref_seconds,
    )
