"""The master wrapper — the sequential program minus ``subsolve``.

"The master performs all the computation in the sequential source code
except the work embodied in ``subsolve``, which is done by the workers."
Concretely: initialization, then — where the sequential code runs the
nested loop — protocol steps 3(a)–3(h) delegating one ``subsolve`` per
grid to a pool of workers, then ``finished``, then the final
prolongation work.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.manifold import AtomicDefinition, AtomicProcess
from repro.protocol import MasterProtocolClient, WorkerJob
from repro.trace.recorder import trace_span
from repro.sparsegrid.combination import combine
from repro.sparsegrid.grid import Grid

from .parallel import RunResult
from .worker import SubsolveJobSpec, SubsolvePayload

__all__ = ["make_master_definition"]


def make_master_definition(
    root: int,
    level: int,
    tol: float,
    problem_name: str = "rotating-cone",
    problem_kwargs: Optional[dict] = None,
    *,
    t_end: Optional[float] = None,
    scheme: str = "upwind",
    target_cap: int | None = 8,
    pool_per_diagonal: bool = False,
) -> AtomicDefinition:
    """Build the ``Master`` manifold for one run configuration.

    ``pool_per_diagonal`` selects the alternative organization in which
    the master requests a fresh workers-pool per grid diagonal (two
    pools) instead of one pool for all ``2*level+1`` grids; the paper's
    protocol supports both ("just imagine that we have a master that
    ... wants to introduce another workers-pool"), and the ablation
    benchmark compares them.

    The master publishes its :class:`~repro.restructured.parallel.RunResult`
    as ``proc.result`` for the driver.
    """
    kw_pairs = tuple(sorted((problem_kwargs or {}).items()))

    def grids_by_pool() -> list[list[Grid]]:
        diagonals: dict[int, list[Grid]] = {}
        for lm in (level - 1, level):
            if lm < 0:
                continue
            diagonals[lm] = [Grid(root, l, lm - l) for l in range(lm + 1)]
        if pool_per_diagonal:
            return [diagonals[lm] for lm in sorted(diagonals)]
        return [[g for lm in sorted(diagonals) for g in diagonals[lm]]]

    def master_body(proc: AtomicProcess) -> None:
        t_start = time.perf_counter()
        client = MasterProtocolClient(proc)
        # step 2: initialization work (the global data structure)
        payloads: dict[tuple[int, int], SubsolvePayload] = {}

        # step 3 (+4): delegate each grid's subsolve to a pool worker
        t_pool = time.perf_counter()
        processes = 0
        with trace_span("master_fanout"):
            for pool_grids in grids_by_pool():
                jobs = [
                    WorkerJob(
                        job_id=(g.l, g.m),
                        payload=SubsolveJobSpec(
                            problem_name=problem_name,
                            root=root,
                            l=g.l,
                            m=g.m,
                            tol=tol,
                            t_end=t_end,
                            scheme=scheme,
                            problem_kwargs=kw_pairs,
                        ),
                    )
                    for g in pool_grids
                ]
                processes = max(processes, len(jobs))
                for result in client.run_pool(jobs):
                    payload = result.payload
                    payloads[(payload.l, payload.m)] = payload
            client.finished()
        pool_seconds = time.perf_counter() - t_pool

        # step 5: final sequential computation — the prolongation work
        t_combine = time.perf_counter()
        with trace_span("prolongation"):
            solutions = {key: p.solution for key, p in payloads.items()}
            target_grid, combined = combine(
                solutions, root, level, target_cap=target_cap
            )
        combine_seconds = time.perf_counter() - t_combine

        proc.result = RunResult(  # type: ignore[attr-defined]
            root=root,
            level=level,
            tol=tol,
            processes=processes,
            payloads=payloads,
            target_grid=target_grid,
            combined=combined,
            total_seconds=time.perf_counter() - t_start,
            pool_seconds=pool_seconds,
            combine_seconds=combine_seconds,
            engine="manifold",
            attempts=len(payloads),
        )

    return AtomicDefinition(
        "Master",
        master_body,
        in_ports=("input", "dataport"),
        out_ports=("output", "error"),
    )
