"""Intra-grid decomposition: unsplit vs k-strip Schur substructuring.

The combination technique's critical path is the largest anisotropic
grid of the family — LPT packing cannot shrink a makespan below the
single longest job.  Splitting that job into ``k`` strip subsolves
(:mod:`repro.sparsegrid.decompose`) attacks exactly that floor.  This
bench measures, on the level-5 family at root 5:

* warm min-of-rounds **unsplit** walls for every grid (shared factor
  cache per grid, first round pays the factorizations);
* the **split** walls for ``k in {2, 4}`` on the critical-path grids
  (those within ``top_fraction`` of the longest wall), with the serial
  strip executor so every strip's compute is measured honestly on this
  machine;
* the **projected critical path** of each split solve
  (:func:`~repro.sparsegrid.decompose.projected_critical_seconds`):
  the wall this exact solve would see with its strips factored and
  back-substituted on ``k`` parallel lanes — the measured per-strip
  segment durations composed into a critical lane, the same
  machine-noise isolation the dispatch-makespan metric uses;
* the **end-to-end makespan** at ``makespan_workers`` workers: greedy
  LPT over the unsplit walls versus the same schedule with each split
  grid replaced by ``k`` lane-jobs — the critical lane at its projected
  critical seconds and the other ``k - 1`` lanes sharing the rest of
  the measured split wall, so the composition preserves the split
  solve's total measured compute.

The worker count is the regime the decomposition targets: with
``w >= 2*level + 1`` (the paper's worker-count relation) every grid has
its own worker, so LPT is pinned to the longest job and only splitting
that job can cut the makespan further.

Correctness is asserted alongside: ``split_k=1`` is bitwise identical
to the plain path, and every ``k >= 2`` solution stays within
:func:`~repro.sparsegrid.decompose.split_tolerance` of the unsplit
oracle.

Runs in a fast smoke mode inside the tier-1 suite (short integration
window, so the makespan ratio lands in every ``BENCH_split_solve.json``
trajectory); set ``REPRO_SPLIT_SOLVE_FULL=1`` for the full window.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.warmpath import simulate_makespan
from repro.sparsegrid.decompose import (
    StripPlan,
    projected_critical_seconds,
    split_tolerance,
)
from repro.sparsegrid.grid import nested_loop_grids
from repro.sparsegrid.linsolve import FactorCache
from repro.sparsegrid.registry import make_problem
from repro.sparsegrid.subsolve import subsolve

PROBLEM = "rotating-cone"


def _warm_best(problem, grid, tol, t_end, rounds, *, split_k=1):
    """Min-of-rounds subsolve with a per-grid factor cache: the first
    round pays the factorizations, the best of the following ``rounds``
    is the warm wall."""
    cache = FactorCache()
    best = None
    for _ in range(rounds + 1):
        res = subsolve(
            problem, grid, tol, t_end,
            factor_cache=cache, split_k=split_k,
        )
        if best is None or res.wall_seconds < best.wall_seconds:
            best = res
    return best


@pytest.mark.benchmark(group="split-solve")
def test_split_k1_bitwise_identical(benchmark, split_solve_settings):
    """``split_k=1`` takes the literal unsplit code path — bitwise."""
    s = split_solve_settings
    problem = make_problem(PROBLEM)
    grid = max(
        nested_loop_grids(s["root"], s["level"]),
        key=lambda g: g.n_interior,
    )
    plain = subsolve(problem, grid, s["tol"], s["t_end"])
    k1 = benchmark.pedantic(
        lambda: subsolve(problem, grid, s["tol"], s["t_end"], split_k=1),
        rounds=1, iterations=1,
    )
    assert np.array_equal(plain.solution, k1.solution)
    assert k1.split_k == 1
    benchmark.extra_info["bitwise_identical"] = True


@pytest.mark.benchmark(group="split-solve")
def test_split_makespan_reduction(benchmark, split_solve_settings):
    """The headline measurement: splitting the critical-path grids must
    not lengthen the end-to-end makespan.  The unsplit side is one LU
    under the same fill-reducing ordering as the strips
    (``linsolve.factorize``), so the ratio is the split's own gain —
    measured 1.04-1.47x in smoke mode and 1.24-1.38x in full mode on
    this container (``docs/intra_grid.md``); the earlier 1.2/1.3x floors
    were met against a COLAMD-ordered monolithic LU carrying 55 % more
    fill than it needed."""
    s = split_solve_settings
    tol, t_end, rounds = s["tol"], s["t_end"], s["rounds"]
    workers = s["makespan_workers"]
    problem = make_problem(PROBLEM)
    grids = {
        (g.l, g.m): g for g in nested_loop_grids(s["root"], s["level"])
    }

    # 1. warm unsplit walls for the whole family
    unsplit = {
        key: _warm_best(problem, grid, tol, t_end, rounds)
        for key, grid in grids.items()
    }
    walls = {key: res.wall_seconds for key, res in unsplit.items()}
    max_wall = max(walls.values())
    split_keys = sorted(
        key for key, wall in walls.items()
        if wall >= s["top_fraction"] * max_wall
    )
    assert split_keys, "at least one critical-path grid must qualify"

    # 2. split the critical-path grids at each k; keep the best lane
    best_split = {}  # key -> (k, projected critical seconds, result)
    per_k_ratio = {}
    for key in split_keys:
        grid = grids[key]
        for k in s["k_options"]:
            if StripPlan.for_grid(grid, k).k < 2:
                continue
            res = _warm_best(problem, grid, tol, t_end, rounds, split_k=k)
            assert res.split_k == StripPlan.for_grid(grid, k).k
            diff = float(
                np.max(np.abs(res.solution - unsplit[key].solution))
            )
            assert diff <= split_tolerance(tol), (
                f"split {key} k={k}: |diff| {diff:.3e} exceeds "
                f"{split_tolerance(tol):.3e}"
            )
            crit = projected_critical_seconds(res.stats, res.wall_seconds)
            per_k_ratio[f"lane_speedup_{key}_k{k}"] = walls[key] / crit
            if key not in best_split or crit < best_split[key][1]:
                best_split[key] = (res.stats.split_k, crit, res)

    # 3. compose the makespans: LPT over the unsplit walls vs the same
    #    schedule with each split grid as k lane-jobs.  The critical
    #    lane costs the projected critical seconds; the other k-1 lanes
    #    share the rest of the measured split wall, so the split
    #    schedule carries the solve's full measured compute (split
    #    overhead included) — no work is dropped by the composition.
    mk_unsplit = simulate_makespan(
        sorted(walls.values(), reverse=True), workers
    )
    units: list[float] = []
    for key, wall in walls.items():
        if key in best_split:
            k, crit, res = best_split[key]
            units.append(crit)
            units.extend([(res.wall_seconds - crit) / (k - 1)] * (k - 1))
        else:
            units.append(wall)
    mk_split = simulate_makespan(sorted(units, reverse=True), workers)
    ratio = mk_unsplit / mk_split

    # 4. the overhead the split pays for its parallelism: the serial
    #    interface (Schur) work the halo exchanges feed, as a share of
    #    the top grid's critical lane
    top_key = max(walls, key=lambda key: walls[key])
    top_k, top_crit, top_res = best_split[top_key]
    overhead = (
        top_res.stats.schur_factor_seconds
        + top_res.stats.interface_solve_seconds
    )
    overhead_share = overhead / top_crit if top_crit > 0 else 0.0

    # time one warm split solve of the top grid as the benchmark body
    top_cache = FactorCache()
    subsolve(problem, grids[top_key], tol, t_end,
             factor_cache=top_cache, split_k=top_k)
    benchmark.pedantic(
        lambda: subsolve(problem, grids[top_key], tol, t_end,
                         factor_cache=top_cache, split_k=top_k),
        rounds=max(1, rounds - 1), iterations=1,
    )

    benchmark.extra_info["makespan_unsplit_seconds"] = mk_unsplit
    benchmark.extra_info["makespan_split_seconds"] = mk_split
    benchmark.extra_info["makespan_reduction"] = ratio
    benchmark.extra_info["makespan_workers"] = workers
    benchmark.extra_info["split_grids"] = ", ".join(
        f"({l},{m})×{best_split[(l, m)][0]}" for l, m in sorted(best_split)
    )
    benchmark.extra_info["halo_overhead_share"] = overhead_share
    benchmark.extra_info["halo_bytes_top_grid"] = int(
        top_res.stats.halo_bytes
    )
    benchmark.extra_info["halo_exchanges_top_grid"] = int(
        top_res.stats.halo_exchanges
    )
    for label, value in sorted(per_k_ratio.items()):
        benchmark.extra_info[label] = value

    print(f"\nsplit solve @{workers} workers: unsplit makespan "
          f"{mk_unsplit:.3f}s vs split {mk_split:.3f}s "
          f"(reduction {ratio:.2f}x); top grid {top_key} at k={top_k}, "
          f"interface overhead share {overhead_share:.3f}")
    assert ratio >= 1.0, (
        f"splitting the critical-path grids must not lengthen the "
        f"makespan, got {ratio:.2f}x "
        f"({mk_unsplit:.4f}s -> {mk_split:.4f}s)"
    )
