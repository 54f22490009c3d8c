"""Warm-path execution layer: the cold/warm ratio and dispatch makespan.

The seed's real-parallel path (E8) paid three coordination taxes on
every call: a fresh fork pool, from-scratch operator assembly in every
worker, and ``pool.map`` static chunking that dispatches the heavy
diagonal last.  This bench measures what the warm execution layer —
persistent pool + process-local operator/factor cache + cost-ordered
one-job-at-a-time dispatch — buys back, and asserts the paper-grade
invariant that none of it changes a single bit of the answer.

Since the dispatch core became the only way onto a pool worker there is
no executed ``pool.map`` to time: ``cold_seconds`` is "throwaway pool +
no operator reuse" (dispatched longest-first like every run), and the
scheduling share of the seed's tax is the *modelled*
``makespan_static_chunk`` of the second test.

Runs in a fast smoke mode inside the tier-1 suite; set
``REPRO_BENCH_MODE=full`` for the full measurement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.perf.warmpath import dispatch_makespan
from repro.restructured import run_multiprocessing, shutdown_pool
from repro.sparsegrid import SequentialApplication

ROOT = 2


def _cold_run(level: float, tol: float):
    """The seed's throwaway pool and per-run assembly: no reuse."""
    return run_multiprocessing(
        root=ROOT, level=level, tol=tol,
        warm_pool=False, operator_cache=False,
    )


def _warm_run(level: float, tol: float):
    return run_multiprocessing(root=ROOT, level=level, tol=tol)


@pytest.mark.benchmark(group="warm-path")
def test_cold_vs_warm_ratio(benchmark, warm_path_settings):
    """Warm repeat runs (pool + operator cache hot) vs the seed cold
    path, bitwise-identity asserted on both."""
    import time

    level, tol = warm_path_settings["level"], warm_path_settings["tol"]
    sequential = SequentialApplication(root=ROOT, level=level, tol=tol).run()

    # drop any pool/caches a previous test left warm, then measure the
    # seed path; min-of-rounds on both sides resists multi-user noise
    shutdown_pool()
    cold_samples, cold_result = [], None
    for _ in range(warm_path_settings["cold_rounds"]):
        started = time.perf_counter()
        cold_result = _cold_run(level, tol)
        cold_samples.append(time.perf_counter() - started)
    assert np.array_equal(cold_result.combined, sequential.combined)

    shutdown_pool()
    warmup = _warm_run(level, tol)  # pays the fork + first assembly
    assert not warmup.warm_pool

    result = benchmark.pedantic(
        lambda: _warm_run(level, tol),
        rounds=warm_path_settings["warm_rounds"],
        iterations=1,
    )
    assert np.array_equal(result.combined, sequential.combined)
    assert result.warm_pool
    # caches are per worker process; with one worker every request hits,
    # with several a job may land on a worker that has not seen its grid
    if result.processes == 1:
        assert result.operator_cache_hit_ratio == 1.0
    else:
        assert result.operator_cache_hits > 0

    cold = min(cold_samples)
    warm = min(benchmark.stats.stats.data)
    ratio = cold / warm
    benchmark.extra_info["cold_seconds"] = cold
    benchmark.extra_info["warm_seconds"] = warm
    benchmark.extra_info["cold_warm_ratio"] = ratio
    benchmark.extra_info["operator_cache_hit_ratio"] = (
        result.operator_cache_hit_ratio
    )
    benchmark.extra_info["factor_reuse_ratio"] = result.factor_reuse_ratio
    print(f"\nwarm path: cold {cold:.3f}s warm {warm:.3f}s "
          f"ratio {ratio:.2f}x (factor reuse "
          f"{result.factor_reuse_ratio:.2f})")
    assert ratio >= 1.5, (
        f"warm path must be >= 1.5x faster than the seed cold path, "
        f"got {ratio:.2f}x"
    )


@pytest.mark.benchmark(group="warm-path")
def test_longest_first_beats_static_chunk_makespan(benchmark, warm_path_settings):
    """The dispatch-order makespan metric on the level->=6 grid family:
    longest-predicted-first greedy dispatch vs ``pool.map`` static
    chunking, scored on the run's own measured per-grid durations."""
    level = warm_path_settings["makespan_level"]
    tol = warm_path_settings["makespan_tol"]
    workers = warm_path_settings["makespan_workers"]

    # one worker, in a pool of its own: caches are per worker, so with
    # two a grid can still miss after any number of warm-ups — most
    # often the last ones dispatched — and the inflated durations of
    # those misses, not the dispatch order, decide the comparison
    def run():
        return run_multiprocessing(root=ROOT, level=level, tol=tol, processes=1)

    shutdown_pool()
    run()  # warm the caches so durations are steady
    result = benchmark.pedantic(run, rounds=2, iterations=1)
    # longest-predicted-first: the heavy diagonal leads
    assert sum(result.dispatch_order[0]) == level

    span = dispatch_makespan(result, n_workers=workers)
    benchmark.extra_info["makespan_dispatched"] = span.dispatched_seconds
    benchmark.extra_info["makespan_static_chunk"] = span.static_chunk_seconds
    benchmark.extra_info["makespan_gain"] = span.gain_over_static
    print(f"\nmakespan @{workers} workers: longest-first "
          f"{span.dispatched_seconds:.3f}s vs static chunk "
          f"{span.static_chunk_seconds:.3f}s "
          f"(gain {span.gain_over_static:.2f}x)")
    assert span.dispatched_seconds < span.static_chunk_seconds, (
        "longest-first dispatch must beat pool.map static chunking on "
        f"makespan: {span.dispatched_seconds:.4f}s vs "
        f"{span.static_chunk_seconds:.4f}s"
    )


@pytest.mark.benchmark(group="warm-path")
def test_pool_persists_across_runs(benchmark):
    """Two consecutive runs share one pool — the second acquisition
    is warm."""
    shutdown_pool()
    first = run_multiprocessing(root=ROOT, level=2, tol=1.0e-3)
    second = benchmark.pedantic(
        lambda: run_multiprocessing(root=ROOT, level=2, tol=1.0e-3),
        rounds=1,
        iterations=1,
    )
    assert not first.warm_pool
    assert second.warm_pool
    benchmark.extra_info["pool_cold_start_seconds"] = (
        first.pool_cold_start_seconds
    )
