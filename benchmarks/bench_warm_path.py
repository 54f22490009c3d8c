"""Warm-path execution layer: the cold/warm ratio.

The seed's real-parallel path (E8) paid two coordination taxes on every
call that can still be switched back on: a fresh fork pool and
from-scratch operator assembly in every worker (``warm_pool=False``).
This bench measures what the warm execution layer — persistent pool +
process-local operator/factor cache — buys back, and asserts the
paper-grade invariant that none of it changes a single bit of the
answer.  Both sides are dispatched longest-first through the one
dispatch core; the seed's third tax, ``pool.map``'s static chunking,
went with ``pool.map`` and is no longer scored.

Runs in a fast smoke mode inside the tier-1 suite; set
``REPRO_BENCH_MODE=full`` for the full measurement.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.restructured import run_multiprocessing, shutdown_pool
from repro.sparsegrid import SequentialApplication

ROOT = 2


def _cold_run(level: float, tol: float):
    """The seed's throwaway pool and per-run assembly: no reuse."""
    return run_multiprocessing(root=ROOT, level=level, tol=tol, warm_pool=False)


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
