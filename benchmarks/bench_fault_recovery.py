"""The price of surviving a worker kill.

One seeded ``crash`` fault (``docs/resilience.md``) kills the OS
process computing a mid-run grid; the dispatch loop detects the death
by PID liveness and re-dispatches the lost job.  This bench measures
the recovered wall time against the fault-free wall time on the same
warm pool and asserts the recovery premium stays bounded: a single
injected crash must cost at most 2x the fault-free run.  The bitwise
identity of the recovered result is asserted alongside.

Runs in a fast smoke mode inside the tier-1 suite; set
``REPRO_BENCH_MODE=full`` for a bigger level and more rounds.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.restructured import run_multiprocessing, shutdown_pool
from repro.trace import TraceAnalysis, TraceRecorder

ROOT = 2


def _run(settings: dict, faults: str | None, trace: TraceRecorder | None = None):
    return run_multiprocessing(
        root=ROOT,
        level=settings["level"],
        tol=settings["tol"],
        processes=settings["processes"],
        faults=faults,
        trace=trace,
    )


@pytest.mark.benchmark(group="fault-recovery")
def test_recovered_run_within_2x_of_fault_free(benchmark, fault_recovery_settings):
    """min-of-rounds fault-free wall vs min-of-rounds recovered wall,
    both on a warm pool so only detection + replay is priced."""
    settings = fault_recovery_settings

    shutdown_pool()
    _run(settings, faults=None)  # pays the fork + first assembly

    clean_samples, clean_result = [], None
    for _ in range(settings["rounds"]):
        started = time.perf_counter()
        clean_result = _run(settings, faults=None)
        clean_samples.append(time.perf_counter() - started)
    assert clean_result.faults == 0

    recovered = benchmark.pedantic(
        lambda: _run(settings, faults=settings["fault"]),
        rounds=settings["rounds"],
        iterations=1,
    )
    # one extra traced round: the trace prices the recovery itself
    # (seconds lost to detection + replayed compute), independent of
    # end-to-end wall-clock noise
    recorder = TraceRecorder()
    started = time.perf_counter()
    traced_result = _run(settings, faults=settings["fault"], trace=recorder)
    traced_wall = time.perf_counter() - started
    shutdown_pool()

    assert recovered.faults == 1
    assert recovered.recovered == 1
    assert recovered.fallbacks == 0
    assert np.array_equal(recovered.combined, clean_result.combined)

    analysis = TraceAnalysis(recorder.events())
    assert analysis.n_faults == traced_result.faults
    assert analysis.recovered_keys == set(traced_result.fault_report.recovered_keys)
    assert analysis.recovery_overhead_seconds > 0.0

    clean = min(clean_samples)
    faulted = min([*benchmark.stats.stats.data, traced_wall])
    premium = faulted / clean
    benchmark.extra_info["fault_free_seconds"] = clean
    benchmark.extra_info["recovered_seconds"] = faulted
    benchmark.extra_info["recovery_premium"] = premium
    benchmark.extra_info["trace_recovery_overhead_seconds"] = (
        analysis.recovery_overhead_seconds
    )
    benchmark.extra_info["trace_mean_utilization"] = analysis.mean_utilization
    print(f"\nfault recovery: clean {clean:.3f}s recovered {faulted:.3f}s "
          f"premium {premium:.2f}x (traced overhead "
          f"{analysis.recovery_overhead_seconds:.3f}s)")
    if settings["full"]:
        assert premium <= 2.0, (
            f"one injected crash must cost at most 2x the fault-free wall "
            f"time, got {premium:.2f}x"
        )
    else:
        # the smoke level's fault-free run is a few tens of ms, so the
        # fixed crash-detection latency (the PID-liveness poll interval)
        # dominates any ratio and makes a 2x bound a coin flip under
        # load; bound the absolute recovery cost instead — it prices
        # detection + replay, which is what the bench is for
        assert faulted - clean <= 0.5, (
            f"one injected crash must cost at most 0.5s over the "
            f"fault-free wall time at the smoke level, got "
            f"{faulted - clean:.3f}s (clean {clean:.3f}s)"
        )
