"""The socket engine's coordination tax, priced against the fork pool.

The distributed configuration pays for what the in-process pool gets
free: daemon spawn (a fork behind a listener the master bound, per
daemon), a framed TCP round trip per job, and heartbeat traffic.  This
bench measures that tax end to end — same problem, same level,
``engine="socket"`` over loopback daemons vs the warm fork pool — and
itemizes the network side from the engine's own accounting (framed
bytes, send/recv seconds, daemon spawn time).

The daemons are leased across runs like the pool, so the rounds of one
bench are two different quantities and are recorded apart: the first
round, with the fleet closed before it, is **cold** (spawn, cold
assembly and factorisation); the rest are **warm**.  Spawn seconds are
read off the cold round — on a warm one they are zero by definition.

There is no speedup claim here: on one machine the socket engine is
strictly overhead, and the point of the measurement is that the
overhead is (a) bounded and (b) fully accounted for — the wire seconds
plus spawn cost explain the gap.  Bitwise identity is asserted both
ways.

Runs in a fast smoke mode inside the tier-1 suite; set
``REPRO_BENCH_MODE=full`` for the full measurement.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.restructured import run_multiprocessing, shutdown_pool

ROOT = 2


def _socket_rounds(benchmark, rounds, *, setup=None, **run_kwargs):
    """``rounds`` socket runs, the fleet closed before the first; returns
    ``(cold_seconds, cold_result, warm_seconds, last_result)`` — the
    first round, and the fastest of the others."""
    timed: list[tuple[float, object]] = []

    def timed_socket_run():
        started = time.perf_counter()
        result = run_multiprocessing(engine="socket", **run_kwargs)
        timed.append((time.perf_counter() - started, result))

    shutdown_pool()
    benchmark.pedantic(
        timed_socket_run, setup=setup, rounds=rounds, iterations=1
    )
    shutdown_pool()
    (cold_seconds, cold), warm = timed[0], timed[1:]
    assert not cold.warm_pool and cold.pool_cold_start_seconds > 0.0
    assert warm and all(result.warm_pool for _, result in warm)
    assert all(result.pool_cold_start_seconds == 0.0 for _, result in warm)
    return cold_seconds, cold, min(s for s, _ in warm), timed[-1][1]


@pytest.mark.benchmark(group="socket-engine")
def test_socket_engine_vs_fork_pool(benchmark, socket_engine_settings):
    """Whole runs through each engine, identity asserted."""
    level = socket_engine_settings["level"]
    tol = socket_engine_settings["tol"]
    processes = socket_engine_settings["processes"]
    rounds = socket_engine_settings["rounds"]

    shutdown_pool()
    reference = run_multiprocessing(
        root=ROOT, level=level, tol=tol, processes=processes
    )
    pool_samples: list[float] = []

    def timed_pool_run():
        # per-round setup: interleave the engines so load hits both
        started = time.perf_counter()
        result = run_multiprocessing(
            root=ROOT, level=level, tol=tol, processes=processes
        )
        pool_samples.append(time.perf_counter() - started)
        assert np.array_equal(result.combined, reference.combined)

    cold_seconds, cold, warm_seconds, result = _socket_rounds(
        benchmark, rounds, setup=timed_pool_run,
        root=ROOT, level=level, tol=tol, processes=processes,
        hosts=f"localhost:{processes}",
    )

    assert np.array_equal(cold.combined, reference.combined)
    assert np.array_equal(result.combined, reference.combined)
    assert result.engine == "socket"
    assert result.daemons == processes
    assert result.reconnects == 0
    assert result.net_bytes_received > result.net_bytes_sent > 0
    # a run's counters are its own, on a warm fleet too
    assert (result.net_bytes_sent, result.net_bytes_received) == (
        cold.net_bytes_sent, cold.net_bytes_received
    )

    pool_seconds = min(pool_samples)
    wire_seconds = result.net_send_seconds + result.net_recv_seconds
    spawn_seconds = cold.pool_cold_start_seconds
    benchmark.extra_info["level"] = level
    benchmark.extra_info["pool_seconds"] = pool_seconds
    benchmark.extra_info["cold_seconds"] = cold_seconds
    benchmark.extra_info["warm_seconds"] = warm_seconds
    benchmark.extra_info["daemon_spawn_seconds"] = spawn_seconds
    benchmark.extra_info["wire_seconds"] = wire_seconds
    benchmark.extra_info["framed_bytes"] = (
        result.net_bytes_sent + result.net_bytes_received
    )
    print(f"\nsocket engine at level {level}: pool {pool_seconds:.3f}s vs "
          f"socket cold {cold_seconds:.3f}s (daemon spawn "
          f"{spawn_seconds:.3f}s) / warm {warm_seconds:.3f}s, "
          f"wire {wire_seconds * 1e3:.1f} ms, "
          f"{result.net_bytes_sent + result.net_bytes_received} framed bytes")
    # the tax must stay bounded: the cold socket run may not cost more
    # than the pool run plus the spawn it measured itself paying, with
    # generous headroom for noise
    assert cold_seconds <= pool_seconds + spawn_seconds + 2.0

