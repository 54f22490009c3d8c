"""Coordination-layer microbenchmarks on the *real* runtime.

The simulator's ``handshake_seconds``/``event_latency_seconds`` stand in
for the 2003 deployment; this bench measures what our own coordination
layer actually costs per worker — the directly measurable slice of the
paper's "overhead of the coordination layer" category — by running the
genuine ``ProtocolMW`` manner with no-op computations.
"""

from __future__ import annotations

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Runtime,
    run_application,
)
from repro.protocol import MasterProtocolClient, WorkerJob, make_worker_definition, protocol_mw


def run_noop_pools(n_workers: int, n_pools: int = 1) -> None:
    worker_defn = make_worker_definition("Worker", lambda x: x)

    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=60)
        for _ in range(n_pools):
            client.run_pool([WorkerJob(i, i) for i in range(n_workers)])
        client.finished()

    master_defn = AtomicDefinition(
        "Master", master_body, in_ports=("input", "dataport")
    )
    runtime = Runtime("bench")

    def main_body():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            yield ctx.run_block(protocol_mw(master, worker_defn))
            yield ctx.terminated(master)
            yield ctx.halt()

        return block

    main = Coordinator(runtime, "Main", main_body, deadline=60)
    run_application(runtime, main, timeout=60)


@pytest.mark.benchmark(group="protocol")
def test_protocol_single_worker_roundtrip(benchmark):
    """One pool, one worker: the full create/wire/compute/rendezvous
    cycle through the real state machinery."""
    benchmark.pedantic(lambda: run_noop_pools(1), rounds=5, iterations=1)


@pytest.mark.benchmark(group="protocol")
def test_protocol_pool_of_eight(benchmark):
    benchmark.pedantic(lambda: run_noop_pools(8), rounds=5, iterations=1)


@pytest.mark.benchmark(group="protocol")
def test_protocol_pool_of_thirtyone(benchmark):
    """The level-15 worker count (w = 2*15 + 1)."""
    benchmark.pedantic(lambda: run_noop_pools(31), rounds=3, iterations=1)


@pytest.mark.benchmark(group="protocol")
def test_protocol_repeated_pools(benchmark):
    """Pool churn: five pools of four through one coordinator."""
    benchmark.pedantic(lambda: run_noop_pools(4, n_pools=5), rounds=3, iterations=1)


@pytest.mark.benchmark(group="protocol")
def test_protocol_scaling_is_subquadratic(benchmark):
    """Per-worker coordination cost must not blow up with pool size."""
    import time

    def measure(n: int) -> float:
        start = time.perf_counter()
        run_noop_pools(n)
        return time.perf_counter() - start

    benchmark.pedantic(lambda: run_noop_pools(16), rounds=3, iterations=1)
    t4 = min(measure(4) for _ in range(2))
    t32 = min(measure(32) for _ in range(2))
    # 8x the workers may cost at most ~24x the wall time (generous: the
    # point is to catch quadratic/pathological coordination costs)
    assert t32 < 24 * max(t4, 1e-3), (t4, t32)
