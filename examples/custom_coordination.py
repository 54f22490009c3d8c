#!/usr/bin/env python
"""Reusing the glue for a different computation: Monte Carlo pi.

The paper's point about exogenous coordination is that the protocol
modules are *reusable*: "it is irrelevant to know what kind of
computation is performed in the master or the worker".  This example
proves it — the very same ``ProtocolMW`` manner that coordinates the
CFD solver here coordinates a Monte Carlo estimator, with no changes to
the protocol code.

Usage::

    python examples/custom_coordination.py [n_workers] [samples_per_worker]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Runtime,
    run_application,
)
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    make_worker_definition,
    protocol_mw,
)


def monte_carlo_hits(job: tuple[int, int]) -> int:
    """Count darts landing inside the unit quarter-circle."""
    seed, n_samples = job
    rng = np.random.default_rng(seed)
    x = rng.random(n_samples)
    y = rng.random(n_samples)
    return int(np.count_nonzero(x * x + y * y <= 1.0))


def main() -> int:
    n_workers = int(sys.argv[1]) if len(sys.argv) > 1 else 8
    per_worker = int(sys.argv[2]) if len(sys.argv) > 2 else 200_000

    worker_defn = make_worker_definition("PiWorker", monte_carlo_hits)
    estimate: dict[str, float] = {}

    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=120)
        jobs = [WorkerJob(i, (i, per_worker)) for i in range(n_workers)]
        results = client.run_pool(jobs)
        hits = sum(r.payload for r in results)
        estimate["pi"] = 4.0 * hits / (n_workers * per_worker)
        client.finished()

    master_defn = AtomicDefinition(
        "PiMaster", master_body, in_ports=("input", "dataport")
    )

    runtime = Runtime("pi")

    def main_block():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            # the untouched CFD protocol, coordinating darts instead
            yield ctx.run_block(protocol_mw(master, worker_defn))
            yield ctx.terminated(master)
            yield ctx.halt()

        return block

    main = Coordinator(runtime, "Main", main_block, deadline=120)
    run_application(runtime, main, timeout=120)

    pi = estimate["pi"]
    error = abs(pi - np.pi)
    print(f"pi ~ {pi:.5f} from {n_workers} workers x {per_worker} samples "
          f"(error {error:.2e})")
    print("coordinated by the unmodified ProtocolMW manner")
    return 0 if error < 0.05 else 1


if __name__ == "__main__":
    raise SystemExit(main())
