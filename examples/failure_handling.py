#!/usr/bin/env python
"""Beyond the paper: worker failures and stall detection.

The paper's protocol assumes every worker eventually raises
``death_worker``; a crashed worker silently deadlocks the whole
application.  This example shows the two robustness extensions of this
reproduction working together:

1. a :class:`~repro.manifold.Watchdog` detecting the deadlock of the
   *unsupervised* protocol when a worker crashes;
2. the *supervised* protocol (``protocol_mw(..., supervise=True)``)
   converting the same crash into a failure result the master can
   handle — the run completes, the surviving results arrive;
3. the full escalation ladder against the *real* pool of task
   instances: a seeded injector kills the OS process computing one
   level-5 grid mid-run, the master reads the death as the EOF of that
   worker's pipe, re-dispatches the lost job to a fresh worker, and the combination-technique result comes
   out bitwise identical to a fault-free run.

Usage::

    python examples/failure_handling.py
"""

from __future__ import annotations

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Runtime,
    Watchdog,
    run_application,
)
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    make_worker_definition,
    protocol_mw,
)


def flaky_compute(x: int) -> int:
    if x == 3:
        raise RuntimeError("simulated hardware fault on job 3")
    return x * x


def build_master(outcome: dict, raise_on_failure: bool) -> AtomicDefinition:
    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=8)
        results = client.run_pool(
            [WorkerJob(i, i) for i in range(6)],
            raise_on_failure=raise_on_failure,
        )
        outcome["results"] = sorted(r.payload for r in results)
        outcome["failures"] = list(client.last_failures)
        client.finished()

    return AtomicDefinition(
        "Master", master_body, in_ports=("input", "dataport")
    )


def run(supervise: bool) -> dict:
    runtime = Runtime("failure-demo")
    worker_defn = make_worker_definition("Worker", flaky_compute)
    outcome: dict = {}
    master_defn = build_master(outcome, raise_on_failure=False)

    def main_body():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            yield ctx.run_block(protocol_mw(master, worker_defn, supervise=supervise))
            yield ctx.terminated(master)
            yield ctx.halt()

        return block

    stalls = []
    main = Coordinator(runtime, "Main", main_body, deadline=6)
    with Watchdog(runtime, timeout=2.0, on_stall=stalls.append):
        try:
            run_application(runtime, main, timeout=6)
            outcome["completed"] = True
        except Exception as exc:  # noqa: BLE001 - demo reporting
            outcome["completed"] = False
            outcome["error"] = type(exc).__name__
    outcome["stalls"] = stalls
    return outcome


def run_escalation_ladder() -> bool:
    """Kill a real pool worker at level 5; recover; compare bitwise."""
    import numpy as np

    from repro.restructured import run_multiprocessing, shutdown_pool

    level = 5
    baseline = run_multiprocessing(root=2, level=level)
    recovered = run_multiprocessing(
        root=2, level=level, faults="crash@2,3"
    )
    shutdown_pool()
    identical = bool(np.array_equal(baseline.combined, recovered.combined))
    for line in recovered.fault_report.lines():
        print(line)
    print(
        f"attempts: {recovered.attempts} for {recovered.n_workers} grids; "
        f"recovered grids: {recovered.recovered}"
    )
    print(f"combined solution identical to fault-free run: {identical}")
    return (
        identical
        and recovered.faults == 1
        and recovered.recovered == 1
        and recovered.fallbacks == 0
    )


def main() -> int:
    print("== unsupervised protocol (the paper's, verbatim) ==")
    unsupervised = run(supervise=False)
    print(f"completed: {unsupervised['completed']}")
    for report in unsupervised["stalls"]:
        print(f"watchdog: {report.describe()}")
    if unsupervised["completed"]:
        print("unexpected: the crash should deadlock the run")
        return 1

    print()
    print("== supervised protocol (this repo's extension) ==")
    supervised = run(supervise=True)
    print(f"completed: {supervised['completed']}")
    print(f"surviving results: {supervised['results']}")
    for failure in supervised["failures"]:
        print(f"failure handled: {failure.worker_name}: {failure.error}")
    ok = (
        supervised["completed"]
        and supervised["results"] == [0, 1, 4, 16, 25]
        and len(supervised["failures"]) == 1
    )

    print()
    print("== escalation ladder on the real pool (OS-level crash) ==")
    ladder_ok = run_escalation_ladder()
    return 0 if (ok and ladder_ok) else 1


if __name__ == "__main__":
    raise SystemExit(main())
