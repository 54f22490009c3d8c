"""Validating the cluster simulator against the socket engine.

The simulator (:mod:`repro.cluster.simulator`) predicts the overhead
decomposition of a distributed run — startup, send wait, result wait,
critical-path work, prolongation, recovery — from timing constants and
a network model.  Until now those predictions could only be compared
with the *paper's* numbers.  The socket engine
(:mod:`repro.restructured.netengine`) closes the loop: the same
master/worker protocol runs over real TCP on this machine, and its
trace records where the time actually went.

:func:`validate_socket_engine` runs one problem through both paths:

1. the **socket engine** on localhost daemons, traced, yielding the
   *measured* decomposition (spawn cost, framed-byte send/recv time,
   compute critical path, master-side combination);
2. the **simulator**, fed per-grid :class:`~repro.cluster.simulator.
   GridCost` records built from the measured payloads themselves (wall
   seconds and result bytes), with this machine's constants — measured
   daemon spawn time, gigabit-class loopback, no multi-user noise —
   yielding the *predicted* decomposition for the identical workload.

The two decompositions are reported side by side.  They will not agree
to the digit — the simulator models a 2003 machine room, the loopback
run measures one 2026 host — but the *shape* must match: work dominates,
network time is small against compute, and the constants sit where the
constants were measured.  The harness also asserts the part that must
be exact: the socket run's combined solution is bitwise identical to
the sequential application's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .host import uniform_cluster
from .network import EthernetModel
from .noise import MultiUserNoise
from .simulator import GridCost, SimulationParams, simulate_distributed

__all__ = ["ValidationReport", "validate_socket_engine"]

#: the decomposition rows, in report order
_CATEGORIES = (
    "startup",
    "master_init",
    "fork",
    "handshake",
    "events",
    "send_wait",
    "result_wait",
    "work_critical",
    "prolongation",
    "recovery",
    "shutdown",
)


@dataclass
class ValidationReport:
    """Predicted-vs-measured decomposition of one localhost run."""

    root: int
    level: int
    tol: float
    processes: int
    n_grids: int
    bitwise_identical: bool
    predicted: dict[str, float]
    measured: dict[str, float]
    predicted_elapsed: float
    measured_elapsed: float
    reconnects: int = 0
    network_bytes: int = 0
    notes: list[str] = field(default_factory=list)

    def lines(self) -> list[str]:
        out = [
            f"socket-engine validation: root={self.root} level={self.level} "
            f"tol={self.tol:g}, {self.n_grids} grids on "
            f"{self.processes} localhost daemon(s)",
            f"bitwise identical to sequential: {self.bitwise_identical}",
            f"{'category':<14} {'predicted':>12} {'measured':>12}",
        ]
        for cat in _CATEGORIES:
            p = self.predicted.get(cat, 0.0)
            m = self.measured.get(cat, 0.0)
            if p == 0.0 and m == 0.0:
                continue
            out.append(f"{cat:<14} {p:>11.3f}s {m:>11.3f}s")
        out.append(
            f"{'elapsed':<14} {self.predicted_elapsed:>11.3f}s "
            f"{self.measured_elapsed:>11.3f}s"
        )
        out.append(
            f"network: {self.network_bytes} framed bytes, "
            f"{self.reconnects} reconnect(s)"
        )
        out.extend(self.notes)
        return out


def validate_socket_engine(
    root: int = 2,
    level: int = 5,
    tol: float = 1.0e-3,
    problem_name: str = "rotating-cone",
    processes: int = 2,
    seed: int = 20040101,
) -> ValidationReport:
    """Run one problem through the socket engine and the simulator.

    The socket run comes first — its payloads provide the per-grid
    costs the simulator is then fed, so both decompositions describe
    the *same* workload.  Every result byte crosses the socket, so the
    network accounting sees the whole result transfer.
    """
    from repro.sparsegrid import SequentialApplication
    from repro.sparsegrid.registry import make_problem
    from repro.restructured import run_multiprocessing
    from repro.trace import TraceAnalysis, TraceRecorder

    recorder = TraceRecorder()
    result = run_multiprocessing(
        root=root,
        level=level,
        tol=tol,
        problem_name=problem_name,
        processes=processes,
        engine="socket",
        hosts=f"localhost:{processes}",
        # daemons of its own, forked inside the call: the decomposition
        # has a start-up row, which a leased warm fleet would not pay
        warm_pool=False,
        trace=recorder,
    )
    analysis = TraceAnalysis(recorder.events())

    sequential = SequentialApplication(
        root=root, level=level, tol=tol, problem=make_problem(problem_name)
    ).run()
    bitwise = bool(np.array_equal(sequential.combined, result.combined))

    measured = {cat: 0.0 for cat in _CATEGORIES}
    measured["startup"] = result.pool_cold_start_seconds
    measured["send_wait"] = analysis.net_send_seconds
    measured["result_wait"] = analysis.net_recv_seconds
    measured["work_critical"] = analysis.critical_path_seconds
    measured["prolongation"] = result.combine_seconds
    if analysis.n_faults:
        measured["recovery"] = analysis.recovery_overhead_seconds

    # the simulator's workload: the measured jobs themselves.  The
    # cluster clocks at the 1200 MHz reference, so measured wall
    # seconds pass through as reference seconds unscaled.
    costs = [
        GridCost(
            l=payload.l,
            m=payload.m,
            work_ref_seconds=payload.wall_seconds,
            result_bytes=int(payload.solution.nbytes),
        )
        for payload in result.payloads.values()
    ]
    cluster = uniform_cluster(processes + 1, clock_mhz=1200)
    params = SimulationParams(
        # this machine's constants, not the 2003 testbed's
        startup_seconds=result.pool_cold_start_seconds,
        master_init_seconds=0.0,
        event_latency_seconds=0.0001,
        fork_seconds=0.05,
        handshake_seconds=0.005,
        ship_initial_data=False,
        shutdown_seconds=0.0,
        network=EthernetModel(bandwidth_mbps=1000, latency_s=0.05e-3),
        noise=MultiUserNoise.quiet(),
    )
    run = simulate_distributed(
        [costs],
        cluster,
        params,
        np.random.default_rng(seed),
        master_prolongation_ref_seconds=result.combine_seconds,
    )
    predicted = {cat: run.breakdown.get(cat, 0.0) for cat in _CATEGORIES}

    notes = [
        "note: master dispatch is a single-threaded selectors reactor — "
        "wire time is multiplexed, never serialized behind a sleeping "
        "retry or reconnect"
    ]
    if result.reconnects:
        notes.append(
            f"note: {result.reconnects} reconnect(s) occurred — the "
            "measured decomposition includes real recovery time"
        )
    return ValidationReport(
        root=root,
        level=level,
        tol=tol,
        processes=processes,
        n_grids=len(result.payloads),
        bitwise_identical=bitwise,
        predicted=predicted,
        measured=measured,
        predicted_elapsed=run.elapsed_seconds,
        measured_elapsed=result.total_seconds,
        reconnects=result.reconnects,
        network_bytes=analysis.network_bytes,
        notes=notes,
    )
