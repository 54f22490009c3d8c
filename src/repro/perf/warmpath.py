"""Warm-path observability: cache effectiveness and dispatch makespan.

The S-Net/CnC comparison in the related work makes the case that the
coordination layer — not the kernel — decides whether a port of this
kind wins.  This module quantifies our own coordination layer:

* **cache counters** — operator-cache hit/miss and factorization-reuse
  ratios pooled from :class:`~repro.restructured.worker.SubsolvePayload`
  counters of a run;
* **cold-vs-warm pool timings** — fork cost paid inside a call versus a
  warm acquisition of the persistent pool;
* **dispatch-order makespan** — a deterministic scheduling metric: given
  the measured per-grid durations of a run, what elapsed time would a
  ``w``-worker pool see under the actual dispatch order, under
  longest-measured-first, and at the no-overhead bound?  This isolates
  the scheduling effect from machine noise (and from the core count of
  the present machine), the same way the paper's cost model isolates
  timing structure from 2003 hardware;
* **result transport** — the solution bytes that came home through the
  pickle channel and the master's combination seconds after them.

The makespan simulator models the pool faithfully: workers pull the
next job greedily, one ``send`` per job.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.restructured.parallel import RunResult
from repro.trace.analysis import TraceAnalysis

__all__ = [
    "simulate_makespan",
    "DispatchMakespan",
    "dispatch_makespan",
    "WarmPathReport",
    "warm_path_report",
]


def simulate_makespan(durations: Sequence[float], n_workers: int) -> float:
    """Elapsed time of a greedy list schedule: each of ``n_workers``
    workers pulls the next duration when it becomes free."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    if not durations:
        return 0.0
    loads = [0.0] * min(n_workers, len(durations))
    for d in durations:
        if d < 0:
            raise ValueError(f"durations must be non-negative, got {d}")
        i = loads.index(min(loads))
        loads[i] += d
    return max(loads)


@dataclass(frozen=True)
class DispatchMakespan:
    """The scheduling metric for one run's measured durations."""

    n_workers: int
    #: greedy makespan of the order jobs were actually dispatched in
    dispatched_seconds: float
    #: greedy makespan of longest-measured-first (LPT with hindsight)
    longest_first_seconds: float
    #: sum of all durations / n_workers — the no-overhead bound
    lower_bound_seconds: float


def dispatch_makespan(
    result: RunResult, n_workers: Optional[int] = None
) -> DispatchMakespan:
    """Score a run's dispatch order against longest-first and the
    no-overhead bound, using its own measured per-grid durations."""
    workers = n_workers or max(2, result.processes)
    by_key = {key: p.wall_seconds for key, p in result.payloads.items()}
    dispatched = [by_key[key] for key in result.dispatch_order]
    longest_first = sorted(by_key.values(), reverse=True)
    total = sum(by_key.values())
    return DispatchMakespan(
        n_workers=workers,
        dispatched_seconds=simulate_makespan(dispatched, workers),
        longest_first_seconds=simulate_makespan(longest_first, workers),
        lower_bound_seconds=total / workers,
    )


@dataclass(frozen=True)
class WarmPathReport:
    """One run, what its dispatch order was worth, and — when it was
    traced — what the trace says."""

    result: RunResult
    makespan: DispatchMakespan
    #: trace-derived metrics of the run (None when it was not traced)
    trace: Optional[TraceAnalysis] = None

    def lines(self) -> list[str]:
        """Human-readable report lines for the CLI."""
        r = self.result
        m = self.makespan
        network = []
        if r.engine == "socket":
            fleet = (
                "warm (no spawn paid)"
                if r.warm_pool
                else f"cold (spawn {r.pool_cold_start_seconds * 1e3:.1f} ms)"
            )
            network.append(
                f"socket engine: {r.daemons} daemon(s) on "
                f"{r.hosts or 'localhost'}, fleet: {fleet}, "
                f"{r.net_bytes_sent + r.net_bytes_received} framed "
                f"bytes ({r.net_bytes_sent} sent / "
                f"{r.net_bytes_received} received), "
                f"{r.net_send_seconds + r.net_recv_seconds:.3f}s on "
                f"the wire, {r.reconnects} reconnect(s)"
            )
        resilience = []
        if r.faults:
            succeeded = "".join(
                f", worker replaced by a "
                f"{'warm standby' if how == 'standby' else 'cold fork'}"
                for how in r.replacements
            )
            resilience.append(
                f"resilience: {r.faults} faults over {r.attempts} "
                f"attempts, {r.recovered} recovered, "
                f"{r.fallbacks} sequential fallbacks{succeeded}"
            )
        transport = []
        pickled = sum(int(p.solution.nbytes) for p in r.payloads.values())
        if pickled:
            transport.append(
                f"result transport: {pickled} bytes "
                f"through the pickle channel, combine "
                f"{r.combine_seconds * 1e3:.1f} ms"
            )
        traced = []
        if self.trace is not None:
            t = self.trace
            lanes = t.worker_utilization()
            traced.append(
                f"trace: mean utilization {t.mean_utilization:.2f} over "
                f"{len(lanes)} worker lane(s), queue wait "
                f"{t.total_queue_wait_seconds:.3f}s vs compute "
                f"{t.total_compute_seconds:.3f}s, critical path "
                f"{t.critical_path_seconds:.3f}s"
            )
            if t.n_faults:
                traced.append(
                    f"trace: recovery overhead "
                    f"{t.recovery_overhead_seconds:.3f}s "
                    f"({t.fault_seconds_lost:.3f}s lost + "
                    f"{t.replay_compute_seconds:.3f}s replayed)"
                )
        return network + resilience + transport + traced + [
            f"pool: {'warm' if r.warm_pool else 'cold'}"
            + (
                f" (fork {r.pool_cold_start_seconds * 1e3:.1f} ms)"
                if not r.warm_pool
                else ""
            ),
            f"operator cache: {r.operator_cache_hits} hits / "
            f"{r.operator_cache_misses} misses "
            f"(hit ratio {r.operator_cache_hit_ratio:.2f})",
            f"factorization reuse: ratio {r.factor_reuse_ratio:.2f}, "
            f"{r.factor_cache_hits} cross-run factor-cache hits",
            f"makespan @{m.n_workers} workers: dispatched "
            f"{m.dispatched_seconds:.3f}s (lower bound "
            f"{m.lower_bound_seconds:.3f}s)",
            f"pool {r.pool_seconds:.3f}s, total {r.total_seconds:.3f}s",
        ]


def warm_path_report(
    result: RunResult,
    n_workers: Optional[int] = None,
    *,
    trace=None,
) -> WarmPathReport:
    """Summarize one ``run_multiprocessing`` result.

    ``trace`` — the run's :class:`~repro.trace.TraceRecorder` — adds the
    trace-derived utilization / queue-wait / critical-path metrics to
    the report.
    """
    return WarmPathReport(
        result=result,
        makespan=dispatch_makespan(result, n_workers),
        trace=None if trace is None else TraceAnalysis(trace.events()),
    )
