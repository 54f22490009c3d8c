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
  ``w``-worker pool see under the actual dispatch order versus the
  seed's ``pool.map`` static chunking?  This isolates the scheduling
  effect from machine noise (and from the core count of the present
  machine), the same way the paper's cost model isolates timing
  structure from 2003 hardware;
* **result transport** — the solution bytes that came home through the
  pickle channel and the master's combination seconds after them.

The makespan simulator models the pool faithfully: workers pull the
next unit greedily; as dispatched (one ``submit`` per job) a unit is
one job, under the seed's ``pool.map`` a unit is one static contiguous
chunk (jobs of a chunk run back to back on one worker).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.restructured.parallel import MultiprocessingResult

__all__ = [
    "simulate_makespan",
    "static_chunks",
    "static_chunk_makespan",
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


def static_chunks(n_items: int, n_workers: int, chunksize: Optional[int] = None) -> list[int]:
    """Chunk sizes ``pool.map`` would use (its default formula splits
    the list into ~4 contiguous chunks per worker)."""
    if n_items == 0:
        return []
    if chunksize is None:
        chunksize, extra = divmod(n_items, n_workers * 4)
        if extra:
            chunksize += 1
    sizes = []
    remaining = n_items
    while remaining > 0:
        take = min(chunksize, remaining)
        sizes.append(take)
        remaining -= take
    return sizes


def static_chunk_makespan(
    durations: Sequence[float],
    n_workers: int,
    chunksize: Optional[int] = None,
) -> float:
    """Makespan of ``pool.map``'s static chunking over ``durations`` in
    their given (loop) order: contiguous chunks are the schedulable
    units, each chunk's jobs run back to back on one worker."""
    units: list[float] = []
    start = 0
    for size in static_chunks(len(durations), n_workers, chunksize):
        units.append(float(sum(durations[start:start + size])))
        start += size
    return simulate_makespan(units, n_workers)


@dataclass(frozen=True)
class DispatchMakespan:
    """The scheduling metric for one run's measured durations."""

    n_workers: int
    #: greedy makespan of the order jobs were actually dispatched in
    dispatched_seconds: float
    #: greedy makespan of longest-measured-first (LPT with hindsight)
    longest_first_seconds: float
    #: ``pool.map`` static chunking over the paper's loop order
    static_chunk_seconds: float
    #: sum of all durations / n_workers — the no-overhead bound
    lower_bound_seconds: float

    @property
    def gain_over_static(self) -> float:
        """How much the dispatched order beats static chunking
        (>1 means the warm path's ordering wins makespan)."""
        if self.dispatched_seconds == 0:
            return 1.0
        return self.static_chunk_seconds / self.dispatched_seconds


def dispatch_makespan(
    result: MultiprocessingResult, n_workers: Optional[int] = None
) -> DispatchMakespan:
    """Score a run's dispatch order against static chunking, using its
    own measured per-grid durations."""
    workers = n_workers or max(2, result.processes)
    by_key = {key: p.wall_seconds for key, p in result.payloads.items()}
    loop_order = [by_key[key] for key in sorted(
        by_key, key=lambda k: (k[0] + k[1], k[0])
    )]
    dispatched = [by_key[key] for key in result.dispatch_order]
    longest_first = sorted(by_key.values(), reverse=True)
    total = sum(by_key.values())
    return DispatchMakespan(
        n_workers=workers,
        dispatched_seconds=simulate_makespan(dispatched, workers),
        longest_first_seconds=simulate_makespan(longest_first, workers),
        static_chunk_seconds=static_chunk_makespan(loop_order, workers),
        lower_bound_seconds=total / workers,
    )


@dataclass(frozen=True)
class WarmPathReport:
    """Everything the warm path changed, in one record."""

    level: int
    tol: float
    warm_pool: bool
    pool_cold_start_seconds: float
    operator_cache_hits: int
    operator_cache_misses: int
    operator_cache_hit_ratio: float
    factor_cache_hits: int
    factor_reuse_ratio: float
    pool_seconds: float
    total_seconds: float
    makespan: DispatchMakespan
    # fault-tolerance counters (a fault-free run: attempts == jobs, rest 0)
    attempts: int = 0
    faults: int = 0
    recovered: int = 0
    fallbacks: int = 0
    pool_respawns: int = 0
    # result transport: pickled bytes home, then the barriered combine
    transport_pickle_bytes: int = 0
    combine_seconds: float = 0.0
    # socket-engine counters (zero for the in-process engines)
    engine: str = "pool"
    hosts: str = ""
    daemons: int = 0
    reconnects: int = 0
    net_bytes_sent: int = 0
    net_bytes_received: int = 0
    net_send_seconds: float = 0.0
    net_recv_seconds: float = 0.0
    #: trace-derived metrics of the run (None when it was not traced)
    trace: Optional["TraceAnalysis"] = None

    def lines(self) -> list[str]:
        """Human-readable report lines for the CLI."""
        m = self.makespan
        network = []
        if self.engine == "socket":
            fleet = (
                "warm (no spawn paid)"
                if self.warm_pool
                else f"cold (spawn {self.pool_cold_start_seconds * 1e3:.1f} ms)"
            )
            network.append(
                f"socket engine: {self.daemons} daemon(s) on "
                f"{self.hosts or 'localhost'}, fleet: {fleet}, "
                f"{self.net_bytes_sent + self.net_bytes_received} framed "
                f"bytes ({self.net_bytes_sent} sent / "
                f"{self.net_bytes_received} received), "
                f"{self.net_send_seconds + self.net_recv_seconds:.3f}s on "
                f"the wire, {self.reconnects} reconnect(s)"
            )
        resilience = []
        if self.faults:
            resilience.append(
                f"resilience: {self.faults} faults over {self.attempts} "
                f"attempts, {self.recovered} recovered, "
                f"{self.fallbacks} sequential fallbacks, "
                f"{self.pool_respawns} pool respawns"
            )
        transport = []
        if self.transport_pickle_bytes:
            transport.append(
                f"result transport: {self.transport_pickle_bytes} bytes "
                f"through the pickle channel, combine "
                f"{self.combine_seconds * 1e3:.1f} ms"
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
            f"pool: {'warm' if self.warm_pool else 'cold'}"
            + (
                f" (fork {self.pool_cold_start_seconds * 1e3:.1f} ms)"
                if not self.warm_pool
                else ""
            ),
            f"operator cache: {self.operator_cache_hits} hits / "
            f"{self.operator_cache_misses} misses "
            f"(hit ratio {self.operator_cache_hit_ratio:.2f})",
            f"factorization reuse: ratio {self.factor_reuse_ratio:.2f}, "
            f"{self.factor_cache_hits} cross-run factor-cache hits",
            f"makespan @{m.n_workers} workers: dispatched "
            f"{m.dispatched_seconds:.3f}s vs static-chunk "
            f"{m.static_chunk_seconds:.3f}s "
            f"(gain {m.gain_over_static:.2f}x, lower bound "
            f"{m.lower_bound_seconds:.3f}s)",
            f"pool {self.pool_seconds:.3f}s, total {self.total_seconds:.3f}s",
        ]


def _as_trace_analysis(trace):
    """Accept a TraceRecorder, an event sequence, or a TraceAnalysis."""
    if trace is None:
        return None
    from repro.trace.analysis import TraceAnalysis
    from repro.trace.recorder import TraceRecorder

    if isinstance(trace, TraceAnalysis):
        return trace
    if isinstance(trace, TraceRecorder):
        return TraceAnalysis(trace.events())
    return TraceAnalysis(trace)


def warm_path_report(
    result: MultiprocessingResult,
    n_workers: Optional[int] = None,
    *,
    trace=None,
) -> WarmPathReport:
    """Summarize one ``run_multiprocessing`` result.

    ``trace`` — the run's :class:`~repro.trace.TraceRecorder` (or its
    events, or a ready :class:`~repro.trace.TraceAnalysis`) adds the
    trace-derived utilization / queue-wait / critical-path metrics to
    the report.
    """
    return WarmPathReport(
        level=result.level,
        tol=result.tol,
        warm_pool=result.warm_pool,
        pool_cold_start_seconds=result.pool_cold_start_seconds,
        operator_cache_hits=result.operator_cache_hits,
        operator_cache_misses=result.operator_cache_misses,
        operator_cache_hit_ratio=result.operator_cache_hit_ratio,
        factor_cache_hits=result.factor_cache_hits,
        factor_reuse_ratio=result.factor_reuse_ratio,
        pool_seconds=result.pool_seconds,
        total_seconds=result.total_seconds,
        makespan=dispatch_makespan(result, n_workers),
        attempts=result.attempts,
        faults=result.faults,
        recovered=result.recovered,
        fallbacks=result.fallbacks,
        pool_respawns=result.pool_respawns,
        transport_pickle_bytes=result.transport_pickle_bytes,
        combine_seconds=result.combine_seconds,
        engine=result.engine,
        hosts=result.hosts,
        daemons=result.daemons,
        reconnects=result.reconnects,
        net_bytes_sent=result.net_bytes_sent,
        net_bytes_received=result.net_bytes_received,
        net_send_seconds=result.net_send_seconds,
        net_recv_seconds=result.net_recv_seconds,
        trace=_as_trace_analysis(trace),
    )
