"""Trace analysis: what a run's timeline says about its coordination.

The related work (S-Net vs CnC; Jongmans & Arbab's protocol-code
analysis) argues that coordination-level performance claims need
per-component timelines, not just end-to-end wall time.  This module
computes exactly those numbers from a :class:`~repro.trace.TraceEvent`
timeline:

* **job spans** — every ``(key, attempt)`` with a ``job_done`` becomes a
  :class:`JobSpan` carrying its queue wait (``start - submit``) and
  compute time (``done - start``);
* **per-worker utilization** — busy seconds over the traced window, per
  worker lane; always ≤ 1 for serial workers (an invariant the tests
  assert);
* **critical path** — the traced makespan (first submit to last
  completion) together with the chain of jobs on the last-finishing
  worker, which is the chain that set it;
* **queue-wait vs compute breakdown** — total seconds jobs spent
  waiting for a worker versus computing;
* **recovery overhead** — seconds lost to faults (from the lifted
  ``fault`` events) plus the compute spent on replayed attempts and
  fallbacks, which must be consistent with the run's
  :class:`~repro.resilience.FaultReport`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .recorder import TraceEvent, TraceRecorder

__all__ = ["JobSpan", "TraceAnalysis", "SpanNestingError"]

#: lane name used for events with no worker (master-side work)
MASTER_LANE = "master"


class SpanNestingError(ValueError):
    """A ``span_begin``/``span_end`` pair is unbalanced or interleaved."""


@dataclass(frozen=True)
class JobSpan:
    """One completed job attempt, reassembled from its lifecycle events."""

    key: tuple
    attempt: int
    worker: object
    submit_t: Optional[float]
    start_t: float
    done_t: float
    #: the in-master sequential fallback computed this attempt
    fallback: bool = False

    @property
    def queue_wait_seconds(self) -> float:
        if self.submit_t is None:
            return 0.0
        return max(0.0, self.start_t - self.submit_t)

    @property
    def compute_seconds(self) -> float:
        return max(0.0, self.done_t - self.start_t)


class TraceAnalysis:
    """Derived metrics of one traced run."""

    def __init__(self, events: Sequence[TraceEvent]) -> None:
        self.events = sorted(events, key=lambda e: (e.t, e.seq))
        self.jobs = self._assemble_jobs(self.events)
        times = [e.t for e in self.events]
        self.t_begin = min(times) if times else 0.0
        self.t_end = max(times) if times else 0.0

    @classmethod
    def from_recorder(cls, recorder: TraceRecorder) -> "TraceAnalysis":
        return cls(recorder.events())

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    @staticmethod
    def _assemble_jobs(events: Iterable[TraceEvent]) -> list[JobSpan]:
        submits: dict[tuple, float] = {}
        starts: dict[tuple, tuple[float, object]] = {}
        jobs: list[JobSpan] = []
        for event in events:
            if event.key is None:
                continue
            ident = (event.key, event.attempt)
            if event.kind == "job_submit":
                submits[ident] = event.t
            elif event.kind == "job_start":
                starts[ident] = (event.t, event.worker)
            elif event.kind == "job_done":
                start_t, worker = starts.pop(
                    ident, (submits.get(ident, event.t), event.worker)
                )
                jobs.append(
                    JobSpan(
                        key=event.key,
                        attempt=event.attempt,
                        worker=event.worker if event.worker is not None else worker,
                        submit_t=submits.get(ident),
                        start_t=start_t,
                        done_t=event.t,
                        fallback=bool(event.data.get("fallback", False)),
                    )
                )
        return jobs

    # ------------------------------------------------------------------
    # the traced window
    # ------------------------------------------------------------------
    @property
    def elapsed_seconds(self) -> float:
        return self.t_end - self.t_begin

    # ------------------------------------------------------------------
    # per-worker utilization
    # ------------------------------------------------------------------
    def worker_busy_seconds(self) -> dict[object, float]:
        busy: dict[object, float] = {}
        for job in self.jobs:
            lane = job.worker if job.worker is not None else MASTER_LANE
            busy[lane] = busy.get(lane, 0.0) + job.compute_seconds
        return busy

    def worker_utilization(self) -> dict[object, float]:
        """Busy fraction of the traced window, per worker lane."""
        window = self.elapsed_seconds
        if window <= 0.0:
            return {lane: 0.0 for lane in self.worker_busy_seconds()}
        return {
            lane: busy / window
            for lane, busy in self.worker_busy_seconds().items()
        }

    @property
    def mean_utilization(self) -> float:
        util = self.worker_utilization()
        if not util:
            return 0.0
        return sum(util.values()) / len(util)

    # ------------------------------------------------------------------
    # queue wait vs compute
    # ------------------------------------------------------------------
    @property
    def total_compute_seconds(self) -> float:
        return sum(j.compute_seconds for j in self.jobs)

    @property
    def total_queue_wait_seconds(self) -> float:
        return sum(j.queue_wait_seconds for j in self.jobs)

    # ------------------------------------------------------------------
    # critical path
    # ------------------------------------------------------------------
    def critical_path(self) -> list[JobSpan]:
        """The job chain on the worker whose last job finishes last.

        For a single-join fan-out (this application) the makespan ends
        with some worker's final completion; that worker's job sequence
        is the chain that determined it.
        """
        if not self.jobs:
            return []
        last = max(self.jobs, key=lambda j: j.done_t)
        chain = [j for j in self.jobs if j.worker == last.worker]
        chain.sort(key=lambda j: j.start_t)
        return chain

    @property
    def critical_path_seconds(self) -> float:
        """First submission (or start) to last completion."""
        if not self.jobs:
            return 0.0
        begin = min(
            j.submit_t if j.submit_t is not None else j.start_t
            for j in self.jobs
        )
        return max(j.done_t for j in self.jobs) - begin

    # ------------------------------------------------------------------
    # recovery overhead
    # ------------------------------------------------------------------
    def fault_events(self) -> list[TraceEvent]:
        return [e for e in self.events if e.kind == "fault"]

    @property
    def n_faults(self) -> int:
        return len(self.fault_events())

    @property
    def n_retries(self) -> int:
        return sum(1 for e in self.events if e.kind == "retry")

    @property
    def retry_backoff_seconds(self) -> float:
        """Total retry backoff the run waited through.

        On both engines this is *parked* time, not stalled time: the
        dispatch core sits the faulted grid on its timer wheel while
        every other grid keeps completing, so none of it is attributable
        to other workers.
        """
        return sum(
            float(e.data.get("backoff_seconds", 0.0))
            for e in self.events
            if e.kind == "retry"
        )

    @property
    def n_respawns(self) -> int:
        return sum(1 for e in self.events if e.kind == "respawn")

    @property
    def n_fallbacks(self) -> int:
        return sum(1 for e in self.events if e.kind == "fallback")

    @property
    def recovered_keys(self) -> set[tuple]:
        """Keys that faulted at least once but have a completed job."""
        completed = {j.key for j in self.jobs}
        return {e.key for e in self.fault_events() if e.key in completed}

    @property
    def fault_seconds_lost(self) -> float:
        """Seconds the lifted fault events report as lost work."""
        return sum(
            float(e.data.get("seconds_lost", 0.0)) for e in self.fault_events()
        )

    @property
    def replay_compute_seconds(self) -> float:
        """Compute spent on attempts past the first (replays, fallbacks)."""
        return sum(
            j.compute_seconds for j in self.jobs if j.attempt > 1 or j.fallback
        )

    @property
    def recovery_overhead_seconds(self) -> float:
        """Work the run paid *because* of faults: lost + replayed."""
        return self.fault_seconds_lost + self.replay_compute_seconds

    def _data_seconds(self, kind: str) -> float:
        return sum(
            float(e.data.get("seconds", 0.0))
            for e in self.events
            if e.kind == kind
        )

    # ------------------------------------------------------------------
    # network vs compute (the socket engine)
    # ------------------------------------------------------------------
    @property
    def net_send_seconds(self) -> float:
        """Master-side seconds spent writing frames to daemon sockets."""
        return self._data_seconds("net_send")

    @property
    def net_recv_seconds(self) -> float:
        """Master-side seconds spent reading frames off daemon sockets."""
        return self._data_seconds("net_recv")

    @property
    def network_seconds(self) -> float:
        """Total socket-transport seconds — the time the socket engine
        spends moving bytes, split out from the compute it carries."""
        return self.net_send_seconds + self.net_recv_seconds

    @property
    def network_bytes(self) -> int:
        """Framed bytes moved over daemon sockets, both directions."""
        return sum(
            int(e.data.get("frame_bytes", 0))
            for e in self.events
            if e.kind in ("net_send", "net_recv")
        )

    @property
    def n_reconnects(self) -> int:
        """Connections re-established after a drop or daemon death."""
        return sum(1 for e in self.events if e.kind == "reconnect")

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_span_nesting(self) -> list[tuple[str, float, float]]:
        """Validate ``span_begin``/``span_end`` pairing and nesting.

        Returns the completed ``(name, begin_t, end_t)`` spans; raises
        :class:`SpanNestingError` on an unbalanced or interleaved pair.
        """
        stacks: dict[object, list[TraceEvent]] = {}
        spans: list[tuple[str, float, float]] = []
        for event in self.events:
            if event.kind not in ("span_begin", "span_end"):
                continue
            lane = event.worker if event.worker is not None else MASTER_LANE
            stack = stacks.setdefault(lane, [])
            if event.kind == "span_begin":
                stack.append(event)
                continue
            if not stack:
                raise SpanNestingError(
                    f"span_end {event.data.get('span')!r} without a begin"
                )
            begin = stack.pop()
            if begin.data.get("span_id") != event.data.get("span_id"):
                raise SpanNestingError(
                    f"interleaved spans: begin {begin.data.get('span')!r} "
                    f"closed by end {event.data.get('span')!r}"
                )
            spans.append((str(begin.data.get("span")), begin.t, event.t))
        leftovers = [s for stack in stacks.values() for s in stack]
        if leftovers:
            raise SpanNestingError(
                "unclosed spans: "
                + ", ".join(repr(s.data.get("span")) for s in leftovers)
            )
        return spans

    # ------------------------------------------------------------------
    # report
    # ------------------------------------------------------------------
    def report_lines(self) -> list[str]:
        """The CLI's ``analyze-trace`` output."""
        lines = [
            f"trace: {len(self.events)} events, {len(self.jobs)} completed "
            f"job attempts over {self.elapsed_seconds:.3f}s",
        ]
        util = self.worker_utilization()
        for lane in sorted(util, key=str):
            busy = self.worker_busy_seconds()[lane]
            lines.append(
                f"  worker {lane}: utilization {util[lane]:.2f} "
                f"({busy:.3f}s busy)"
            )
        if util:
            lines.append(f"  mean utilization: {self.mean_utilization:.2f}")
        lines.append(
            f"queue wait {self.total_queue_wait_seconds:.3f}s vs compute "
            f"{self.total_compute_seconds:.3f}s"
        )
        chain = self.critical_path()
        if chain:
            path = " -> ".join(str(j.key) for j in chain)
            lines.append(
                f"critical path: {self.critical_path_seconds:.3f}s via "
                f"worker {chain[-1].worker}: {path}"
            )
        if self.n_faults:
            lines.append(
                f"recovery: {self.n_faults} faults, {self.n_retries} retries, "
                f"{self.n_respawns} respawns, {self.n_fallbacks} fallbacks; "
                f"overhead {self.recovery_overhead_seconds:.3f}s "
                f"({self.fault_seconds_lost:.3f}s lost + "
                f"{self.replay_compute_seconds:.3f}s replayed)"
            )
            if self.retry_backoff_seconds:
                lines.append(
                    f"  retry backoff: {self.retry_backoff_seconds:.3f}s "
                    f"parked on timers (healthy links kept completing)"
                )
        if self.network_seconds or self.n_reconnects:
            lines.append(
                f"network: {self.network_bytes} framed bytes over sockets; "
                f"{self.network_seconds:.3f}s "
                f"({self.net_send_seconds:.3f}s send + "
                f"{self.net_recv_seconds:.3f}s recv), "
                f"{self.n_reconnects} reconnect(s)"
            )
        return lines
