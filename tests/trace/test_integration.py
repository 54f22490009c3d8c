"""Tracing wired through the real execution layers.

These tests run the actual multiprocessing fan-out (plain and
fault-injected) and the MANIFOLD runtime with a recorder attached, then
assert the timeline's invariants: span nesting holds, serial worker
utilization stays <= 1, job spans cover every grid, and the recovery
picture agrees with the run's own FaultReport.
"""

from __future__ import annotations

import pytest

from repro.manifold import Runtime
from repro.manifold.events import Event, EventOccurrence
from repro.resilience import EscalationPolicy, RetryPolicy
from repro.restructured import run_multiprocessing
from repro.trace import (
    TraceAnalysis,
    TraceRecorder,
    read_jsonl,
    recording,
    write_jsonl,
)

LEVEL = 2
N_GRIDS = 2 * LEVEL + 1


@pytest.fixture(scope="module")
def traced_run():
    rec = TraceRecorder()
    result = run_multiprocessing(
        root=2, level=LEVEL, tol=1e-3, processes=2, trace=rec
    )
    return result, rec


@pytest.fixture(scope="module")
def traced_faulted_run():
    rec = TraceRecorder()
    result = run_multiprocessing(
        root=2, level=LEVEL, tol=1e-3, processes=2,
        faults="raise@1,1",
        escalation=EscalationPolicy(
            retry=RetryPolicy(backoff_seconds=0.0, jitter=0.0)
        ),
        trace=rec,
    )
    return result, rec


class TestPlainRunTrace:
    def test_every_grid_has_a_completed_job_span(self, traced_run):
        result, rec = traced_run
        analysis = TraceAnalysis(rec.events())
        assert {j.key for j in analysis.jobs} == set(result.payloads)

    def test_submit_start_done_ordering(self, traced_run):
        _, rec = traced_run
        analysis = TraceAnalysis(rec.events())
        for job in analysis.jobs:
            assert job.submit_t is not None
            assert job.submit_t <= job.start_t <= job.done_t

    def test_worker_pids_populate_lanes(self, traced_run):
        result, rec = traced_run
        analysis = TraceAnalysis(rec.events())
        pids = {p.worker_pid for p in result.payloads.values()}
        assert set(analysis.worker_utilization()) <= pids

    def test_serial_worker_utilization_at_most_one(self, traced_run):
        _, rec = traced_run
        util = TraceAnalysis(rec.events()).worker_utilization()
        for frac in util.values():
            assert frac <= 1.0 + 1e-9

    def test_span_nesting_holds(self, traced_run):
        _, rec = traced_run
        spans = TraceAnalysis(rec.events()).check_span_nesting()
        names = {name for name, _, _ in spans}
        assert {"fanout", "prolongation"} <= names

    def test_round_trip_preserves_analysis(self, traced_run, tmp_path):
        _, rec = traced_run
        path = tmp_path / "run.jsonl"
        write_jsonl(rec.events(), path)
        direct = TraceAnalysis(rec.events())
        reloaded = TraceAnalysis(read_jsonl(path))
        assert reloaded.worker_utilization() == direct.worker_utilization()
        assert (
            reloaded.critical_path_seconds == direct.critical_path_seconds
        )
        reloaded.check_span_nesting()

    def test_untraced_run_unaffected(self):
        result = run_multiprocessing(root=2, level=1, tol=1e-3, processes=2)
        assert len(result.payloads) == 3


class TestFaultedRunTrace:
    def test_fault_and_retry_events_present(self, traced_faulted_run):
        _, rec = traced_faulted_run
        analysis = TraceAnalysis(rec.events())
        assert analysis.n_faults >= 1
        assert analysis.n_retries >= 1

    def test_recovery_agrees_with_fault_report(self, traced_faulted_run):
        result, rec = traced_faulted_run
        analysis = TraceAnalysis(rec.events())
        report = result.fault_report
        assert analysis.n_faults == len(report.events)
        assert analysis.recovered_keys == set(report.recovered_keys)

    def test_replayed_attempt_traced(self, traced_faulted_run):
        _, rec = traced_faulted_run
        analysis = TraceAnalysis(rec.events())
        replays = [j for j in analysis.jobs if j.attempt > 1]
        assert any(j.key == (1, 1) for j in replays)
        assert analysis.recovery_overhead_seconds > 0.0

    def test_span_nesting_survives_faults(self, traced_faulted_run):
        _, rec = traced_faulted_run
        TraceAnalysis(rec.events()).check_span_nesting()

    def test_result_identical_to_fault_free(self, traced_faulted_run):
        import numpy as np

        result, _ = traced_faulted_run
        clean = run_multiprocessing(root=2, level=LEVEL, tol=1e-3, processes=2)
        assert np.array_equal(result.combined, clean.combined)


class TestManifoldTrace:
    def test_runtime_events_land_in_recorder(self):
        rec = TraceRecorder()
        with recording(rec):
            runtime = Runtime("traced")
            runtime.raise_event(Event("rendezvous"))
            runtime.raise_event(Event("death_worker"))
            runtime.raise_event(Event("custom_thing"))
            runtime.shutdown()
        kinds = [e.kind for e in rec.events()]
        assert "rendezvous" in kinds
        assert "death_worker" in kinds
        assert "manifold_event" in kinds

    def test_no_recorder_no_events(self):
        runtime = Runtime("untraced")
        runtime.raise_event(Event("rendezvous"))
        runtime.shutdown()  # nothing to assert beyond not raising
