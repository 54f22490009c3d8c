"""Retry/deadline/escalation policies and the structured fault record."""

from __future__ import annotations

import pytest

from repro.resilience import (
    DeadlinePolicy,
    EscalationPolicy,
    EscalationStep,
    FaultEvent,
    FaultLog,
    FaultReport,
    FaultToleranceExhausted,
    RetryPolicy,
    deterministic_fraction,
)


class TestDeterministicFraction:
    def test_in_unit_interval_and_reproducible(self):
        a = deterministic_fraction(0, (3, 2), 1)
        b = deterministic_fraction(0, (3, 2), 1)
        assert 0.0 <= a < 1.0
        assert a == b

    def test_distinct_inputs_give_distinct_draws(self):
        draws = {deterministic_fraction(0, k, 1) for k in range(50)}
        assert len(draws) == 50


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay_seconds(0)

    def test_backoff_grows_exponentially_up_to_cap(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_factor=2.0,
            max_backoff_seconds=0.3, jitter=0.0,
        )
        assert policy.delay_seconds(1) == pytest.approx(0.1)
        assert policy.delay_seconds(2) == pytest.approx(0.2)
        assert policy.delay_seconds(3) == pytest.approx(0.3)  # capped
        assert policy.delay_seconds(9) == pytest.approx(0.3)

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_seconds=1.0, jitter=0.25)
        d1 = policy.delay_seconds(1, key=(3, 2))
        d2 = policy.delay_seconds(1, key=(3, 2))
        assert d1 == d2
        assert 0.75 <= d1 <= 1.25
        # a different key jitters differently
        assert d1 != policy.delay_seconds(1, key=(2, 3))


class TestDeadlinePolicy:
    def test_scales_with_prediction_above_floor(self):
        policy = DeadlinePolicy(factor=8.0, floor_seconds=2.0)
        assert policy.deadline_seconds(10.0) == pytest.approx(80.0)
        assert policy.deadline_seconds(0.001) == pytest.approx(2.0)

    def test_default_without_prediction(self):
        policy = DeadlinePolicy(default_seconds=60.0, floor_seconds=2.0)
        assert policy.deadline_seconds(None) == pytest.approx(60.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DeadlinePolicy(factor=0.0)
        with pytest.raises(ValueError):
            DeadlinePolicy(floor_seconds=0.0)


class _Stall:
    """Duck-typed stand-in for a watchdog StallReport."""

    def __init__(self, seconds: float) -> None:
        self.stalled_for_seconds = seconds
        self.live_processes = ("Master", "Worker-1")

    def describe(self) -> str:
        return f"stalled {self.stalled_for_seconds:.1f}s"


class TestDeadlinePolicyStallBridge:
    def test_short_stalls_filtered_out(self):
        policy = DeadlinePolicy(floor_seconds=2.0)
        assert FaultReport(events=tuple(policy.stall_events([_Stall(0.5)]))).events == ()

    def test_qualifying_stall_becomes_fault_report(self):
        policy = DeadlinePolicy(floor_seconds=2.0)
        report = FaultReport(
            events=tuple(policy.stall_events([_Stall(0.5), _Stall(5.0)]))
        )
        assert isinstance(report, FaultReport)
        assert report.faults == 1
        event = report.events[0]
        assert event.kind == "stall"
        assert event.detected_by == "watchdog"
        assert event.seconds_lost == pytest.approx(5.0)
        assert "stalled 5.0s" in event.error


class TestEscalationPolicy:
    def test_transient_faults_retry_in_place(self):
        policy = EscalationPolicy(retry=RetryPolicy(max_attempts=3))
        assert policy.decide(1, "exception") is EscalationStep.RETRY
        assert policy.decide(2, "exception") is EscalationStep.RETRY

    def test_worker_loss_reassigns(self):
        policy = EscalationPolicy(retry=RetryPolicy(max_attempts=3))
        for kind in ("crash", "hang", "deadline", "death_worker"):
            assert policy.decide(1, kind) is EscalationStep.REASSIGN

    def test_exhausted_attempts_fall_back_then_fail(self):
        policy = EscalationPolicy(retry=RetryPolicy(max_attempts=2))
        assert policy.decide(2, "crash") is EscalationStep.FALLBACK
        strict = EscalationPolicy(
            retry=RetryPolicy(max_attempts=2), sequential_fallback=False
        )
        assert strict.decide(2, "crash") is EscalationStep.FAIL


class TestFaultRecord:
    def _event(self, **kw) -> FaultEvent:
        base = dict(
            key=(3, 2), kind="crash", attempt=1,
            action="reassign", detected_by="liveness",
        )
        base.update(kw)
        return FaultEvent(**base)

    def test_event_describe_names_everything(self):
        text = self._event(error="pid 42 died").describe()
        assert "crash" in text and "(3, 2)" in text
        assert "reassign" in text and "pid 42 died" in text

    def test_log_is_ordered_and_reportable(self):
        log = FaultLog()
        log.record(self._event(attempt=1))
        log.record(self._event(attempt=2, kind="deadline"))
        assert len(log) == 2
        report = log.report(recovered_keys=[(3, 2)])
        assert report.faults == 2
        assert report.recovered == 1
        assert report.survived
        assert [e.attempt for e in report.events] == [1, 2]

    def test_exhaustion_carries_the_report(self):
        report = FaultReport(
            events=(self._event(action="fail"),), failed_key=(3, 2)
        )
        exc = FaultToleranceExhausted(report)
        assert exc.report is report
        assert not report.survived
        assert "crash" in str(exc)

    def test_report_describe_has_summary_line(self):
        report = FaultReport(
            events=(self._event(),), recovered_keys=((3, 2),)
        )
        lines = report.lines()
        assert "faults: 1" in lines[0]
        assert "recovered: 1" in lines[0]
        assert len(lines) == 2
