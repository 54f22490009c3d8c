"""Watchdog stalls feeding :class:`~repro.resilience.DeadlinePolicy`.

Satellite of the fault-tolerance issue: a stalled scheduler must
surface as a structured :class:`~repro.resilience.FaultReport` through
the same policy layer the pool path uses — not as a silent hang.
"""

from __future__ import annotations

from repro.manifold import make_void
from repro.manifold.watchdog import StallReport, Watchdog
from repro.resilience import DeadlinePolicy, FaultLog, FaultReport
from tests.manifold.test_watchdog import run_hung


class TestStallToFaultReport:
    def test_stalled_scheduler_becomes_structured_report(self, runtime):
        make_void(runtime)  # alive and forever silent: a stalled run
        reports: list[StallReport] = []
        with Watchdog(runtime, timeout=0.2, on_stall=reports.append):
            run_hung(runtime, 0.6)
        assert reports, "the stall was not detected"

        policy = DeadlinePolicy(floor_seconds=0.1)
        fault_report = FaultReport(events=tuple(policy.stall_events(reports)))
        assert isinstance(fault_report, FaultReport)
        assert fault_report.faults == len(reports)
        event = fault_report.events[0]
        assert event.kind == "stall"
        assert event.detected_by == "watchdog"
        assert event.action == "report"
        # the watchdog's evidence is preserved verbatim
        assert "no coordination activity" in event.error
        assert any("void" in str(k) for k in event.key)
        assert event.seconds_lost >= 0.2

    def test_sub_floor_stalls_do_not_qualify(self, runtime):
        make_void(runtime)
        reports: list[StallReport] = []
        with Watchdog(runtime, timeout=0.2, on_stall=reports.append):
            run_hung(runtime, 0.6)
        assert reports
        # a floor above the observed stall filters everything out
        tall = DeadlinePolicy(floor_seconds=3600.0)
        assert FaultReport(events=tuple(tall.stall_events(reports))).events == ()

    def test_stall_events_flow_into_a_shared_fault_log(self, runtime):
        make_void(runtime)
        with Watchdog(runtime, timeout=0.2) as dog:
            run_hung(runtime, 0.6)
            stalls = dog.reports()
        assert stalls

        log = FaultLog()
        for event in DeadlinePolicy(floor_seconds=0.1).stall_events(stalls):
            log.record(event)
        assert len(log) == len(stalls)
        assert log.report().survived  # reported, not fatal
