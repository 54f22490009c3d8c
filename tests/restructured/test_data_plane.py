"""The shm data plane against the real pool: bitwise equality with the
pickle transport, streaming combination, and composition with the fault
ladder.

The acceptance invariant throughout: ``data_plane="shm"`` must produce
a combined solution *bitwise identical* to ``data_plane="pickle"`` —
with or without injected faults, with or without a pool respawn —
because the transport moves bytes, it does not do arithmetic.  The
streaming combiner preserves this by folding grids in an order fixed by
their keys, regardless of arrival order.

Cheap tests run at level 2-4 in tier-1; the level-6 equality sweep of
the issue's acceptance criterion is marked ``slow``.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.resilience import DeadlinePolicy, RetryPolicy
from repro.restructured import run_multiprocessing, shutdown_pool
from repro.trace import TraceAnalysis, TraceRecorder

LEVEL = 2
TOL = 1.0e-3


@pytest.fixture(autouse=True)
def fresh_pool_state():
    """Each test starts and ends without a shared pool."""
    shutdown_pool()
    yield
    shutdown_pool()


def _run(**kw):
    kw.setdefault("root", 2)
    kw.setdefault("level", LEVEL)
    kw.setdefault("tol", TOL)
    kw.setdefault("processes", 2)
    return run_multiprocessing(**kw)


@pytest.fixture(scope="module")
def pickle_combined():
    """The barriered pickle path's result — the equality reference."""
    result = run_multiprocessing(root=2, level=LEVEL, tol=TOL, processes=2)
    shutdown_pool()
    return result.combined


class TestBitwiseEquality:
    def test_shm_matches_pickle_bitwise(self, pickle_combined):
        result = _run(data_plane="shm")
        assert result.data_plane == "shm"
        assert np.array_equal(result.combined, pickle_combined)

    def test_every_payload_went_zero_copy(self):
        result = _run(data_plane="shm")
        assert result.shm_payloads == result.n_workers
        assert result.shm_fallbacks == 0
        assert result.transport_shm_bytes > 0
        assert result.transport_pickle_bytes == 0

    def test_audit_is_clean_on_the_fault_free_path(self):
        result = _run(data_plane="shm")
        audit = result.data_plane_audit
        assert audit is not None
        assert audit.clean
        assert audit.leases_issued == result.n_workers
        assert audit.released == result.n_workers
        assert audit.leaked == 0

    def test_cold_pool_matches_too(self, pickle_combined):
        result = _run(data_plane="shm", warm_pool=False)
        assert np.array_equal(result.combined, pickle_combined)
        assert result.data_plane_audit.clean

    def test_resilient_fault_free_matches(self, pickle_combined):
        result = _run(data_plane="shm", retry=RetryPolicy())
        assert result.faults == 0
        assert np.array_equal(result.combined, pickle_combined)

    def test_unknown_plane_is_rejected(self):
        with pytest.raises(ValueError, match="unknown data plane"):
            _run(data_plane="mmap")


class TestStreamingCombination:
    def test_streaming_overlaps_combination_with_subsolves(self):
        result = _run(data_plane="shm")
        assert result.streaming
        assert result.combine_seconds > 0
        # at least one chunk folded before the last arrival
        assert result.combine_overlap_seconds > 0
        assert 0 < result.overlap_ratio <= 1.0

    def test_pickle_plane_reports_no_overlap(self):
        result = _run()
        assert result.overlap_ratio == 0.0
        assert result.shm_payloads == 0
        assert result.transport_pickle_bytes > 0

    def test_trace_carries_the_transport_split(self):
        recorder = TraceRecorder()
        result = _run(data_plane="shm", trace=recorder)
        analysis = TraceAnalysis.from_recorder(recorder)
        assert analysis.n_shm_payloads == result.n_workers
        assert analysis.transport_bytes == result.transport_shm_bytes
        assert analysis.shm_write_seconds > 0
        assert analysis.combine_chunk_seconds > 0
        assert any("data plane" in line for line in analysis.report_lines())


class TestFaultComposition:
    def test_crash_recovery_is_bitwise_identical(self, pickle_combined):
        result = _run(
            data_plane="shm",
            faults="crash@2,0",
            retry=RetryPolicy(),
        )
        assert result.faults >= 1
        assert result.recovered >= 1
        assert np.array_equal(result.combined, pickle_combined)
        # the crashed attempt's lease was reaped, not leaked
        audit = result.data_plane_audit
        assert audit.reaped >= 1
        assert audit.leaked == 0

    def test_transient_raise_is_bitwise_identical(self, pickle_combined):
        result = _run(
            data_plane="shm",
            faults="raise@1,1",
            retry=RetryPolicy(),
        )
        assert result.faults >= 1
        assert np.array_equal(result.combined, pickle_combined)
        assert result.data_plane_audit.leaked == 0

    def test_respawn_bumps_the_generation_and_stays_identical(
        self, pickle_combined
    ):
        recorder = TraceRecorder()
        result = _run(
            data_plane="shm",
            faults="hang@2,0:seconds=30",
            retry=RetryPolicy(),
            deadline=DeadlinePolicy(floor_seconds=0.8, default_seconds=0.8),
            trace=recorder,
        )
        assert result.pool_respawns >= 1
        assert np.array_equal(result.combined, pickle_combined)
        assert result.data_plane_audit.leaked == 0
        reaped = [
            e for e in recorder.events() if e.kind == "segment_reaped"
        ]
        assert any(e.data.get("reason") == "generation" for e in reaped)

    def test_fallback_bypasses_the_plane_and_reclaims_the_wedge(
        self, pickle_combined
    ):
        """Regression: a hang that exhausts its retries escalates to the
        in-master sequential fallback.  The fallback payload must never
        touch the data plane, and the wedged worker's generation must be
        reclaimed *during* the run — before the fix its lease survived
        to close() (``reaped_late``) and the wedged process kept its shm
        attachment past the run."""
        from repro.resilience import EscalationPolicy

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = _run(
                data_plane="shm",
                # every attempt hangs -> retry, then FALLBACK
                faults="hang@1,1:attempt=*,seconds=120",
                escalation=EscalationPolicy(
                    retry=RetryPolicy(max_attempts=2, backoff_seconds=0.01),
                    deadline=DeadlinePolicy(
                        floor_seconds=1.0, default_seconds=2.0
                    ),
                ),
            )
        assert result.fallbacks == 1
        assert np.array_equal(result.combined, pickle_combined)
        audit = result.data_plane_audit
        assert audit.leaked == 0
        assert audit.reaped_late == 0  # the wedge was reclaimed in-run
        # the fallback grid went through the pickle path of the sink
        assert result.shm_fallbacks == 1

    def test_no_resource_warning_leaks_across_a_faulted_run(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            result = _run(
                data_plane="shm",
                faults="crash@2,0",
                retry=RetryPolicy(),
            )
            assert result.data_plane_audit.leaked == 0


@pytest.mark.slow
class TestLevelSixEquality:
    """The issue's acceptance sweep: identical up to level 6, including
    under fault injection and pool respawn."""

    def test_level_six_shm_matches_pickle(self):
        reference = _run(level=6, processes=4)
        shutdown_pool()
        result = _run(level=6, processes=4, data_plane="shm")
        assert np.array_equal(result.combined, reference.combined)
        assert result.shm_fallbacks == 0
        assert result.data_plane_audit.clean

    def test_level_six_with_crash_and_respawn_matches(self):
        reference = _run(level=6, processes=4)
        shutdown_pool()
        result = _run(
            level=6,
            processes=4,
            data_plane="shm",
            faults="crash@4,2;hang@3,3:seconds=60",
            retry=RetryPolicy(),
            deadline=DeadlinePolicy(floor_seconds=2.0, default_seconds=2.0),
        )
        assert result.faults >= 2
        assert np.array_equal(result.combined, reference.combined)
        assert result.data_plane_audit.leaked == 0
