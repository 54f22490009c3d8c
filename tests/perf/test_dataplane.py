"""Unit tests of the shared-memory arena.

The arena, lease, descriptor and audit mechanics in isolation; no run
uses the arena, its other caller is the ``dataplane.*`` probes of
``benchmarks/e2e``.
"""

from __future__ import annotations

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.perf.dataplane import (
    DataPlane,
    DataPlaneError,
    ShmDescriptor,
    _CAPACITY_QUANTUM,
    write_through_lease,
)
from repro.trace import TraceRecorder
from repro.trace.recorder import recording


@pytest.fixture
def plane():
    p = DataPlane()
    yield p
    p.close()


def _round_trip(plane, key, array):
    lease = plane.lease(key, array.nbytes)
    descriptor = write_through_lease(lease, array)
    assert descriptor is not None
    return lease, descriptor


class TestLeaseAndAttach:
    def test_round_trip_is_bitwise_exact(self, plane):
        array = np.linspace(-3.0, 7.0, 1234).reshape(2, 617)
        _, descriptor = _round_trip(plane, (1, 1), array)
        view = plane.attach(descriptor)
        assert np.array_equal(view, array)
        assert view.dtype == array.dtype

    def test_attach_is_zero_copy(self, plane):
        array = np.arange(64, dtype=np.float64)
        lease, descriptor = _round_trip(plane, (1, 1), array)
        view = plane.attach(descriptor)
        segment = plane._segments[lease.name]
        assert np.shares_memory(
            view, np.ndarray(view.shape, view.dtype, buffer=segment.shm.buf)
        )

    def test_capacity_rounds_to_quantum(self, plane):
        lease = plane.lease((1, 1), 10)
        assert lease.nbytes == _CAPACITY_QUANTUM
        assert plane.lease((1, 2), _CAPACITY_QUANTUM + 1).nbytes == (
            2 * _CAPACITY_QUANTUM
        )

    def test_released_block_is_reused_not_reallocated(self, plane):
        array = np.arange(16, dtype=np.float64)
        lease, descriptor = _round_trip(plane, (1, 1), array)
        plane.attach(descriptor)
        plane.release(lease.name)
        again = plane.lease((2, 2), array.nbytes)
        assert again.name == lease.name
        assert plane.segments_created == 1
        assert plane.leases_issued == 2

    def test_smallest_fit_wins(self, plane):
        small = plane.lease((1, 1), 8)
        big = plane.lease((2, 2), 10 * _CAPACITY_QUANTUM)
        plane.release(small.name)
        plane.release(big.name)
        assert plane.lease((3, 3), 8).name == small.name

    def test_lease_rejects_nonpositive_size(self, plane):
        with pytest.raises(ValueError, match="positive"):
            plane.lease((1, 1), 0)


class TestRejection:
    def test_unknown_segment_is_rejected(self, plane):
        descriptor = ShmDescriptor(
            name="repro-dp-nowhere", shape=(1,), dtype="float64",
            checksum=0, payload_bytes=8,
        )
        with pytest.raises(DataPlaneError, match="unknown"):
            plane.attach(descriptor)

    def test_released_lease_is_no_longer_attachable(self, plane):
        array = np.arange(8, dtype=np.float64)
        lease, descriptor = _round_trip(plane, (1, 1), array)
        plane.release(lease.name)
        with pytest.raises(DataPlaneError, match="unleased"):
            plane.attach(descriptor)

    def test_oversized_claim_is_rejected(self, plane):
        array = np.arange(8, dtype=np.float64)
        _, descriptor = _round_trip(plane, (1, 1), array)
        huge = replace(descriptor, payload_bytes=10 * _CAPACITY_QUANTUM)
        with pytest.raises(DataPlaneError, match="bytes"):
            plane.attach(huge)

    def test_torn_write_fails_the_checksum(self, plane):
        array = np.arange(512, dtype=np.float64)
        lease, descriptor = _round_trip(plane, (1, 1), array)
        segment = plane._segments[lease.name]
        segment.shm.buf[3] ^= 0xFF  # scribble into the payload head
        with pytest.raises(DataPlaneError, match="checksum"):
            plane.attach(descriptor)

    def test_closed_plane_refuses_everything(self):
        plane = DataPlane()
        plane.close()
        with pytest.raises(DataPlaneError, match="closed"):
            plane.lease((1, 1), 8)


class TestWorkerSideFallback:
    def test_oversized_payload_falls_back_to_pickle(self, plane):
        lease = plane.lease((1, 1), 8)
        descriptor = write_through_lease(
            lease, np.arange(2 * _CAPACITY_QUANTUM, dtype=np.float64)
        )
        assert descriptor is None

    def test_empty_payload_falls_back(self, plane):
        lease = plane.lease((1, 1), 8)
        assert write_through_lease(lease, np.empty((0,))) is None

    def test_vanished_segment_falls_back(self, plane):
        lease = plane.lease((1, 1), 8)
        gone = replace(lease, name="repro-dp-vanished")
        assert write_through_lease(gone, np.arange(1, dtype=np.float64)) is None


class TestCloseAudit:
    def test_clean_run_audits_clean(self):
        plane = DataPlane()
        array = np.arange(8, dtype=np.float64)
        lease, descriptor = _round_trip(plane, (1, 1), array)
        plane.attach(descriptor)
        plane.release(lease.name)
        audit = plane.close()
        assert audit.clean
        assert audit.segments_created == 1
        assert audit.leases_issued == 1
        assert audit.released == 1
        assert audit.reaped_late == audit.leaked == 0

    def test_outstanding_lease_is_reaped_late_and_traced(self):
        plane = DataPlane()
        plane.lease((3, 1), 8)
        recorder = TraceRecorder()
        with recording(recorder):
            audit = plane.close()
        assert audit.reaped_late == 1
        assert audit.leaked == 0
        assert not audit.clean
        reaps = [e for e in recorder.events() if e.kind == "segment_reaped"]
        assert reaps and reaps[0].data["late"] is True
        assert reaps[0].data["reason"] == "close"

    def test_close_is_idempotent(self):
        plane = DataPlane()
        plane.lease((1, 1), 8)
        first = plane.close()
        assert plane.close() == first

    def test_context_manager_closes(self):
        with DataPlane() as plane:
            plane.lease((1, 1), 8)
        assert plane.closed

    def test_no_resource_warnings_on_a_full_cycle(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with DataPlane() as plane:
                array = np.arange(256, dtype=np.float64)
                lease, descriptor = _round_trip(plane, (1, 1), array)
                view = plane.attach(descriptor)
                assert view.sum() == array.sum()
                del view
                plane.release(lease.name)
