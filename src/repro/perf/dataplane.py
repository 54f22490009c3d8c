"""The shared-memory arena: pooled blocks, leases, checksummed descriptors.

The arena moves arrays between processes of one machine without
pickling them.  Nothing in the package uses it any more: subsolve
*results* come home pickled, the one result transport
(``docs/performance.md``, "Result transport", records the measurement
that removed the second one), and the intra-grid strip team whose halo
vectors travelled through it is gone with the split layer
(``docs/performance.md``, "Below the grid").  The module stays, code
untouched, as the subject of the ``dataplane.*`` probes of
``benchmarks/e2e`` — the per-payload cost of the arena against a pickle
round trip — until ROADMAP 1(a) retires the probes and the module
together.

* the **owner** holds a :class:`DataPlane` — a small pooled arena of
  ``multiprocessing.shared_memory`` blocks.  :meth:`DataPlane.lease`
  hands out a :class:`ShmLease` naming a block of at least the asked
  size; released blocks return to the arena and are reused by later
  leases, so allocation is ``O(leases outstanding)``, not one segment
  per lease forever;
* a **writer** copies its array straight into the leased block (one
  ``memcpy``, :func:`write_through_lease`) and passes on only a
  lightweight :class:`ShmDescriptor` — name, shape, dtype, checksum,
  payload bytes.  The bulk data never crosses a pipe;
* the owner **attaches without a copy** (:meth:`DataPlane.attach`): it
  kept the creating handle, so consuming a descriptor is a checksum
  verification plus a NumPy view over the existing mapping — zero
  syscalls, zero copies; a process that does not own the plane reads a
  copy through :func:`read_descriptor`.

A descriptor that names an unknown or unleased segment, claims more
bytes than its block holds, or fails its checksum is *rejected* with
:class:`DataPlaneError`, never silently attached.

**Lifecycle.**  The plane owns its segments outright and
:meth:`DataPlane.close` — run on every exit path, success or fault
escalation or ``KeyboardInterrupt`` — unlinks every block and audits the
arena: leases still outstanding at close are *reaped late*, counted in
the :class:`DataPlaneAudit` and emitted as ``segment_reaped`` trace
events.  After ``close()`` the arena is provably empty (asserted), and
an ``atexit`` safety net closes any plane a crashed caller abandoned.
Forked children share one ``resource_tracker`` process, whose
registrations balance without manual bookkeeping (see :func:`_untrack`);
the creating registration stays in place as the unlink-of-last-resort
should the owner die before ``close()``.
"""

from __future__ import annotations

import atexit
import itertools
import os
import secrets
import threading
import weakref
import zlib
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Optional

import numpy as np

from repro.trace.recorder import emit as trace_emit

__all__ = [
    "DataPlaneError",
    "ShmLease",
    "ShmDescriptor",
    "DataPlaneAudit",
    "DataPlane",
    "write_through_lease",
    "read_descriptor",
]

#: segment capacities are rounded up to this granularity so released
#: blocks are reusable by any later grid of the same size class
_CAPACITY_QUANTUM = 4096


class DataPlaneError(RuntimeError):
    """A descriptor could not be honoured (unknown segment, size
    overflow, checksum mismatch)."""


@dataclass(frozen=True)
class ShmLease:
    """What a writer is handed: where to put its array.

    Deliberately tiny and picklable — it rides inside a child's start-up
    arguments.
    """

    name: str
    nbytes: int


@dataclass(frozen=True)
class ShmDescriptor:
    """What a writer passes on instead of the array itself."""

    name: str
    shape: tuple
    dtype: str
    checksum: int
    payload_bytes: int


@dataclass(frozen=True)
class DataPlaneAudit:
    """What :meth:`DataPlane.close` found and did."""

    #: distinct shared-memory blocks ever created by this plane
    segments_created: int
    #: leases handed out over the plane's lifetime
    leases_issued: int
    #: leases consumed and returned cleanly (attach + release)
    released: int
    #: leases still outstanding when ``close()`` ran (reaped late)
    reaped_late: int
    #: blocks still registered after close — zero by construction
    leaked: int

    @property
    def clean(self) -> bool:
        """No segment needed reaping."""
        return self.reaped_late == 0


@dataclass
class _Segment:
    """Master-side state of one arena block."""

    shm: shared_memory.SharedMemory
    capacity: int
    leased: bool = False
    key: Optional[tuple] = None


def _untrack(shm: shared_memory.SharedMemory) -> None:
    """Drop the resource tracker's claim on an already-gone segment.

    Only used when ``unlink()`` found the name already removed: CPython
    unregisters *after* a successful ``shm_unlink``, so the
    ``FileNotFoundError`` path would leave a dangling tracker entry (and
    a bogus leak warning at exit) unless it is cancelled by hand.  The
    regular paths never touch the tracker: forked children share one
    tracker process whose per-name cache is a set, so the creating
    register, the no-op re-register of each child attach, and the
    single unregister inside ``unlink()`` balance exactly — and the
    registration doubles as the unlink-of-last-resort should the owner
    die before :meth:`DataPlane.close`.
    """
    try:
        resource_tracker.unregister(
            getattr(shm, "_name", shm.name), "shared_memory"
        )
    except Exception:  # pragma: no cover - tracker not running
        pass


#: how much of each payload edge the checksum samples
_CHECKSUM_PAGE = 4096


def _checksum(buf) -> int:
    """Adler-32 over the payload's first and last pages, seeded with its
    length.

    A full-buffer digest would cost more than the ``memcpy`` it guards
    (adler32 runs at ~2 GB/s, the copy at ~10).  Sampling the two edge
    pages plus the length is O(8 KiB) whatever the payload size and
    still catches the realistic failure modes — truncation, a vanished
    or re-leased segment, a write torn at page granularity — which is
    what the check is for; bit-level integrity inside one mapped page is
    the kernel's contract, not the transport's.
    """
    view = memoryview(buf)
    n = len(view)
    checksum = zlib.adler32(view[:_CHECKSUM_PAGE], n & 0xFFFFFFFF)
    if n > _CHECKSUM_PAGE:
        checksum = zlib.adler32(view[n - _CHECKSUM_PAGE :], checksum)
    return checksum


#: planes that still need closing at interpreter exit (safety net for
#: callers that died before their ``finally``)
_open_planes: "weakref.WeakSet[DataPlane]" = weakref.WeakSet()


def _close_abandoned_planes() -> None:  # pragma: no cover - atexit path
    for plane in list(_open_planes):
        plane.close()


atexit.register(_close_abandoned_planes)


class DataPlane:
    """The owner-side arena of pooled shm blocks."""

    _instance_ids = itertools.count(1)

    def __init__(self) -> None:
        # the tracker must exist before any child forks: children that
        # inherit a live tracker share its (set-semantics) name cache,
        # so their attach re-registrations are no-ops; a child forced to
        # spawn its own tracker would report phantom leaks at exit
        resource_tracker.ensure_running()
        self._lock = threading.RLock()
        self._segments: dict[str, _Segment] = {}
        self._prefix = (
            f"repro-dp-{os.getpid()}-{next(self._instance_ids)}-"
            f"{secrets.token_hex(3)}"
        )
        self._counter = itertools.count(1)
        self.closed = False
        # audit counters
        self.segments_created = 0
        self.leases_issued = 0
        self.released_count = 0
        self.reaped_late_count = 0
        _open_planes.add(self)

    # ------------------------------------------------------------------
    # leasing
    # ------------------------------------------------------------------
    def lease(self, key: tuple, nbytes: int) -> ShmLease:
        """Lease a block of at least ``nbytes``, labelled ``key``.

        Reuses the smallest free pooled block that fits; creates a new
        one only when none does.
        """
        if nbytes <= 0:
            raise ValueError(f"nbytes must be positive, got {nbytes}")
        with self._lock:
            self._require_open()
            fit: Optional[_Segment] = None
            for segment in self._segments.values():
                if segment.leased or segment.capacity < nbytes:
                    continue
                if fit is None or segment.capacity < fit.capacity:
                    fit = segment
            if fit is None:
                fit = self._create_segment(nbytes)
            fit.leased = True
            fit.key = tuple(key)
            self.leases_issued += 1
            return ShmLease(name=fit.shm.name, nbytes=fit.capacity)

    def _create_segment(self, nbytes: int) -> _Segment:
        capacity = -(-nbytes // _CAPACITY_QUANTUM) * _CAPACITY_QUANTUM
        name = f"{self._prefix}-{next(self._counter)}"
        shm = shared_memory.SharedMemory(name=name, create=True, size=capacity)
        segment = _Segment(shm=shm, capacity=capacity)
        self._segments[shm.name] = segment
        self.segments_created += 1
        return segment

    def _require_open(self) -> None:
        if self.closed:
            raise DataPlaneError("data plane has been closed")

    # ------------------------------------------------------------------
    # consuming descriptors
    # ------------------------------------------------------------------
    def attach(self, descriptor: ShmDescriptor) -> np.ndarray:
        """A zero-copy NumPy view over the descriptor's payload.

        Verifies the segment, the claimed size and the checksum before
        exposing the data.  The caller must drop the view before
        :meth:`release`-ing or closing.
        """
        with self._lock:
            self._require_open()
            segment = self._segments.get(descriptor.name)
            if segment is None or not segment.leased:
                raise DataPlaneError(
                    f"descriptor names unknown or unleased segment "
                    f"{descriptor.name!r}"
                )
            if descriptor.payload_bytes > segment.capacity:
                raise DataPlaneError(
                    f"descriptor claims {descriptor.payload_bytes} bytes in "
                    f"a {segment.capacity}-byte segment"
                )
            buf = segment.shm.buf[: descriptor.payload_bytes]
            if _checksum(buf) != descriptor.checksum:
                del buf
                raise DataPlaneError(
                    f"checksum mismatch on segment {descriptor.name!r} "
                    f"(grid {segment.key}): torn or foreign write"
                )
            return np.ndarray(
                descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=buf
            )

    def release(self, name: str) -> None:
        """Return a consumed lease's block to the free pool."""
        with self._lock:
            segment = self._segments.get(name)
            if segment is not None and segment.leased:
                segment.leased = False
                segment.key = None
                self.released_count += 1

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def outstanding(self) -> int:
        """Leases issued and not yet released."""
        with self._lock:
            return sum(1 for s in self._segments.values() if s.leased)

    def close(self) -> DataPlaneAudit:
        """Unlink every block and audit the arena; idempotent.

        Runs on every exit path.  Leases still outstanding here were
        leaked by their holders (crash mid-run, KeyboardInterrupt): they
        are reaped late — counted, trace-emitted — and their blocks
        unlinked like all others, so nothing survives in ``/dev/shm``.
        The zero-leak guarantee is asserted, not hoped for.
        """
        with self._lock:
            if self.closed:
                return self.audit()
            self.closed = True
            segments = list(self._segments.items())
            self._segments.clear()
        for name, segment in segments:
            if segment.leased:
                self.reaped_late_count += 1
                trace_emit(
                    "segment_reaped",
                    key=segment.key,
                    segment=name,
                    reason="close",
                    late=True,
                )
            try:
                segment.shm.close()
            except BufferError:  # pragma: no cover - a view outlived us
                pass
            try:
                segment.shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                # unlink() unregisters only after a successful removal;
                # cancel the claim by hand so the tracker does not report
                # a phantom leak at exit
                _untrack(segment.shm)
        _open_planes.discard(self)
        assert not self._segments, "data plane closed with live segments"
        return self.audit()

    def audit(self) -> DataPlaneAudit:
        """The arena's bookkeeping as one record."""
        with self._lock:
            return DataPlaneAudit(
                segments_created=self.segments_created,
                leases_issued=self.leases_issued,
                released=self.released_count,
                reaped_late=self.reaped_late_count,
                leaked=len(self._segments) if self.closed else 0,
            )

    def __enter__(self) -> "DataPlane":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# the writer-side half
# ----------------------------------------------------------------------
#: writer-side cache of attached segments.  The arena reuses block
#: names across jobs, so re-``mmap``-ing a block per write — and soft-
#: faulting every one of its pages again — would cost more than the
#: copy it carries; a cached mapping pays that once per (process,
#: segment).  Safe because segment names are globally unique (pid +
#: instance + random token + counter): a cached mapping can never alias
#: a different block.  Bounded FIFO so a long-lived worker cannot
#: accumulate mappings without limit.
_writer_mappings: dict[str, shared_memory.SharedMemory] = {}
_WRITER_MAPPING_CAP = 64


def _writer_segment(name: str) -> shared_memory.SharedMemory:
    shm = _writer_mappings.get(name)
    if shm is None:
        shm = shared_memory.SharedMemory(name=name)
        while len(_writer_mappings) >= _WRITER_MAPPING_CAP:
            _writer_mappings.pop(next(iter(_writer_mappings))).close()
        _writer_mappings[name] = shm
    return shm


def _close_writer_mappings() -> None:
    """Drop every cached writer mapping (atexit tidy-up; also lets the
    leak-check tests start from a clean slate)."""
    while _writer_mappings:
        _writer_mappings.popitem()[1].close()


atexit.register(_close_writer_mappings)


def write_through_lease(lease: ShmLease, array) -> Optional[ShmDescriptor]:
    """Write ``array`` into the leased block; return its descriptor.

    Returns ``None`` when the hand-off is impossible — the array is
    empty, outgrew its lease, or the segment vanished — and writes
    nothing; the caller decides what that means for it.
    """
    data = np.ascontiguousarray(array)
    if data.nbytes > lease.nbytes or data.nbytes == 0:
        return None
    try:
        shm = _writer_segment(lease.name)
    except (FileNotFoundError, OSError):
        return None
    view = np.ndarray(data.shape, dtype=data.dtype, buffer=shm.buf)
    np.copyto(view, data)
    del view
    buf = shm.buf[: data.nbytes]
    checksum = _checksum(buf)
    del buf
    return ShmDescriptor(
        name=lease.name,
        shape=tuple(data.shape),
        dtype=str(data.dtype),
        checksum=checksum,
        payload_bytes=data.nbytes,
    )


def read_descriptor(descriptor: ShmDescriptor) -> np.ndarray:
    """Peer-side read of a descriptor written by *another* process.

    The plane's owner can consume descriptors through
    :meth:`DataPlane.attach` (it holds the creating handle); this is the
    mirror for processes that do *not* own the plane — the strip-team
    children reading master-written halo/interface vectors.  Uses the
    same cached writer mapping as :func:`write_through_lease`, verifies
    the checksum, and returns a *copy* (the block is about to be
    rewritten by the next exchange; the reader must not hold a view).
    """
    shm = _writer_segment(descriptor.name)
    if descriptor.payload_bytes > shm.size:
        raise DataPlaneError(
            f"descriptor claims {descriptor.payload_bytes} bytes in a "
            f"{shm.size}-byte segment {descriptor.name!r}"
        )
    buf = shm.buf[: descriptor.payload_bytes]
    if _checksum(buf) != descriptor.checksum:
        del buf
        raise DataPlaneError(
            f"checksum mismatch reading segment {descriptor.name!r}"
        )
    view = np.ndarray(
        descriptor.shape, dtype=np.dtype(descriptor.dtype), buffer=buf
    )
    out = view.copy()
    del view, buf
    return out
