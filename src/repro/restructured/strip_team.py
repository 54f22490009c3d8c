"""A process team running one grid's strips over the shared-memory arena.

The serial and thread executors in :mod:`repro.sparsegrid.decompose`
keep the strips in one address space; this module is the *distributed*
variant: one forked child per strip, halo and interface vectors moving
through a :class:`~repro.perf.dataplane.DataPlane` — of which this team
is the only consumer — instead of pickles, and the fault ladder's
discipline applied at strip granularity — a lost strip is re-dispatched
like a lost subsolve (strip leases belong to the team, stay leased
across the respawn, and the replacement child simply attaches the same
blocks).

Wire protocol per strip (all leases from the master's plane, written
with :func:`~repro.perf.dataplane.write_through_lease` and read with
:meth:`~repro.perf.dataplane.DataPlane.attach` /
:func:`~repro.perf.dataplane.read_descriptor`):

======== ======== ==============================================
lease    writer   payload
======== ======== ==============================================
``f``    master   the strip's right-hand-side slice (forward)
``xg``   master   the strip's interface solution slice (backward)
``halo`` child    the strip's interface contribution ``A_gs y``
``x``    child    the strip solution slice
``piece``child    the strip's dense Schur piece (prepare)
======== ======== ==============================================

Only tiny command tuples and :class:`ShmDescriptor` records cross the
pipes; the vectors never do.

**Determinism & recovery.**  Each child is a pure function of
``(blocks, h, f)``: respawning one and replaying ``prepare(current_h)``
plus the in-flight operation reproduces bit-identical results, so a
crash-mid-strip run matches the fault-free run exactly — the chaos test
asserts this.  ``fault_injections={strip_id: die_after}`` makes child
``strip_id`` call ``os._exit`` *before* executing its ``die_after``-th
operation, which is how the tests schedule deterministic crashes.
"""

from __future__ import annotations

import os
import pickle
import time
from multiprocessing import Pipe, Process, connection
from typing import Optional, Sequence

import numpy as np

from repro.perf.dataplane import (
    DataPlane,
    ShmDescriptor,
    ShmLease,
    read_descriptor,
    write_through_lease,
)
from repro.trace.recorder import emit as trace_emit

__all__ = ["StripProcessTeam", "StripTeamError"]

#: overall deadline for one team operation (generous: covers a respawn
#: plus a full factorization on the largest grids)
_OP_DEADLINE_SECONDS = 120.0


class StripTeamError(RuntimeError):
    """The team could not complete an operation (deadline, repeated
    child deaths, protocol violation)."""


def _child_main(
    strip_id: int,
    conn: connection.Connection,
    blocks_blob: bytes,
    gamma: float,
    leases: dict,
    die_after: Optional[int],
) -> None:
    """The strip child's command loop (runs in the forked process).

    ``blocks_blob`` carries the strip's sparse blocks (pickled once at
    spawn); factors for recent ``h`` values are kept in a small local
    cache so hold-band oscillation does not refactor.
    """
    import scipy.sparse as sp

    from repro.sparsegrid.linsolve import factorize

    J_ss, B, C, _cols = pickle.loads(blocks_blob)
    n = J_ss.shape[0]
    identity = sp.identity(n, format="csc")
    factors: dict[float, tuple] = {}  # h -> (lu, W, piece)
    current: Optional[tuple] = None
    current_h: Optional[float] = None
    y: Optional[np.ndarray] = None
    ops_done = 0
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            break
        cmd = msg[0]
        if cmd == "exit":
            break
        if die_after is not None and ops_done >= die_after:
            os._exit(17)
        ops_done += 1
        started = time.perf_counter()
        if cmd == "prepare":
            h = msg[1]
            entry = factors.get(h)
            fresh = entry is None
            if fresh:
                scale = -gamma * h
                lu = factorize(identity - (gamma * h) * J_ss)
                W = np.atleast_2d(
                    np.asarray(lu.solve(scale * np.asarray(B.todense())))
                )
                if W.shape[0] != n:  # pragma: no cover - 1-col edge
                    W = W.reshape(n, -1)
                piece = scale * np.asarray(C @ W)
                entry = (lu, W, piece)
                while len(factors) >= 4:
                    factors.pop(next(iter(factors)))
                factors[h] = entry
            current = entry
            current_h = h
            descriptor = write_through_lease(leases["piece"], entry[2])
            conn.send(
                ("piece", descriptor, time.perf_counter() - started, fresh)
            )
        elif cmd == "forward":
            f_descriptor = msg[1]
            f_s = read_descriptor(f_descriptor)
            lu = current[0]
            y = lu.solve(f_s)
            halo = (-gamma * current_h) * (C @ y)
            descriptor = write_through_lease(leases["halo"], halo)
            conn.send(("halo", descriptor, time.perf_counter() - started))
        elif cmd == "backward":
            xg_descriptor = msg[1]
            xg_sub = read_descriptor(xg_descriptor)
            x = y - current[1] @ xg_sub
            descriptor = write_through_lease(leases["x"], x)
            conn.send(("x", descriptor, time.perf_counter() - started))
        else:  # pragma: no cover - protocol violation
            conn.send(("error", f"unknown command {cmd!r}"))
    conn.close()


class StripProcessTeam:
    """A strip executor backed by one forked child per strip.

    Satisfies the executor protocol of
    :class:`~repro.sparsegrid.decompose.SchurSplitSolver`
    (``start``/``prepare``/``forward``/``backward``/``close`` plus a
    ``respawns`` counter).  The team owns its plane and closes it
    (with the usual zero-leak audit) on :meth:`close`.
    """

    kind = "team"

    def __init__(
        self,
        *,
        fault_injections: Optional[dict[int, int]] = None,
        op_deadline: float = _OP_DEADLINE_SECONDS,
    ) -> None:
        self.plane = DataPlane()
        self.fault_injections = dict(fault_injections or {})
        self.op_deadline = op_deadline
        self.respawns = 0
        self.trace_key: Optional[tuple] = None
        self._children: list[Optional[Process]] = []
        self._conns: list[Optional[connection.Connection]] = []
        self._blobs: list[bytes] = []
        self._leases: list[dict[str, ShmLease]] = []
        self._gamma: Optional[float] = None
        self._current_h: Optional[float] = None
        #: last rhs slices sent, retained for crash replay
        self._last_f: list[Optional[np.ndarray]] = []
        self._in_backward: list[bool] = []
        self._closed = False

    # ------------------------------------------------------------------
    def start(self, workers: Sequence) -> None:
        self._workers_meta = []
        for w in workers:
            blob = pickle.dumps(
                (w.J_ss, w.B, w.C, w.cols), protocol=pickle.HIGHEST_PROTOCOL
            )
            self._blobs.append(blob)
            g = w.C.shape[0]
            c_s = int(w.cols.size)
            leases = {
                "f": self.plane.lease(("strip", w.strip_id, "f"), w.n * 8),
                "halo": self.plane.lease(
                    ("strip", w.strip_id, "halo"), max(1, g) * 8
                ),
                "xg": self.plane.lease(
                    ("strip", w.strip_id, "xg"), max(1, c_s) * 8
                ),
                "x": self.plane.lease(("strip", w.strip_id, "x"), w.n * 8),
                "piece": self.plane.lease(
                    ("strip", w.strip_id, "piece"), max(1, g * c_s) * 8
                ),
            }
            self._leases.append(leases)
            self._gamma = w.gamma
            self._last_f.append(None)
            self._in_backward.append(False)
            self._children.append(None)
            self._conns.append(None)
            self._spawn(w.strip_id, fresh=False)

    def _spawn(self, strip_id: int, *, fresh: bool) -> None:
        """Fork (or re-fork) the child for ``strip_id``."""
        parent_conn, child_conn = Pipe()
        die_after = None if fresh else self.fault_injections.get(strip_id)
        child = Process(
            target=_child_main,
            args=(
                strip_id,
                child_conn,
                self._blobs[strip_id],
                self._gamma,
                self._leases[strip_id],
                die_after,
            ),
            daemon=True,
            name=f"strip-{strip_id}",
        )
        child.start()
        child_conn.close()
        old = self._conns[strip_id]
        if old is not None:
            old.close()
        self._children[strip_id] = child
        self._conns[strip_id] = parent_conn

    # ------------------------------------------------------------------
    # plumbing: send a command, await the reply, recover from a crash
    # ------------------------------------------------------------------
    def _master_write(self, lease: ShmLease, array: np.ndarray) -> ShmDescriptor:
        descriptor = write_through_lease(lease, np.ascontiguousarray(array))
        if descriptor is None:  # pragma: no cover - sized at start()
            raise StripTeamError(
                f"master payload outgrew lease {lease.name!r}"
            )
        return descriptor

    def _recv(self, strip_id: int, deadline: float):
        """Await one reply; on child death, respawn + replay and retry."""
        conn = self._conns[strip_id]
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StripTeamError(
                    f"strip {strip_id} exceeded the "
                    f"{self.op_deadline:.0f}s operation deadline"
                )
            if conn.poll(min(0.05, max(0.001, remaining))):
                try:
                    return conn.recv()
                except EOFError:
                    pass  # died between poll and recv: fall through
            child = self._children[strip_id]
            if child is not None and not child.is_alive():
                self._recover(strip_id)
                conn = self._conns[strip_id]

    def _recover(self, strip_id: int) -> None:
        """Respawn a dead strip child and replay its state.

        The replacement recomputes the strip factor for the current
        ``h`` (bit-identical: ``linsolve.factorize`` is deterministic)
        and, when the lost operation had a forward solve in flight or
        already behind it, re-runs ``forward`` with the retained rhs
        slice.  The
        in-flight command itself is re-issued by the caller's pending
        ``_recv`` loop — the reply it eventually reads comes from the
        replay below.
        """
        child = self._children[strip_id]
        exitcode = child.exitcode if child is not None else None
        self.respawns += 1
        trace_emit(
            "respawn",
            key=self.trace_key,
            worker=f"strip-{strip_id}",
            strip=strip_id,
            exitcode=exitcode,
            scope="strip",
        )
        self._spawn(strip_id, fresh=True)
        conn = self._conns[strip_id]
        deadline = time.monotonic() + self.op_deadline
        cmd = self._pending[strip_id]
        if cmd is not None and cmd[0] == "prepare":
            # the lost operation *was* the factor build: re-issuing it
            # is the whole replay, and its reply feeds the caller
            conn.send(cmd)
            return
        # replay factor state (bit-identical: factorize is deterministic)
        if self._current_h is not None:
            conn.send(("prepare", self._current_h))
            self._await_plain(conn, strip_id, deadline)
        if cmd is not None:
            # replay the forward pass when the crash interrupted the
            # forward/backward pair (y lives only in the child)
            f_s = self._last_f[strip_id]
            if cmd[0] == "backward" and f_s is not None:
                f_descriptor = self._master_write(
                    self._leases[strip_id]["f"], f_s
                )
                conn.send(("forward", f_descriptor))
                self._await_plain(conn, strip_id, deadline)
            # re-issue the lost command; its reply is what the caller's
            # _recv loop will read next
            conn.send(cmd)

    def _await_plain(self, conn, strip_id: int, deadline: float):
        """Await a reply during replay (no recursive recovery: a child
        dying twice in a row during recovery is escalated)."""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise StripTeamError(
                    f"strip {strip_id} wedged during recovery"
                )
            if conn.poll(min(0.05, max(0.001, remaining))):
                try:
                    return conn.recv()
                except EOFError:
                    raise StripTeamError(
                        f"strip {strip_id} died again during recovery"
                    )
            child = self._children[strip_id]
            if child is not None and not child.is_alive():
                raise StripTeamError(
                    f"strip {strip_id} died again during recovery"
                )

    def _roundtrip(self, commands: list[tuple]) -> list[tuple]:
        """Send one command per strip, gather the replies in strip order."""
        self._pending = list(commands)
        deadline = time.monotonic() + self.op_deadline
        for conn, cmd in zip(self._conns, commands):
            conn.send(cmd)
        replies = []
        for strip_id in range(len(commands)):
            replies.append(self._recv(strip_id, deadline))
            self._pending[strip_id] = None
        return replies

    # ------------------------------------------------------------------
    # the executor protocol
    # ------------------------------------------------------------------
    def prepare(self, h: float):
        self._current_h = h
        replies = self._roundtrip([("prepare", h)] * len(self._conns))
        out = []
        for reply in replies:
            _tag, descriptor, seconds, fresh = reply
            piece = read_descriptor(descriptor)
            out.append((piece, seconds, fresh))
        return out

    def forward(self, parts: Sequence[np.ndarray]):
        commands = []
        for strip_id, f_s in enumerate(parts):
            f_s = np.ascontiguousarray(np.asarray(f_s, dtype=float))
            self._last_f[strip_id] = f_s
            descriptor = self._master_write(self._leases[strip_id]["f"], f_s)
            commands.append(("forward", descriptor))
        replies = self._roundtrip(commands)
        out = []
        for reply in replies:
            _tag, descriptor, seconds = reply
            out.append((read_descriptor(descriptor), seconds))
        return out

    def backward(self, parts: Sequence[np.ndarray]):
        commands = []
        for strip_id, xg_sub in enumerate(parts):
            descriptor = self._master_write(
                self._leases[strip_id]["xg"],
                np.ascontiguousarray(np.asarray(xg_sub, dtype=float)),
            )
            commands.append(("backward", descriptor))
        replies = self._roundtrip(commands)
        out = []
        for strip_id, reply in enumerate(replies):
            _tag, descriptor, seconds = reply
            out.append((read_descriptor(descriptor), seconds))
            self._last_f[strip_id] = None
        return out

    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for conn, child in zip(self._conns, self._children):
            if conn is not None:
                try:
                    conn.send(("exit",))
                except (BrokenPipeError, OSError):
                    pass
        for conn, child in zip(self._conns, self._children):
            if child is not None:
                child.join(timeout=5.0)
                if child.is_alive():  # pragma: no cover - wedged child
                    child.terminate()
                    child.join(timeout=5.0)
            if conn is not None:
                conn.close()
        for leases in self._leases:
            for lease in leases.values():
                self.plane.release(lease.name)
        self.plane.close()
