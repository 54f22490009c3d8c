"""The socket-backed distributed task engine: MLINK semantics over TCP.

The cluster simulator predicts what the paper's MANIFOLD/PVM deployment
*would* do; this module runs the same master/worker protocol over real
sockets.  A :class:`WorkerDaemon` is one machine of the paper's testbed:
an OS process listening on a TCP port in front of one task instance
(:class:`~repro.restructured.taskengine._TaskInstance`, in a pool of
one) that holds one job at a time — the MLINK pattern ``{perpetual}
{load 1}`` — reachable by address exactly like a CONFIG ``{host}``
entry.  The master side (:class:`SocketTaskEngine`) plays the MANIFOLD
master: it forks or dials daemons, ships job specs, and collects
results — every byte crossing a real socket.

Spawning: a ``localhost[:N]`` daemon is **forked from the master**, not
exec'ed.  The master binds the listening socket itself (port 0, so the
port is known synchronously), forks with the ``fork`` context, and the
child adopts the inherited listener and serves; the master connects at
once — the connection waits in the listen backlog until the child
accepts.  The child pays no interpreter start and no numpy/scipy import,
and is isolated like an exec'ed process before it serves
(:func:`_forked_daemon_main`).  ``python -m repro worker-daemon`` is the
way to start a daemon on *another* machine, for ``tcp://`` dialing.

Leasing: a default ``run_multiprocessing(engine="socket")`` does not
own its daemons, it leases the process-wide **fleet** the way a pool run
leases the shared fork pool (``parallel._FleetLease``, the slot in
:mod:`~repro.restructured.pool`).  This module contributes the
mechanics: :meth:`SocketTaskEngine.park` disconnects a clean engine and
keeps its daemons, :meth:`SocketTaskEngine.resume` reconnects, and a
fleet daemon that nobody has connected to for ``FLEET_IDLE_EXIT``
seconds leaves on its own.  Nothing of it is on the wire.

Master threading model: **one thread, one selector**.  The master owns
every daemon socket through one :class:`selectors.DefaultSelector`, a
non-blocking socket and an incremental :class:`_FrameDecoder` per link,
and it runs the dispatch core's own loop (``dispatch.drive``, the pool's
too) with the links as its channels: retry and reconnect backoff,
heartbeat silence and job deadlines are timers on the core's wheel, and
``select`` is the only blocking point.  So one master holds many links
with no reader thread, and one grid backing off or one daemon flapping
never stalls completion handling on the others.  A daemon is the same
shape one size down (:class:`WorkerDaemon`): nothing in this module
starts a thread or sleeps.

A link is a **three-state machine** (:class:`_DaemonLink`: ``down``,
``reviving``, ``up``; ``_LINK_MOVES`` is every legal move) carrying
**one job**.  There is no write side: a ``job`` frame is a few hundred
bytes (240 B measured, 640 B with a four-rule fault plan) for a link
whose previous result has come home, against a kernel send buffer of
at least 4 KiB — one non-blocking ``send`` takes it whole, and a link
on which it does not is lost like any other broken connection.  Only a
revive's non-blocking connect ever waits for a socket to be writable.

Wire protocol: length-prefixed frames.  A frame is an 8-byte header
(``RPRO`` magic + big-endian payload length) followed by the pickled
``(kind, data)`` body.  Kinds: ``hello``/``heartbeat``/``result``/
``error`` from the daemon, ``job``/``stop`` from the master.  The magic
check rejects cross-talk from a non-daemon peer before any unpickling,
and a body that is not such a pair is a :class:`FrameError` like a
truncated one: whichever end reads it drops that connection and goes on.

Failure model.  The job lifecycle — attempts, deadlines, the escalation
ladder — is the shared dispatch core's
(:class:`~repro.restructured.dispatch.DispatchCore`); this module is
its socket driver and contributes the detection channels of a network:

* a **dropped connection** (daemon killed, network reset, truncated
  or undecodable frame) convicts the job in flight on that daemon as a ``crash``
  fault; the master reconnects (re-spawning a local daemon, or
  re-dialing a remote one) with timer-driven exponential backoff,
  recorded as a ``reconnect`` trace event;
* a **silent daemon** — no frame within ``HEARTBEAT_TIMEOUT`` — is a
  ``hang``: the daemon is killed and replaced, its job re-dispatched;
* the core's **per-job deadline** (priced from the results the engine
  has seen, :mod:`~repro.restructured.dispatch`) catches a wedged
  job on an otherwise healthy daemon; the driver's ``retire`` hook
  replaces the daemon so the wedged compute cannot outlive the run.

Replays are idempotent: results are keyed ``(l, m)`` and the core drops
a result frame whose attempt does not match the outstanding one, so a
daemon that answers *after* being declared lost cannot corrupt the run.

A forked daemon shares the master's resource tracker, exactly like a
pool worker: the tracker is started before the fork and its descriptor
survives the child's isolation, so a daemon never spawns a tracker of
its own.
"""

from __future__ import annotations

import errno
import gc
import multiprocessing
import os
import pickle
import selectors
import signal
import socket
import struct
import time
import traceback
from dataclasses import dataclass
from multiprocessing import resource_tracker
from multiprocessing.connection import wait
from typing import Callable, Optional

from repro.manifold.timers import TimerWheel
from repro.sparsegrid.cache import reset_default_operator_cache
from repro.trace.recorder import uninstall_recorder

from .dispatch import (
    _DEADLINE_GRACE,
    DispatchCore,
    DispatchOutcome,
    Driver,
    Job,
    Slot,
    drive,
)
from .pool import PersistentWorkerPool
from .taskengine import _TaskInstance
from .worker import SubsolveJobSpec

__all__ = [
    "FrameError",
    "send_frame",
    "recv_frame",
    "HostSpec",
    "parse_hosts",
    "WorkerDaemon",
    "SocketTaskEngine",
]

#: frame header: magic + big-endian body length
MAGIC = b"RPRO"
_HEADER = struct.Struct("!4sI")

#: refuse to allocate absurd frames (a corrupted or hostile header)
MAX_FRAME_BYTES = 1 << 30

#: seconds the master grants a stopped daemon to exit on its own before
#: killing it (the daemon itself leaves at once, its job killed)
DRAIN_TIMEOUT = 5.0

#: seconds a fleet daemon (a forked daemon leased across runs, see
#: ``parallel._FleetLease``) stays without a master before it leaves on
#: its own.  The master re-enters a parked fleet only within half of it,
#: so a daemon it connects to cannot already have decided to go; and it
#: is at most ``DRAIN_TIMEOUT``, so whoever waits that long for a stopped
#: daemon has also outwaited an abandoned one
FLEET_IDLE_EXIT = 2.0

#: seconds between a daemon's heartbeat frames, and the silence — ten
#: missed beats — after which the master calls a link with a job in
#: flight hung.  Tied on purpose: a daemon told to beat slower than its
#: master listens is a healthy machine convicted again and again
HEARTBEAT_INTERVAL = 0.5
HEARTBEAT_TIMEOUT = 10 * HEARTBEAT_INTERVAL

#: seconds a connect may take, blocking at start-up or inside a revive
CONNECT_TIMEOUT = 20.0

#: a lost link's k-th revive starts ``RECONNECT_BACKOFF * 2**(k - 1)``
#: seconds after the loss (or the failed attempt before it); a link lost
#: with ``MAX_RECONNECTS`` behind it stays down
RECONNECT_BACKOFF = 0.05
MAX_RECONNECTS = 5

#: loopback daemons are forked like pool workers and task instances
_FORK = multiprocessing.get_context("fork")


class FrameError(ConnectionError):
    """The framed stream broke: bad magic, truncation, oversize, or a
    body that is not a pickled ``(kind, data)`` pair."""


def _recv_exact(sock: socket.socket, n: int, *, at_boundary: bool) -> Optional[bytes]:
    """Read exactly ``n`` bytes from a blocking socket.

    Returns ``None`` on a clean EOF at a frame boundary (the peer closed
    between frames); raises :class:`FrameError` on EOF mid-frame (the
    peer died with a frame in flight — e.g. a connection dropped during
    a result transfer).  :meth:`SocketTaskEngine.resume` and the tests
    use this; the reactor and the daemon's relay decode incrementally
    through :class:`_FrameDecoder`, because neither may block on one peer.
    """
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            if at_boundary and not chunks:
                return None
            raise FrameError(
                f"connection closed mid-frame ({n - remaining}/{n} bytes)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _pack_frame(kind: str, data: object) -> bytes:
    body = pickle.dumps((kind, data), protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(MAGIC, len(body)) + body


def _unpack_body(body: bytes) -> tuple[str, object]:
    """The ``(kind, data)`` pair of a frame body.  Anything else is a
    broken stream, which both ends survive as they do a reset: garbage
    raises whatever its bytes happen to spell, hence the broad catch.
    (Unpickling still runs what a hostile peer sends — ROADMAP item 7.)"""
    try:
        frame = pickle.loads(body)
    except Exception as exc:
        raise FrameError(f"frame body does not unpickle: {exc!r}") from exc
    if not (isinstance(frame, tuple) and len(frame) == 2):
        raise FrameError(f"frame body is not a (kind, data) pair: {type(frame)}")
    return frame


def send_frame(sock: socket.socket, kind: str, data: object) -> tuple[int, float]:
    """Send one ``(kind, data)`` frame; returns ``(bytes, seconds)``.

    The seconds are the time spent inside ``sendall`` — with a full
    socket buffer that is real backpressure wait, the master-side
    ``send_wait`` of the overhead decomposition.
    """
    frame = _pack_frame(kind, data)
    t0 = time.perf_counter()
    sock.sendall(frame)
    return len(frame), time.perf_counter() - t0


def recv_frame(
    sock: socket.socket,
) -> Optional[tuple[str, object, int, float]]:
    """Receive one frame; returns ``(kind, data, bytes, seconds)``.

    ``None`` means the peer closed cleanly between frames.  The seconds
    cover only the *body* transfer (the header wait is idle time, not
    network time).
    """
    header = _recv_exact(sock, _HEADER.size, at_boundary=True)
    if header is None:
        return None
    magic, length = _HEADER.unpack(header)
    if magic != MAGIC:
        raise FrameError(f"bad frame magic {magic!r}")
    if length > MAX_FRAME_BYTES:
        raise FrameError(f"frame of {length} bytes exceeds the cap")
    t0 = time.perf_counter()
    body = _recv_exact(sock, length, at_boundary=False)
    seconds = time.perf_counter() - t0
    kind, data = _unpack_body(body)
    return kind, data, _HEADER.size + length, seconds


class _FrameDecoder:
    """Stateful incremental decoder of one link's ``RPRO`` frame stream.

    A loop feeds it whatever ``recv`` returned; it hands back every
    frame those bytes completed.  This replaces the blocking
    ``_recv_exact`` on both ends of a link — neither the master's
    reactor nor the daemon's relay waits for a specific peer's next
    byte.  A frame's ``seconds`` span from its header being parsed to
    its body completing, the incremental analogue of the blocking body
    transfer the threaded reader used to time.
    """

    __slots__ = ("_buf", "_body_len", "_body_t0")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._body_len: Optional[int] = None
        self._body_t0 = 0.0

    @property
    def mid_frame(self) -> bool:
        """True when an EOF now would truncate a frame in flight."""
        return self._body_len is not None or bool(self._buf)

    def describe_partial(self) -> str:
        """How far into the current frame the stream broke."""
        if self._body_len is not None:
            return f"{len(self._buf)}/{self._body_len} body bytes"
        return f"{len(self._buf)}/{_HEADER.size} header bytes"

    def feed(self, data: bytes) -> list[tuple[str, object, int, float]]:
        """Consume ``data``; return the ``(kind, data, bytes, seconds)``
        frames it completed (possibly none, possibly several)."""
        self._buf.extend(data)
        frames: list[tuple[str, object, int, float]] = []
        while True:
            if self._body_len is None:
                if len(self._buf) < _HEADER.size:
                    break
                magic, length = _HEADER.unpack(bytes(self._buf[: _HEADER.size]))
                if magic != MAGIC:
                    raise FrameError(f"bad frame magic {magic!r}")
                if length > MAX_FRAME_BYTES:
                    raise FrameError(f"frame of {length} bytes exceeds the cap")
                del self._buf[: _HEADER.size]
                self._body_len = length
                self._body_t0 = time.perf_counter()
            if len(self._buf) < self._body_len:
                break
            body = bytes(self._buf[: self._body_len])
            del self._buf[: self._body_len]
            nbytes = _HEADER.size + self._body_len
            seconds = time.perf_counter() - self._body_t0
            self._body_len = None
            kind, payload = _unpack_body(body)
            frames.append((kind, payload, nbytes, seconds))
        return frames


def arm_heartbeat_deadline(
    timers: TimerWheel,
    link: "_DaemonLink",
    timeout: float,
    on_silent: Callable[["_DaemonLink"], None],
) -> None:
    """Watch one link for heartbeat silence on the reactor's timer wheel.

    Re-arms itself at ``last_frame + timeout`` until either the link
    moves (loss, replacement, parking: the watch holds the generation it
    was armed under), or the deadline passes with its job in flight —
    then ``on_silent(link)`` convicts it.  A silent link with nothing in
    flight is left alone (an idle daemon owes no result) and re-checked
    a timeout later.  ``last_frame`` is written by the same reactor
    thread that reads it here.
    """
    generation = link.generation

    def fire() -> None:
        if link.generation != generation:
            return
        now = timers.clock()
        deadline = link.last_frame + timeout
        if now < deadline:
            timers.schedule(deadline - now + _DEADLINE_GRACE, fire)
        elif link.job is not None:
            on_silent(link)
        else:
            timers.schedule(timeout + _DEADLINE_GRACE, fire)

    timers.schedule(timeout + _DEADLINE_GRACE, fire)


# ----------------------------------------------------------------------
# the hosts grammar
# ----------------------------------------------------------------------
_LOCAL_NAMES = ("localhost", "127.0.0.1", "local")


@dataclass(frozen=True)
class HostSpec:
    """One entry of the ``--hosts`` list.

    ``spawn > 0`` means: fork that many loopback daemons on this machine
    (the CONFIG ``{host}`` entries of a single-machine run).  ``port``
    names an already-listening daemon to dial instead.
    """

    host: str
    spawn: int = 0
    port: Optional[int] = None

    @property
    def local(self) -> bool:
        return self.spawn > 0


def parse_hosts(text: str) -> tuple[HostSpec, ...]:
    """Parse the ``--hosts`` grammar.

    ::

        hosts  := entry (',' entry)*
        entry  := 'localhost' [':' count]     # spawn count loopback daemons
                | 'tcp://' host ':' port      # dial a running daemon

    Examples: ``localhost:2`` (two spawned daemons),
    ``localhost:2,tcp://node7:9123`` (two local plus one remote).
    """
    specs: list[HostSpec] = []
    for raw in text.split(","):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("tcp://"):
            rest = entry[len("tcp://") :]
            host, sep, port_text = rest.rpartition(":")
            if not sep or not host:
                raise ValueError(
                    f"bad hosts entry {entry!r}: expected tcp://host:port"
                )
            try:
                port = int(port_text)
            except ValueError:
                raise ValueError(
                    f"bad port {port_text!r} in hosts entry {entry!r}"
                ) from None
            specs.append(HostSpec(host=host, port=port))
            continue
        host, _, count_text = entry.partition(":")
        if host not in _LOCAL_NAMES:
            raise ValueError(
                f"bad hosts entry {entry!r}: only 'localhost[:N]' entries "
                "are spawnable; use tcp://host:port for a running daemon"
            )
        try:
            count = int(count_text) if count_text else 1
        except ValueError:
            raise ValueError(
                f"bad daemon count {count_text!r} in hosts entry {entry!r}"
            ) from None
        if count < 1:
            raise ValueError(f"daemon count must be >= 1 in {entry!r}")
        specs.append(HostSpec(host="127.0.0.1", spawn=count))
    if not specs:
        raise ValueError(f"hosts spec {text!r} contains no entries")
    return tuple(specs)


# ----------------------------------------------------------------------
# the daemon side
# ----------------------------------------------------------------------
class WorkerDaemon:
    """One machine of the testbed: one task instance behind a TCP port.

    MLINK ``{perpetual} {load 1}``: the daemon holds **one job**,
    computed in the worker of a private ``PersistentWorkerPool(1)``
    built at its first job; how many a machine hosts is the ``--hosts``
    list's business.  One master connection is served at a time; after
    a disconnect the daemon returns to ``accept`` so a reconnecting
    master finds it again.

    It is a **relay on one thread** — ``dispatch.drive``'s shape with a
    connection where the core would be, a loop of its own because it
    drives no core — blocked only in ``wait`` over the connection and,
    while a job computes, the instance's pipe, with the heartbeat as
    the timeout.  A ``job`` frame goes down the pipe as ``(spec, plan,
    attempt, use_cache)``; the pipe's ``("ok" | "error", …)`` goes home as a
    ``result`` / ``error`` frame, its EOF — the instance died — as an
    ``error`` with ``fault_kind="death_worker"``; a job takes the
    worker, its reply gives it back, its EOF replaces it.  One job
    means one sender to the socket and one reader of the pipe, so
    nothing is locked; a second ``job`` frame while busy is refused with
    an ``error`` frame, never queued.

    A ``stop`` frame, or :meth:`stop`, ends the relay at once: a master
    that stops a daemon reads nothing more from it, so a job in flight
    is killed with its instance (a forced ``shutdown``), not drained.
    A master that vanishes mid-job costs the instance a ``replace``.
    With ``idle_exit`` set, a daemon that has had no master connected
    for that many seconds leaves as if stopped — the lease of a fleet
    daemon; the default never leaves.

    Fault injection: what happens to the *machine* happens here — a
    ``crash`` rule is ``os._exit`` of the whole daemon, a ``hang`` holds
    the job un-forwarded for its ``seconds`` while heartbeats go on, so
    a daemon killed over it leaves no sleeping instance behind — and
    what happens to the *job* (``raise``, ``slow``) travels with it to
    the :func:`~repro.resilience.resilient_entry` of the instance.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        listener: Optional[socket.socket] = None,
        idle_exit: Optional[float] = None,
    ) -> None:
        #: read when the daemon is built; the master's silence window is
        #: ten of it
        self.heartbeat_interval = HEARTBEAT_INTERVAL
        self.idle_exit = idle_exit
        #: a forked daemon adopts the listener its master bound for it
        self._listener = listener or socket.create_server((host, port))
        self.address = self._listener.getsockname()[:2]
        #: a pool of one task instance, built at the first job, and
        #: its worker while a job is forwarded to it
        self._worker_pool: Optional[PersistentWorkerPool] = None
        self._worker: Optional[_TaskInstance] = None
        #: ``(key, attempt)`` of the one job this daemon holds
        self._job: Optional[tuple[tuple[int, int], int]] = None
        #: ``(due, message)`` while a ``hang`` holds that job back
        self._held: Optional[tuple[float, tuple]] = None
        self._stopping = False
        self.jobs_served = 0
        #: chaos hook (tests only): keys whose first result frame is
        #: truncated mid-transfer, the connection hard-closed under it
        self._drop_result_keys: set = set()

    @property
    def port(self) -> int:
        return self.address[1]

    def stop(self) -> None:
        """Leave: the serving thread reads this at its next wake-up, at
        most one heartbeat interval on."""
        self._stopping = True

    # ------------------------------------------------------------------
    def serve_forever(self) -> None:
        """Accept masters until stopped; serve one connection at a time."""
        self._listener.settimeout(0.2)
        # the idle clock only runs between connections, and it is read
        # only when an accept found the backlog empty: a master that
        # connected before the deadline is always served
        idle_since = time.monotonic()
        try:
            while not self._stopping:
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    if (
                        self.idle_exit is not None
                        and time.monotonic() - idle_since >= self.idle_exit
                    ):
                        break
                    continue
                except OSError:
                    break
                try:
                    self._serve_connection(conn)
                finally:
                    conn.close()
                idle_since = time.monotonic()
        finally:
            self._listener.close()
            if self._worker_pool is not None:
                self._worker_pool.shutdown()

    def _serve_connection(self, conn: socket.socket) -> None:
        """Relay between one master and the task instance, until the
        master leaves or the daemon is stopped."""
        if not self._send(conn, "hello", {"pid": os.getpid()}):
            return
        decoder = _FrameDecoder()
        next_beat = time.monotonic() + self.heartbeat_interval
        try:
            while not self._stopping:
                now = time.monotonic()
                if self._held is not None and now >= self._held[0]:
                    self._forward(self._held[1])
                    self._held = None
                if now >= next_beat:
                    if not self._send(conn, "heartbeat", {"pid": os.getpid()}):
                        return
                    next_beat = now + self.heartbeat_interval
                due = next_beat
                if self._held is not None:
                    due = min(due, self._held[0])
                worker = self._worker
                channel = None if worker is None else worker.channel
                ready = wait(
                    [conn] if channel is None else [conn, channel],
                    max(0.0, due - now),
                )
                if channel in ready and not self._relay_reply(conn):
                    return
                if conn in ready and not self._read_master(conn, decoder):
                    return
        finally:
            if self._worker is not None:
                # nobody is left to take the result: like a failed pool
                # run, leave nothing computing behind, and fork no
                # successor for a daemon that is leaving
                if self._stopping:
                    self._worker_pool.shutdown(force=True)
                else:
                    self._worker_pool.replace(self._worker)
                self._worker = None
            self._job = self._held = None

    def _read_master(self, conn: socket.socket, decoder: _FrameDecoder) -> bool:
        """Take what the master sent; ``False`` when it is gone."""
        try:
            data = conn.recv(1 << 20)
            frames = decoder.feed(data)
        except OSError:  # a reset, or a garbled frame
            return False
        if not data:
            return False
        for kind, body, _, _ in frames:
            if kind == "stop":
                self._stopping = True
            elif kind == "job" and not self._take_job(conn, body):
                return False
            # unknown kinds are ignored: forward compatibility
        return True

    def _take_job(self, conn: socket.socket, data: object) -> bool:
        """Start, hold or refuse one job; ``False`` — drop this master —
        for a ``job`` frame without the four fields every master sends."""
        try:
            spec, plan, attempt, use_cache = (
                data[field] for field in ("spec", "plan", "attempt", "use_cache")
            )
            key = (spec.l, spec.m)
        except (KeyError, TypeError, AttributeError):
            return False
        if self._job is not None:
            self._send_error(
                conn, key, attempt, "exception",
                f"daemon busy with grid {self._job[0]}: one job per worker",
            )
            return True
        action = plan.action(spec.l, spec.m, attempt) if plan is not None else None
        if action is not None and action.kind == "crash":
            # the daemon kill: this machine drops off the network,
            # task instance and all, exactly as unannounced as a
            # power failure looks from the master's side
            os._exit(action.exit_code)
        self._job = (key, attempt)
        if action is not None and action.kind == "hang":
            # the stall is this machine's, so the instance is not told
            # of the plan it has already served
            self._held = (
                time.monotonic() + action.seconds,
                (spec, None, attempt, use_cache),
            )
            return True
        self._forward((spec, plan, attempt, use_cache))
        return True

    def _forward(self, message: tuple) -> None:
        if self._worker_pool is None:
            self._worker_pool = PersistentWorkerPool(1)
        self._worker = self._worker_pool.take()
        try:
            self._worker.channel.send(message)
        except OSError:
            pass  # died since take(): its pipe reads EOF in the loop

    def _relay_reply(self, conn: socket.socket) -> bool:
        """The instance's pipe is readable: send what it says home.
        ``False`` when the master is gone."""
        key, attempt = self._job
        worker, self._worker = self._worker, None
        self._job = None
        try:
            status, body = worker.channel.recv()
        except (EOFError, OSError):
            self._worker_pool.replace(worker)
            return self._send_error(
                conn, key, attempt, "death_worker",
                f"task instance pid={worker.process.pid} died",
            )
        self._worker_pool.give(worker)
        if status == "error":
            return self._send_error(conn, key, attempt, "exception", body)
        if key in self._drop_result_keys:
            self._drop_result_keys.discard(key)
            self._drop_mid_result(conn, key, attempt, body)
            return False
        if not self._send(conn, "result", {
            "key": key, "attempt": attempt, "payload": body,
        }):
            return False
        self.jobs_served += 1
        return True

    def _send_error(
        self, conn: socket.socket, key, attempt: int, fault_kind: str, error: str
    ) -> bool:
        return self._send(conn, "error", {
            "key": key,
            "attempt": attempt,
            "fault_kind": fault_kind,
            "error": error,
        })

    def _send(self, conn: socket.socket, kind: str, data: object) -> bool:
        """``False`` when the master is gone (a result is then simply
        lost — the master's re-dispatch recomputes it)."""
        try:
            send_frame(conn, kind, data)
            return True
        except OSError:
            return False

    def _drop_mid_result(
        self, conn: socket.socket, key, attempt: int, payload
    ) -> None:
        """Chaos hook: truncate the result frame and kill the link —
        a connection dropped during the result transfer."""
        frame = _pack_frame(
            "result", {"key": key, "attempt": attempt, "payload": payload}
        )
        try:
            conn.sendall(frame[: max(_HEADER.size, len(frame) // 2)])
            # shutdown, not just close: the task instance was forked
            # with this connection open and holds a copy of the
            # descriptor, so a bare close() would send no FIN and the
            # master would wait for body bytes forever
            conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


def _open_fds() -> list[int]:
    """The descriptors open in this process right now."""
    fds = []
    for name in os.listdir("/proc/self/fd"):
        try:
            os.fstat(int(name))
        except OSError:
            continue  # the listing's own descriptor, closed again
        fds.append(int(name))
    return fds


def _forked_daemon_main(
    listener: socket.socket,
    inherited: list[int],
    idle_exit: Optional[float],
) -> None:
    """A forked loopback daemon: isolate, serve, leave — never returns.

    The child is a copy of its master, and must be as separate from it
    as an exec'ed ``worker-daemon`` would be before it serves a frame:

    * every descriptor the master held at the fork (``inherited``:
      sibling links' sockets, the selector, pool pipes, trace files) is
      closed; stdio, the listener and the shared resource tracker are
      not in that list, and the process-sentinel pipes ``multiprocessing``
      made for this child are newer than it;
    * the master's trace recorder is not this process's to write into;
    * a fresh daemon is cold: it starts with an empty operator/factor
      cache whatever the master had computed;
    * objects copied from the master are frozen, so no finaliser of
      theirs ever runs here against a descriptor number we reused;
    * it leads a process group of its own, which its task instances
      join, so the master kills them with it (``SocketTaskEngine._reap``);
    * it leaves through ``os._exit``: no ``atexit`` hook, ``DataPlane``
      or pool finaliser inherited from the master runs in the child.
    """
    status = 1
    try:
        os.setpgid(0, 0)
        for fd in inherited:
            try:
                os.close(fd)
            except OSError:
                pass
        gc.freeze()
        uninstall_recorder()
        reset_default_operator_cache()
        # forked as a daemonic process so an exiting master takes it
        # down; but it hosts a task instance, which a daemonic process
        # may not fork
        multiprocessing.current_process().daemon = False
        WorkerDaemon(listener=listener, idle_exit=idle_exit).serve_forever()
        status = 0
    except Exception:
        traceback.print_exc()
    finally:
        os._exit(status)


# ----------------------------------------------------------------------
# the master side
# ----------------------------------------------------------------------
#: every legal step of a link's connection state; any other raises.
#: ``hello`` and ``busy`` are not states but ``pid is None`` and ``job``
#: on an ``up`` link
_LINK_MOVES = {
    ("down", "adopt"): "up",             # blocking connect: init, resume, close
    ("up", "drop"): "down",              # lost, replaced, parked or closed
    ("down", "revive"): "reviving",      # lost with budget left: backoff armed
    ("reviving", "revive"): "reviving",  # that attempt failed: the next armed
    ("reviving", "adopt"): "up",         # its non-blocking connect completed
    ("reviving", "give_up"): "down",     # budget spent, or the engine closed
}


class _DaemonLink:
    """One daemon as the master sees it: a non-blocking socket, the one
    job sent down it, and a connection ``state`` — ``down`` (no socket),
    ``reviving`` (a backoff or a connect is pending) or ``up``.  Only
    :meth:`move` writes ``state`` and ``generation``; only the engine's
    loop ever touches a link."""

    def __init__(
        self, name: str, *, spawned: bool,
        address: Optional[tuple[str, int]] = None,
    ) -> None:
        self.name = name
        self.spawned = spawned          # we own the process (loopback)
        self.address = address          # where the daemon listens
        self.sock: Optional[socket.socket] = None
        self.proc: Optional[multiprocessing.Process] = None
        self.pid: Optional[int] = None  # from this connection's hello
        self.job: Optional[Job] = None  # the one attempt in flight
        self.state = "down"
        #: bumped by every move.  Timers are never cancelled: each
        #: captures the generation it was armed under and is void under
        #: any other, so a dead connection's deadline cannot convict its
        #: successor and a stale revive cannot start a second connect
        self.generation = 0
        self.last_frame = 0.0
        self.decoder = _FrameDecoder()
        self.reconnects = 0
        self.revive_reason = ""
        self.revive_t0 = 0.0

    def move(self, event: str) -> None:
        """Take the step ``event`` names in ``_LINK_MOVES``."""
        step = (self.state, event)
        if step not in _LINK_MOVES:
            raise RuntimeError(f"{self.name}: no move {event!r} when {self.state}")
        self.state = _LINK_MOVES[step]
        self.generation += 1


class SocketTaskEngine:
    """The master of the socket-backed distributed configuration.

    ``hosts`` is a spec string (see :func:`parse_hosts`) or a sequence
    of :class:`HostSpec`.  ``localhost[:N]`` daemons are forked from
    this process behind listeners it binds for them; they are private to
    this engine, and :meth:`close` stops them and waits until they and
    their task instances are gone.  Dialed (``tcp://``) daemons are only
    disconnected: they stay up for their next master.

    The engine is a single-threaded reactor: every daemon socket is
    non-blocking and owned by one ``selectors.DefaultSelector``, so the
    master's thread count stays O(1) however many links it holds.  A
    link is a three-state machine (:class:`_DaemonLink`); the methods
    below :meth:`run` are its moves' effects, timed by module constants.

    :meth:`run` may be called again on the same engine; each daemon's
    task instance keeps its operator and factor caches in between.
    Between two runs the engine can be parked — :meth:`park`
    disconnects every link and keeps the daemons, :meth:`resume`
    reconnects — which is how a fleet is leased across
    ``run_multiprocessing`` calls.  ``idle_exit`` is what the daemons
    forked here are told about abandonment: ``None`` (a private engine,
    closed by whoever built it) never leave on their own; a number is
    the seconds without a master after which they do.
    """

    def __init__(
        self, hosts="localhost:2", *, idle_exit: Optional[float] = None
    ) -> None:
        self.host_specs = (
            parse_hosts(hosts) if isinstance(hosts, str) else tuple(hosts)
        )
        self.idle_exit = idle_exit
        self._selector = selectors.DefaultSelector()
        self._closed = False
        #: what every timer and ``last_frame`` is read off
        self._clock = time.monotonic
        #: the run in progress — or the one that raised; ``None`` once a
        #: run has returned normally (and before the first)
        self._core: Optional[DispatchCore] = None
        self._plan = None
        #: the dispatch core's learned job rate, kept for the next run
        self.seconds_per_unknown: Optional[float] = None
        # the network accounting of the latest run
        self.reconnects = 0
        self.bytes_sent = 0
        self.bytes_received = 0
        self.net_send_seconds = 0.0
        self.net_recv_seconds = 0.0
        self.links: list[_DaemonLink] = []
        t0 = time.perf_counter()
        try:
            for spec in self.host_specs:
                for _ in range(spec.spawn or 1):
                    link = _DaemonLink(
                        f"daemon-{len(self.links)}",
                        spawned=spec.local,
                        address=None if spec.local else (spec.host, spec.port),
                    )
                    self.links.append(link)
                    if spec.local:
                        self._spawn(link)
            for link in self.links:
                self._attach(link)
        except Exception:
            self.close()
            raise
        self.spawn_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # link lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, link: _DaemonLink) -> None:
        """Bind an ephemeral loopback listener and fork the daemon that
        adopts it.  The port is known before the fork and the socket is
        already listening, so the caller may connect straight away: the
        connection waits in the backlog until the child accepts."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            # started before the fork so the child shares this tracker
            # instead of spawning its own
            keep = {0, 1, 2, listener.fileno(), resource_tracker.getfd()}
            link.address = listener.getsockname()[:2]
            link.proc = _FORK.Process(
                target=_forked_daemon_main,
                args=(
                    listener,
                    [fd for fd in _open_fds() if fd not in keep],
                    self.idle_exit,
                ),
                name=link.name,
                daemon=True,
            )
            link.proc.start()
            # the child makes itself a group leader too: whichever call
            # comes first, no task instance is forked outside the group
            try:
                os.setpgid(link.proc.pid, link.proc.pid)
            except OSError:
                pass  # the child has already exited

    @staticmethod
    def _reap(link: _DaemonLink) -> None:
        """Kill the link's daemon and the task instances of its process
        group if they still run, and collect the daemon."""
        proc, link.proc = link.proc, None
        if proc is None:
            return
        try:
            # only while the daemon is not yet reaped: until then its
            # PID, the group's id, cannot name a newer process
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOHANG | os.WNOWAIT)
            os.killpg(proc.pid, signal.SIGKILL)
        except (ChildProcessError, ProcessLookupError):
            pass  # reaped already, or nothing of the group is left
        # no timeout: that waits for the daemon alone, while a timed
        # join waits on the sentinel its task instances inherited too
        proc.join()
        proc.close()

    @staticmethod
    def _dial(address: tuple[str, int]) -> socket.socket:
        """Start a non-blocking connect; ``OSError`` if it fails at once."""
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setblocking(False)
        err = sock.connect_ex(address)
        if err not in (0, errno.EINPROGRESS, errno.EWOULDBLOCK, errno.EALREADY):
            sock.close()
            raise OSError(err, os.strerror(err))
        return sock

    def _attach(self, link: _DaemonLink) -> None:
        """Connect (blocking; never on the dispatch loop) and adopt."""
        self._adopt(
            link, socket.create_connection(link.address, timeout=CONNECT_TIMEOUT)
        )

    def _adopt(self, link: _DaemonLink, sock: socket.socket) -> None:
        """Take a connected socket as the link's live connection: make
        it non-blocking, reset the receive state, and hand it to the
        selector — whose registration data is the link itself."""
        sock.setblocking(False)
        link.sock = sock
        link.move("adopt")
        link.pid = None  # (re)learned from the fresh hello
        link.last_frame = self._clock()
        link.decoder = _FrameDecoder()
        self._selector.register(sock, selectors.EVENT_READ, link)

    def _hang_up(self, link: _DaemonLink) -> None:
        """Close the link's socket, connected or still connecting."""
        sock, link.sock = link.sock, None
        if sock is None:
            return
        self._selector.unregister(sock)
        # shutdown before close: deterministically sends the FIN/RST
        # whatever state the connection is in, so a dialed daemon's
        # serve loop (blocked in recv on its end) wakes and returns
        # to accept instead of serving a dead connection
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        sock.close()

    def _disconnect(self, link: _DaemonLink) -> None:
        """Drop the link's connection — or the revive it was in the
        middle of — and leave its daemon running."""
        if link.state != "down":
            link.move("drop" if link.state == "up" else "give_up")
        self._hang_up(link)

    # ------------------------------------------------------------------
    # between two runs
    # ------------------------------------------------------------------
    @property
    def reusable(self) -> bool:
        """The last run left nothing behind: it returned normally, never
        reconnected, and every link is up with nothing in flight."""
        return (
            not self._closed
            and self._core is None
            and self.reconnects == 0
            and all(l.state == "up" and l.job is None for l in self.links)
        )

    def park(self) -> bool:
        """Disconnect every link and keep the daemons for a later
        :meth:`resume`; ``False`` (and nothing done) unless
        :attr:`reusable`.  A parked daemon is back in ``accept``, where
        its idle clock runs."""
        if not self.reusable:
            return False
        for link in self.links:
            self._disconnect(link)
        return True

    def resume(self) -> bool:
        """Reconnect a parked engine; ``False`` when a daemon is dead or
        does not answer, and the engine (however many links it got to)
        is then only good for :meth:`close`.  Each link's ``hello`` is
        read here, so no job is ever sent to a daemon that is not
        serving this connection."""
        try:
            for link in self.links:
                if link.spawned and not link.proc.is_alive():
                    return False
                self._attach(link)
            # every daemon is accepting by now: the waits overlap
            for link in self.links:
                link.sock.settimeout(CONNECT_TIMEOUT)
                frame = recv_frame(link.sock)
                link.sock.setblocking(False)
                if frame is None or frame[0] != "hello":
                    return False
                link.pid = frame[1]["pid"]
        except OSError:
            return False
        return True

    def close(self) -> None:
        """Stop the daemons this engine forked, disconnect the rest.

        A forked daemon is sent ``stop`` (one this engine holds no
        connection to — parked, or left out by a failed :meth:`resume`
        — is reconnected for that) and given ``DRAIN_TIMEOUT`` seconds
        to leave on its own — kill its job, stop its task instance and
        close its pool — before its process group is killed.  A dialed
        daemon is never stopped, only disconnected.
        """
        if self._closed:
            return
        self._closed = True
        stopping = []
        for link in self.links:
            if not link.spawned or link.proc is None:
                continue
            if link.state == "down":
                try:
                    self._attach(link)
                except OSError:
                    # not accepting any more: it is leaving by itself
                    stopping.append(link)
            if link.state == "up":
                try:
                    link.sock.settimeout(2.0)
                    send_frame(link.sock, "stop", {})
                    stopping.append(link)
                except OSError:
                    pass
        deadline = time.monotonic() + DRAIN_TIMEOUT
        for link in stopping:
            # the sentinel is inherited by the daemon's task instances:
            # this returns once the whole subtree has exited
            link.proc.join(max(0.0, deadline - time.monotonic()))
        for link in self.links:
            self._disconnect(link)
            self._reap(link)
        self._selector.close()

    def __enter__(self) -> "SocketTaskEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # a run: the dispatch core's loop over the links
    # ------------------------------------------------------------------
    def run(
        self,
        ordered: list[SubsolveJobSpec],
        *,
        escalation,
        plan=None,
        use_cache: bool = True,
        trace=None,
    ) -> DispatchOutcome:
        """Dispatch ``ordered`` (LPT order preserved) across the daemons.

        The job lifecycle and the loop are the dispatch core's
        (:func:`~repro.restructured.dispatch.drive`); the engine is its
        socket driver (:meth:`_place`, :meth:`_launch`, :meth:`_retire`)
        and the links are the loop's channels (:meth:`_ready`).  The
        network accounting (``reconnects``, ``bytes_sent``/
        ``bytes_received``, ``net_send_seconds``/``net_recv_seconds``) is
        left on the engine and describes this run alone.
        """
        self.reconnects = self.bytes_sent = self.bytes_received = 0
        self.net_send_seconds = self.net_recv_seconds = 0.0
        self._plan = plan
        self._core = core = DispatchCore(
            ordered,
            Driver(place=self._place, launch=self._launch, retire=self._retire),
            escalation=escalation,
            timers=TimerWheel(self._clock),
            use_cache=use_cache,
            seconds_per_unknown=self.seconds_per_unknown,
            trace=trace,
        )
        for link in self.links:
            if link.state == "up":
                self._watch(link)
                if trace is not None and link.pid is not None:
                    # said hello before this run began: name it in this
                    # run's trace too
                    trace.record(
                        "worker_spawn", worker=link.name, pid=link.pid, reused=True
                    )
        outcome = drive(
            core, self._selector, self._ready,
            starved=self._starved, settling=self._reviving,
        )
        self._core = None
        self.seconds_per_unknown = core.seconds_per_unknown
        return outcome

    def _ready(self, link: _DaemonLink, sock: socket.socket) -> None:
        """Readable bytes when ``up``, a finished connect when ``reviving``."""
        if link.sock is not sock:
            return  # dropped earlier in this batch
        if link.state == "up":
            self._read(link)
        else:
            self._connect_done(link)

    def _starved(self) -> None:
        """Nothing in flight: an up or reviving link can still serve."""
        if all(l.state == "down" for l in self.links):
            self._core.fail(RuntimeError(
                "every worker daemon is lost and out of reconnect budget"
                if self.reconnects
                else "no worker daemon is alive"
            ))

    def _reviving(self) -> bool:
        """The run waits for a revive in progress: its reconnect count
        describes daemons that came back and traced their ``reconnect``."""
        return any(l.state == "reviving" for l in self.links)

    # ------------------------------------------------------------------
    # the dispatch core's driver: place, launch, retire
    # ------------------------------------------------------------------
    def _place(self) -> Optional[Slot]:
        for link in self.links:
            # one job per link, and none before its hello
            if link.state == "up" and link.pid is not None and link.job is None:
                return Slot(link, link.name)
        return None

    def _launch(self, job: Job) -> None:
        """One non-blocking ``send``.  A ``job`` frame is a few hundred
        bytes and goes to a link whose last result has come home, so the
        kernel takes it whole; a link on which it does not — an error,
        or a short count — is lost like any other broken connection and
        the job re-dispatched.  Nothing is ever queued for a link."""
        link = job.worker
        link.job = job
        frame = _pack_frame("job", {
            "spec": job.spec,
            "plan": self._plan,
            "attempt": job.attempt,
            "use_cache": self._core.use_cache,
        })
        t0 = time.perf_counter()
        try:
            sent = link.sock.send(frame)
        except OSError as exc:  # a full buffer included: nothing waits for room
            self._lose(link, "crash", "connection", repr(exc))
            return
        if sent < len(frame):
            error = f"short send: {sent}/{len(frame)} bytes of a job frame"
            self._lose(link, "crash", "connection", error)
            return
        self._record_net(
            "net_send", job.key, len(frame), time.perf_counter() - t0, "job"
        )

    def _retire(self, job: Job, kind: Optional[str]) -> None:
        job.worker.job = None
        if kind == "deadline":
            # the job wedged on an otherwise healthy daemon: replace
            # the daemon so the wedged compute cannot outlive the run
            self._replace(job.worker, kind)

    # ------------------------------------------------------------------
    # losing a link and getting it back
    # ------------------------------------------------------------------
    def _lose(self, link: _DaemonLink, kind: str, detected_by: str, error: str) -> None:
        """A daemon died or went silent: the job in flight on it — that
        one, there is no other — is faulted."""
        job, link.job = link.job, None
        self._replace(link, kind)
        if job is not None:
            self._core.fault(job.key, kind, detected_by=detected_by, error=error)

    def _replace(self, link: _DaemonLink, reason: str) -> None:
        """Drop the connection, kill the daemon, schedule its revival."""
        link.move("drop")
        link.revive_reason = reason
        self._revive_later(link)

    def _arm(self, link: _DaemonLink, delay: float, callback) -> None:
        """``callback(link)`` in ``delay`` seconds, unless the link has
        moved by then."""
        generation = link.generation

        def fire() -> None:
            if link.generation == generation:
                callback(link)

        self._core.timers.schedule(delay, fire)

    def _revive_later(self, link: _DaemonLink) -> None:
        """Release whatever the link or its last revive attempt still
        holds (socket, daemon process), then arm the next attempt's
        backoff — or give up: a spent budget leaves the link ``down``,
        and the loop fails the run once every link is."""
        self._hang_up(link)
        self._reap(link)
        if link.reconnects >= MAX_RECONNECTS:
            if link.state == "reviving":
                link.move("give_up")
            return
        link.reconnects += 1
        self.reconnects += 1
        link.move("revive")
        link.revive_t0 = time.perf_counter()
        self._arm(
            link, RECONNECT_BACKOFF * 2 ** (link.reconnects - 1), self._begin_revive
        )

    def _begin_revive(self, link: _DaemonLink) -> None:
        try:
            if link.spawned:
                self._spawn(link)
            link.sock = self._dial(link.address)
        except OSError:
            self._revive_later(link)
            return
        # the module's only write interest: a connect must not block the
        # loop, or a black-holed tcp:// host would stall healthy links
        self._selector.register(link.sock, selectors.EVENT_WRITE, link)
        self._arm(link, CONNECT_TIMEOUT, self._revive_later)

    def _connect_done(self, link: _DaemonLink) -> None:
        if link.sock.getsockopt(socket.SOL_SOCKET, socket.SO_ERROR):
            self._revive_later(link)
            return
        self._selector.unregister(link.sock)
        self._adopt(link, link.sock)
        self._watch(link)
        if self._core.trace is not None:
            self._core.trace.record(
                "reconnect",
                worker=link.name,
                attempt=link.reconnects,
                reason=link.revive_reason,
                seconds=time.perf_counter() - link.revive_t0,
            )

    # ------------------------------------------------------------------
    # heartbeat silence
    # ------------------------------------------------------------------
    def _watch(self, link: _DaemonLink) -> None:
        arm_heartbeat_deadline(
            self._core.timers, link, HEARTBEAT_TIMEOUT, self._on_silent
        )

    def _on_silent(self, link: _DaemonLink) -> None:
        error = f"no frame from {link.name} within {HEARTBEAT_TIMEOUT:.1f}s"
        self._lose(link, "hang", "heartbeat", error)

    # ------------------------------------------------------------------
    # the read side
    # ------------------------------------------------------------------
    def _read(self, link: _DaemonLink) -> None:
        try:
            data = link.sock.recv(1 << 20)
            frames = link.decoder.feed(data)
        except (BlockingIOError, InterruptedError):
            return
        except OSError as exc:  # a reset, or a garbled frame
            self._lose(link, "crash", "connection", repr(exc))
            return
        if not data:
            self._lose(
                link,
                "crash",
                "connection",
                f"connection closed mid-frame ({link.decoder.describe_partial()})"
                if link.decoder.mid_frame
                else "daemon closed the connection",
            )
            return
        link.last_frame = self._clock()
        for kind, payload, nbytes, seconds in frames:
            self._handle_frame(link, kind, payload, nbytes, seconds)
            if link.state != "up":
                break  # a handler convicted the link mid-batch

    def _handle_frame(
        self, link: _DaemonLink, kind: str, data, nbytes: int, seconds: float
    ) -> None:
        core = self._core
        if kind == "hello":
            link.pid = data["pid"]
            if core.trace is not None:
                core.trace.record("worker_spawn", worker=link.name, pid=link.pid)
        elif kind == "result":
            key = tuple(data["key"])
            self._record_net("net_recv", key, nbytes, seconds, kind)
            core.result(key, int(data["attempt"]), data["payload"])
        elif kind == "error":
            key = tuple(data["key"])
            self._record_net("net_recv", key, nbytes, seconds, kind)
            core.fault(
                key,
                data.get("fault_kind", "exception"),
                detected_by="daemon",
                error=data.get("error", ""),
                attempt=int(data["attempt"]),
            )
        # a heartbeat has done its work by arriving (``last_frame``);
        # unknown kinds are ignored: forward compatibility

    def _record_net(
        self, kind: str, key, nbytes: int, seconds: float, frame_kind: str
    ) -> None:
        if kind == "net_send":
            self.bytes_sent += nbytes
            self.net_send_seconds += seconds
        else:
            self.bytes_received += nbytes
            self.net_recv_seconds += seconds
        if self._core.trace is not None:
            self._core.trace.record(
                kind, key=key, frame_bytes=nbytes, seconds=seconds,
                frame_kind=frame_kind,
            )
