"""Task instances: one OS process per worker, reused job after job.

The one kind of worker process in the repo.  A :class:`_TaskInstance`
is a forked process on a duplex pipe that serves one job at a time —
the MLINK ``{task * {perpetual} {load 1}}`` of §6 on this machine: a
worker that finishes leaves the process to welcome the next one.  Only
:class:`~repro.restructured.pool.PersistentWorkerPool` forks, hands
out, reuses or buries one.  The shared pool's workers serve
``run_multiprocessing`` and, leased by
:class:`~repro.restructured.pool.TaskInstanceEngine`, the workers of
``run_concurrent``; a socket daemon (:mod:`netengine`) keeps a private
pool of one behind its port.  This module is the process itself: its
serve loop, its channel and its handles.

A pool worker may also keep one **standby** (:meth:`_TaskInstance.copy`):
an ``os.fork()`` of itself made while it is idle, so the copy holds its
operator and LU caches, serving on a channel of its own — a task
instance no one has been handed yet.  When the worker dies the pool
promotes the standby in its place
(:meth:`~repro.restructured.pool.PersistentWorkerPool.replace`) — the
paper's ``{perpetual}`` task instance taking the next worker in, warm —
instead of forking a cold one.  The master did not fork a standby, so
it holds it by a pidfd (:class:`_Adopted`) and signals it only through
that, never by a PID that may have been reused.
"""

from __future__ import annotations

import multiprocessing
import os
import select
import signal
import time
from multiprocessing.connection import Connection, wait
from multiprocessing.reduction import recv_handle, send_handle
from typing import Optional

from repro.resilience import resilient_entry

from .worker import SubsolveJobSpec

__all__ = ["TaskInstanceDied"]

_STOP = "__task_instance_stop__"
#: "fork a standby": the channel it is to serve on follows as an fd
_COPY = "__task_instance_copy__"
#: how long a standby may take to name itself on its channel
_STANDBY_HELLO_TIMEOUT = 1.0
#: "leave unless a job comes within PARKED_EXIT seconds"
_PARK = "__task_instance_park__"
PARKED_EXIT = 2.0


class TaskInstanceDied(RuntimeError):
    """A task instance's OS process died under a job.

    The duplex channel surfaces that as ``EOFError`` / ``BrokenPipeError``
    depending on which side of the pipe broke first; both mean the same
    thing — the worker is gone — so :meth:`_TaskInstance.run` raises
    this single structured error instead of letting the raw pipe
    traceback escape.  The supervision layer records it as a
    ``death_worker`` fault.  A death between two jobs is no fault: the
    pool succeeds that worker before handing it out.
    """

    fault_kind = "death_worker"

    def __init__(self, message: str, exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.exitcode = exitcode


def _task_instance_main(channel: Connection, master: int) -> None:
    """The OS process's serve loop: one job at a time until stopped.

    ``master`` is a pidfd of the process that started the task instance
    (the pool's, or a socket daemon), readable once that process has
    exited.  That is the orphan watchdog: a fork-context child inherits
    its master's open fds — including the write end of its *own* pipe
    — so a master that dies without a _STOP never EOFs the pipe, and a
    bare recv() would block forever, leaking the process and holding
    any inherited sockets open.  Nor does ``getppid()`` say anything
    about the master: a promoted standby's parent is the dead worker it
    was copied from.  A parked instance (:meth:`_TaskInstance.park`)
    leaves by itself, its standby with it, once it has waited
    ``PARKED_EXIT`` seconds for a job.
    """
    standby: Optional[int] = None
    #: set by a _PARK, cleared by the next job
    leave_at: Optional[float] = None
    try:
        while True:
            try:
                ready = wait([channel, master], None if leave_at is None
                             else max(0.0, leave_at - time.monotonic()))
                if master in ready or not ready:
                    return
                message = channel.recv()
                if message == _PARK:
                    leave_at = time.monotonic() + PARKED_EXIT
                    continue
                if message == _COPY:
                    standby = _fork_standby(channel, master, standby)
                    continue
            except (EOFError, OSError):
                # the engine closed its end without a _STOP (shutdown
                # race, or the master died) — exit quietly
                return
            if message == _STOP:
                return
            leave_at = None
            # the one job shape: (spec, plan, attempt, use_cache)
            try:
                reply = ("ok", resilient_entry(message))
            except Exception as exc:  # noqa: BLE001 - marshal the failure back
                reply = ("error", f"{type(exc).__name__}: {exc}")
            try:
                channel.send(reply)
            except (BrokenPipeError, OSError):
                # the engine stopped listening mid-job; nothing to report to
                return
    finally:
        _end_child(standby)
        channel.close()


def _fork_standby(
    channel: Connection, master: int, old: Optional[int]
) -> Optional[int]:
    """Replace this idle worker's standby with a fresh ``os.fork()`` of
    it, serving on the channel whose fd follows on ``channel``; returns
    its pid, ``None`` if the fork failed (the master then reads EOF on
    that channel).  The standby names itself on its channel first
    thing, so the master can take a pidfd of a process it did not
    fork."""
    fd = recv_handle(channel)
    _end_child(old)
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        return None
    if pid == 0:
        code = 1
        try:
            # the worker's pipe must EOF when the worker dies
            channel.close()
            mine = Connection(fd)
            mine.send(os.getpid())
            _task_instance_main(mine, master)
            code = 0
        finally:
            # as a multiprocessing child leaves: no atexit hook, no
            # flush of a buffer the worker also holds
            os._exit(code)
    os.close(fd)
    return pid


def _end_child(pid: Optional[int]) -> None:
    """``SIGKILL`` and reap a child of this process; it is unreaped
    until then, so its PID is still its own."""
    if pid is None:
        return
    try:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    except (ProcessLookupError, ChildProcessError):  # pragma: no cover
        pass


class _Adopted:
    """The process handle of a standby: a process this one did not
    fork.  The standby names itself on its channel; the handle is a
    pidfd of that PID, taken when first needed, and every signal goes
    through it, never to a PID that may have been reused.  Not being
    our child, its exit status is not ours to read: :attr:`exitcode`
    stays ``None``."""

    exitcode = None

    def __init__(self, channel: Connection) -> None:
        self._channel = channel
        self._pid: Optional[int] = None
        self._pidfd: Optional[int] = None
        self._named = False

    @property
    def pid(self) -> Optional[int]:
        self._name()
        return self._pid

    def _name(self) -> None:
        if self._named:
            return
        self._named = True
        try:
            if not self._channel.poll(_STANDBY_HELLO_TIMEOUT):
                return
            pid = self._channel.recv()
            pidfd = os.pidfd_open(pid)
        except (EOFError, OSError):
            return  # it died, or was never forked
        # only the standby holds the other end of its channel, so a
        # channel still open after pidfd_open proves the pidfd is the
        # standby's, not a reused PID's
        if self._channel.poll(0):
            os.close(pidfd)
            return
        self._pid, self._pidfd = pid, pidfd

    def is_alive(self) -> bool:
        self._name()
        return self._pidfd is not None and not self._exited(0.0)

    def join(self, timeout: Optional[float] = None) -> None:
        """Wait for the exit; the pidfd is closed once it is seen."""
        self._name()
        if self._pidfd is not None and self._exited(timeout):
            self.close()

    def _exited(self, timeout: Optional[float]) -> bool:
        # a pidfd reads as readable once its process has exited
        poller = select.poll()
        poller.register(self._pidfd, select.POLLIN)
        return bool(poller.poll(None if timeout is None else timeout * 1000))

    def kill(self) -> None:
        self._signal(signal.SIGKILL)

    def terminate(self) -> None:
        self._signal(signal.SIGTERM)

    def close(self) -> None:
        if self._pidfd is not None:
            os.close(self._pidfd)
            self._pidfd = None

    def _signal(self, sig: int) -> None:
        self._name()
        if self._pidfd is not None:
            try:
                signal.pidfd_send_signal(self._pidfd, sig)
            except ProcessLookupError:  # exited, not yet joined
                pass


class _TaskInstance:
    """One live OS process plus its control channel, and the standby it
    keeps: a task instance of its own that no one has been handed yet
    (``None`` until :meth:`copy`)."""

    def __init__(self, context) -> None:
        """Fork a cold task instance from this process."""
        parent_end, child_end = multiprocessing.Pipe()
        master = os.pidfd_open(os.getpid())
        try:
            process = context.Process(
                target=_task_instance_main, args=(child_end, master), daemon=True
            )
            process.start()
        finally:
            os.close(master)
            child_end.close()
        self._attach(parent_end, process, cache_generation=0)

    def _attach(self, channel: Connection, process, cache_generation: int) -> None:
        self.channel = channel
        self.process = process
        self.standby: Optional[_TaskInstance] = None
        #: when it was last parked, until it is next taken
        self.parked_at: Optional[float] = None
        #: bumped by the pool after each run that grew the caches; a
        #: standby copied at an older generation is stale
        self.cache_generation = cache_generation

    def copy(self) -> None:
        """Have this idle worker fork its standby, replacing the one it
        has: the standby's channel is created here and its end sent
        down the worker's own pipe.  Nothing is waited for."""
        mine, theirs = multiprocessing.Pipe()
        try:
            self.channel.send(_COPY)
            send_handle(self.channel, theirs.fileno(), self.process.pid)
        except OSError:
            # died since its last answer: found out when next taken
            mine.close()
            return
        finally:
            theirs.close()
        if self.standby is not None:
            # the worker ends the old one itself, being its parent
            self.standby.process.close()
            self.standby.channel.close()
        self.standby = standby = _TaskInstance.__new__(_TaskInstance)
        standby._attach(mine, _Adopted(mine), self.cache_generation)

    def park(self) -> None:
        """Have this idle instance leave by itself unless a job reaches
        it within ``PARKED_EXIT`` seconds."""
        try:
            self.channel.send(_PARK)
        except OSError:
            return  # died since its last answer: found out when next taken
        self.parked_at = time.monotonic()

    def _end_standby(self) -> None:
        standby, self.standby = self.standby, None
        if standby is not None:
            standby.kill()

    def run(
        self, spec: SubsolveJobSpec, use_cache: bool = True
    ) -> tuple[str, object]:
        """Serve one job: ``("ok", payload)`` or ``("error", message)``,
        or :class:`TaskInstanceDied`."""
        try:
            self.channel.send((spec, None, 1, use_cache))
            return self.channel.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TaskInstanceDied(
                f"task instance pid={self.process.pid} died "
                f"({type(exc).__name__}; exitcode={self.process.exitcode})",
                exitcode=self.process.exitcode,
            ) from exc

    def stop(self) -> None:
        try:
            self.channel.send(_STOP)
        except (BrokenPipeError, OSError):
            pass
        # drain until the process exits: an in-flight reply larger than
        # the pipe buffer blocks the serve loop's send until it is read,
        # so a bare join would deadlock into the terminate fallback —
        # and the _STOP must never interleave with an unread reply
        deadline = time.monotonic() + 5.0
        while self.process.is_alive() and time.monotonic() < deadline:
            try:
                if self.channel.poll(0.05):
                    self.channel.recv()
            except (EOFError, OSError):
                break
        self.process.join(timeout=max(0.0, deadline - time.monotonic()))
        try:
            self.channel.close()
        except OSError:  # pragma: no cover - defensive
            pass
        if self.process.is_alive():  # pragma: no cover - defensive
            self.process.terminate()
            self.process.join(timeout=1.0)
        # a stopped worker has ended its standby; one that was dead
        # already has left it behind
        self._end_standby()

    def kill(self) -> None:
        """``SIGKILL`` and reap — for a process that is wedged under a
        job (no ``_STOP`` would reach it) or already dead — and end its
        standby."""
        self.process.kill()
        self.process.join()
        self.channel.close()
        self._end_standby()
