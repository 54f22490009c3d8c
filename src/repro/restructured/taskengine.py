"""Real task instances: one OS process per worker, with perpetual reuse.

The one kind of worker process in the repo.  A :class:`_TaskInstance`
is a forked process on a duplex pipe that serves one job at a time; the
persistent pool of :mod:`pool` is ``processes`` of them driven by the
dispatch core, a socket daemon (:mod:`netengine`) is one of them behind
a port, and :class:`TaskInstanceEngine` — the compute engine of
``run_concurrent`` — reproduces the MLINK semantics of §6 *literally*
on this machine:

* each computing worker occupies its **own OS-level process** (a task
  instance with ``{load 1}``);
* when the worker dies, its task instance either stays alive to
  "welcome a new worker" (``{perpetual}``, the default) or exits;
* spawning a fresh task instance has real cost (process fork + import),
  so the reuse behaviour is *observable*: the engine counts spawns and
  reuses, and a run of many short jobs forks far fewer processes than
  it runs workers — the same effect the paper reports for machines.

The protocol side is unchanged: this is just another compute engine for
:func:`~repro.restructured.worker.make_subsolve_worker`.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
from dataclasses import dataclass
from multiprocessing.connection import Connection
from typing import Optional

from repro.resilience import resilient_entry

from .worker import ComputeEngine, SubsolveJobSpec, SubsolvePayload

__all__ = ["TaskInstanceDied", "TaskInstanceEngine", "TaskInstanceStats"]

_STOP = "__task_instance_stop__"


class TaskInstanceDied(RuntimeError):
    """A task instance's OS process died under a job or between jobs.

    The duplex channel surfaces that as ``EOFError`` / ``BrokenPipeError``
    depending on which side of the pipe broke first; both mean the same
    thing — the worker is gone — so the engine raises this single
    structured error instead of letting the raw pipe traceback escape.
    The supervision layer records it as a ``death_worker`` fault.
    """

    fault_kind = "death_worker"

    def __init__(self, message: str, exitcode: Optional[int] = None) -> None:
        super().__init__(message)
        self.exitcode = exitcode


def _task_instance_main(channel: Connection) -> None:
    """The OS process's serve loop: one job at a time until stopped."""
    parent_pid = os.getppid()
    while True:
        try:
            # orphan watchdog: a fork-context child inherits the engine
            # process's open fds — including the write end of its *own*
            # pipe — so if that process dies without a _STOP (a daemon
            # killed mid-run), the pipe never EOFs and a bare recv()
            # would block forever, leaking the process and holding any
            # inherited sockets open.  Poll instead, and exit once the
            # parent is gone (reparenting changes getppid()).
            while not channel.poll(1.0):
                if os.getppid() != parent_pid:
                    return
            message = channel.recv()
        except (EOFError, OSError):
            # the engine closed its end without a _STOP (shutdown race,
            # or the master died) — exit quietly, not with a traceback
            return
        if message == _STOP:
            channel.close()
            return
        # the one message shape: (spec, plan, attempt, use_cache)
        try:
            reply = ("ok", resilient_entry(message))
        except Exception as exc:  # noqa: BLE001 - marshal the failure back
            reply = ("error", f"{type(exc).__name__}: {exc}")
        try:
            channel.send(reply)
        except (BrokenPipeError, OSError):
            # the engine stopped listening mid-job; nothing to report to
            return


class _TaskInstance:
    """One live OS process plus its control channel."""

    def __init__(self, context) -> None:
        parent_end, child_end = multiprocessing.Pipe()
        self.channel: Connection = parent_end
        self.process = context.Process(
            target=_task_instance_main, args=(child_end,), daemon=True
        )
        self.process.start()
        child_end.close()
        self.jobs_served = 0

    def run(
        self, spec: SubsolveJobSpec, use_cache: bool = True
    ) -> SubsolvePayload:
        try:
            self.channel.send((spec, None, 1, use_cache))
            status, payload = self.channel.recv()
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as exc:
            raise TaskInstanceDied(
                f"task instance pid={self.process.pid} died "
                f"({type(exc).__name__}; exitcode={self.process.exitcode})",
                exitcode=self.process.exitcode,
            ) from exc
        self.jobs_served += 1
        if status == "error":
            raise RuntimeError(f"task instance failed: {payload}")
        return payload

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

    def kill(self) -> None:
        """``SIGKILL`` and reap — for a process that is wedged under a
        job (no ``_STOP`` would reach it) or already dead."""
        self.process.kill()
        self.process.join()
        self.channel.close()


@dataclass
class TaskInstanceStats:
    """Spawn/reuse accounting — the machine-count story, locally."""

    spawned: int = 0
    jobs: int = 0

    @property
    def reused(self) -> int:
        return self.jobs - self.spawned


class TaskInstanceEngine(ComputeEngine):
    """Compute engine with per-worker OS task instances.

    ``max_instances`` caps the concurrently live task instances (the
    cluster size, as it were); a worker arriving when all instances are
    busy and the cap is reached waits for one to free up.
    """

    def __init__(
        self,
        perpetual: bool = True,
        max_instances: Optional[int] = None,
    ) -> None:
        if max_instances is not None and max_instances < 1:
            raise ValueError(f"max_instances must be >= 1, got {max_instances}")
        self.perpetual = perpetual
        self.max_instances = max_instances
        self._context = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._capacity = threading.Condition(self._lock)
        self._idle: list[_TaskInstance] = []
        self._live = 0
        self._closed = False
        self.stats = TaskInstanceStats()

    # ------------------------------------------------------------------
    def _acquire(self) -> _TaskInstance:
        with self._capacity:
            while True:
                if self._closed:
                    raise RuntimeError("engine is closed")
                if self.perpetual and self._idle:
                    return self._idle.pop()
                if self.max_instances is None or self._live < self.max_instances:
                    self._live += 1
                    self.stats.spawned += 1
                    break
                self._capacity.wait(timeout=0.5)
        # the fork happens outside the lock: it is the expensive part
        return _TaskInstance(self._context)

    def _release(self, instance: _TaskInstance) -> None:
        with self._capacity:
            if self.perpetual and not self._closed:
                self._idle.append(instance)
                self._capacity.notify_all()
                return
            self._live -= 1
            self._capacity.notify_all()
        instance.stop()

    # ------------------------------------------------------------------
    def compute(
        self, spec: SubsolveJobSpec, *, use_cache: bool = True
    ) -> SubsolvePayload:
        instance = self._acquire()
        try:
            payload = instance.run(spec, use_cache=use_cache)
        except BaseException:
            # a broken task instance is never reused
            with self._capacity:
                self._live -= 1
                self._capacity.notify_all()
            instance.stop()
            raise
        with self._lock:
            self.stats.jobs += 1
        self._release(instance)
        return payload

    def close(self) -> None:
        with self._capacity:
            if self._closed:
                return
            self._closed = True
            idle, self._idle = self._idle, []
            self._capacity.notify_all()
        for instance in idle:
            instance.stop()

    @property
    def live_instances(self) -> int:
        with self._lock:
            return self._live

    @property
    def idle_instances(self) -> int:
        with self._lock:
            return len(self._idle)
