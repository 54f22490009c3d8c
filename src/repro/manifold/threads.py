"""Perpetual threads: the OS threads process instances run on.

A MANIFOLD process instance is a light-weight thread, and MLINK's
``{perpetual}`` keeps a task instance alive for the instances that
follow.  The runtime's OS threads do the same: a thread whose body
returned parks on a lock of its own until the next body is started, and
a new daemon thread starts only when none is parked.  Every live process
still has a thread to itself.  There is no cap and no idle timeout: a
cap would deadlock processes that block on each other (``void`` and
``variable`` never finish), and no more threads park than once ran
bodies at the same time.

Parked threads end at interpreter exit and before a fork, so that each
thread's state is cleared by the thread itself, as it was when a thread
ended with its one body.  Cleared by another thread (the interpreter's
at exit, a forked child's), an extension's per-thread state can
misbehave: SciPy's SuperLU allocation table then leaves an exception set
on the clearing thread, and an interpreter with a factorization on a
parked thread exited with status 120.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
from typing import Callable, Optional

__all__ = ["start_thread", "PARKED_NAME"]

#: what a thread is called while it waits for its next body
PARKED_NAME = "manifold-parked"

_getaffinity = getattr(os, "sched_getaffinity", None)


class _Slot:
    """One perpetual thread, its doorbell and the body it runs next.

    The doorbell is held while the slot is parked, so a release before
    the thread reaches ``acquire`` is not lost.  Rung with no body, the
    thread ends.
    """

    __slots__ = ("thread", "doorbell", "body", "affinity")

    def __init__(self, body: Callable[[], None], name: str) -> None:
        self.thread = threading.Thread(
            target=_serve, args=(self,), name=name, daemon=True
        )
        self.doorbell = threading.Lock()
        self.doorbell.acquire()
        self.body: Optional[Callable[[], None]] = body
        self.affinity: Optional[set] = None


#: parked threads, the most recently parked last
_parked: list[_Slot] = []
#: set at interpreter exit: a thread whose body returns then ends
_exiting = False


def start_thread(body: Callable[[], None], name: str) -> None:
    """Run ``body`` on a thread of its own named ``name``.

    The body gets what a new thread would give it: that name, the hooks
    installed with :func:`threading.settrace` and
    :func:`threading.setprofile`, and the caller's CPU affinity.  An
    exception that escapes ``body`` ends its thread, as it would a new
    one's.
    """
    try:
        slot = _parked.pop()
    except IndexError:
        _Slot(body, name).thread.start()
        return
    slot.body = body
    slot.thread.name = name
    if _getaffinity is not None:
        slot.affinity = _getaffinity(0)
    slot.doorbell.release()


def _serve(slot: _Slot) -> None:
    while True:
        try:
            slot.body()
        finally:
            slot.body = None  # a parked thread pins no process
            sys.settrace(None)
            sys.setprofile(None)
        if _exiting:
            return
        slot.thread.name = PARKED_NAME
        _parked.append(slot)
        slot.doorbell.acquire()
        if slot.body is None:
            return
        if slot.affinity is not None:
            os.sched_setaffinity(0, slot.affinity)
        # what Thread._bootstrap_inner installs for a new thread
        sys.settrace(threading.gettrace())
        sys.setprofile(threading.getprofile())


def _end_parked() -> None:
    """Ring every parked thread with no body; wait until each has ended."""
    ending = []
    while True:
        try:
            slot = _parked.pop()
        except IndexError:
            break
        slot.doorbell.release()
        ending.append(slot.thread)
    for thread in ending:
        thread.join()


def _at_exit() -> None:
    global _exiting
    _exiting = True
    _end_parked()


atexit.register(_at_exit)
# A thread may park between the two hooks; the child has none of its
# parent's threads, and a slot it inherited would be rung and never answer.
os.register_at_fork(before=_end_parked, after_in_child=_parked.clear)
