"""Process instances on perpetual threads (:mod:`repro.manifold.threads`).

A thread whose body returned parks and serves the next process started.
Every check here counts threads or waits with a timeout; none reads a
clock for speed.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import Counter

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    ProcessState,
    Runtime,
    Watchdog,
    make_void,
    run_application,
)
from repro.manifold import process as process_module
from repro.manifold import threads
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    make_worker_definition,
    protocol_mw,
)
from repro.restructured import TaskInstanceEngine, run_concurrent
from tests.manifold.test_scaling import run_noop_pool


def wait_parked(stack: list, count: int) -> None:
    """Wait (at most 5 s) until ``stack`` holds ``count`` parked threads."""
    for _ in range(500):
        if len(stack) >= count:
            return
        time.sleep(0.01)
    pytest.fail(f"{len(stack)} threads parked, waited for {count}")


@pytest.fixture()
def parked(monkeypatch) -> list:
    """An empty parked stack of this test's own, so the thread a process
    gets is known; what parks on it stays there after the test."""
    stack: list = []
    monkeypatch.setattr(threads, "_parked", stack)
    return stack


def note_thread(seen: list) -> AtomicDefinition:
    return AtomicDefinition(
        "note", lambda proc: seen.append(threading.current_thread())
    )


def test_warm_pools_start_no_thread(monkeypatch):
    """The seq and main reps of ``manifold_noop31`` (31 one-worker pools,
    one 31-worker pool) start no OS thread once enough are parked; a
    thread per process would start 35 per 31-worker pool."""
    # 80 parked threads: more than one 31-worker pool's 35 processes plus
    # what the previous pool's processes may still hold while unwinding.
    # A warm-up pool would park only as many as happened to be live at
    # once, which depends on the scheduler.
    with Runtime("warm-up") as runtime:
        for _ in range(80):
            make_void(runtime)
    assert runtime.join_all(timeout=10.0)
    wait_parked(threads._parked, 80)

    started: list[str] = []
    start = threading.Thread.start

    def counting_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    for _ in range(31):
        assert len(run_noop_pool(1)) == 1
    assert len(run_noop_pool(31)) == 31
    assert started == []


@pytest.mark.parametrize("workers", [1, 31])
def test_a_pool_starts_one_body_per_worker(monkeypatch, workers):
    """A k-worker pool starts k process bodies: its workers'.  Its
    ``variable`` processes ``now`` and ``t`` are never wired and start
    none (they each started one, k + 2 in all).  ``Master`` is the
    application's; ``Main`` runs a coordinator, started elsewhere."""
    started: list[str] = []
    start = process_module.start_thread

    def counting(body, name):
        started.append(name.partition("#")[0])
        start(body, name)

    monkeypatch.setattr(process_module, "start_thread", counting)
    assert len(run_noop_pool(workers)) == workers
    assert sorted(started) == ["Master"] + ["Worker"] * workers


@pytest.fixture()
def started(monkeypatch) -> list[str]:
    """The names of the bodies given a thread, counted at every caller of
    ``threads.start_thread`` in the package."""
    names: list[str] = []
    start = threads.start_thread

    def counting(body, name):
        names.append(name.partition("#")[0])
        start(body, name)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro.") and getattr(module, "start_thread", None) is start:
            monkeypatch.setattr(module, "start_thread", counting)
    return names


def run_inline_pool(runtime: Runtime, workers: int) -> list:
    """One pool of ``workers`` identity workers under a generator-block
    ``Main`` with a ``deadline=``, as ``run_concurrent``'s; the results."""
    worker_defn = make_worker_definition("Worker", lambda value: value)
    results: list = []

    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=60)
        results.extend(client.run_pool([WorkerJob(i, i) for i in range(workers)]))
        client.finished()

    master_defn = AtomicDefinition("Master", master_body, in_ports=("input", "dataport"))
    block = Block("Main")

    @block.state(BEGIN)
    def begin(ctx):
        master = ctx.spawn(master_defn)
        yield ctx.run_block(protocol_mw(master, worker_defn))
        yield ctx.terminated(master)
        yield ctx.halt()

    main = Coordinator(runtime, "Main", block, deadline=60)
    run_application(runtime, main, timeout=60)
    return results


@pytest.mark.parametrize("workers", [1, 4])
def test_a_pool_starts_k_threads_in_all(runtime, started, workers):
    """Counted at every caller, not only at the atomic processes: a
    k-worker pool starts k threads besides its master's, and ``Main``,
    whose deadline the thread in ``run_application`` enforces, none."""
    assert len(run_inline_pool(runtime, workers)) == workers
    assert sorted(started) == ["Master"] + ["Worker"] * workers


def test_a_watchdog_around_run_application_starts_no_thread(runtime, started):
    """The watchdog's checks are timers of the thread that waits in
    ``run_application``."""
    with Watchdog(runtime, timeout=30.0) as dog:
        assert len(run_inline_pool(runtime, 4)) == 4
    assert sorted(started) == ["Master"] + ["Worker"] * 4
    assert dog.reports() == []


@pytest.mark.parametrize("level", [3])
def test_run_concurrent_over_task_instances_starts_one_thread_per_atomic(
    started, level
):
    """The master and its 2·level + 1 workers, each blocked on its task
    instance's pipe: 2·level + 2 threads.  ``Main`` has a ``deadline=``,
    which the thread in ``run_application`` enforces: it has no thread
    (it had one, 2·level + 3 in all)."""
    with TaskInstanceEngine() as engine:
        result, _ = run_concurrent(root=2, level=level, engine=engine, timeout=120)
    assert result.combined is not None
    assert len(started) == 2 * level + 2
    assert sorted(started) == ["Master"] + ["Worker"] * (2 * level + 1)


def test_a_child_forked_after_a_pool_runs_a_pool():
    """The fork pool and forked daemons fork from processes that may have
    run MANIFOLD: a child must not ring a parked thread it does not have."""
    run_noop_pool(4)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            signal.alarm(10)  # a hung child dies of SIGALRM
            status = 0 if len(run_noop_pool(4)) == 4 else 2
        finally:
            os._exit(status)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0


def test_a_failed_body_leaves_its_thread_to_the_next_process(runtime, parked):
    seen: list = []

    def boom(proc):
        seen.append(threading.current_thread())
        raise RuntimeError("boom")

    failed = runtime.spawn(AtomicDefinition("boom", boom))
    assert failed.join(timeout=5.0)
    assert failed.state is ProcessState.FAILED
    assert "RuntimeError: boom" in failed.failure_traceback
    wait_parked(parked, 1)

    after = runtime.spawn(note_thread(seen))
    assert after.join(timeout=5.0)
    assert after.state is ProcessState.TERMINATED
    assert seen[1] is seen[0]


@pytest.mark.parametrize(
    "install, installed",
    [
        (threading.setprofile, threading.getprofile),
        (threading.settrace, threading.gettrace),
    ],
    ids=["profile", "trace"],
)
def test_a_body_runs_under_hooks_installed_while_its_thread_was_parked(
    runtime, parked, install, installed
):
    seen: list = []
    first = runtime.spawn(note_thread(seen))
    assert first.join(timeout=5.0)
    wait_parked(parked, 1)

    calls: Counter = Counter()

    def hook(frame, event, arg):
        if event == "call":
            calls[threading.current_thread().name.partition("#")[0]] += 1

    previous = installed()
    install(hook)
    try:
        hooked = runtime.spawn(note_thread(seen))
        assert hooked.join(timeout=5.0)
    finally:
        install(previous)
    assert seen[1] is seen[0]
    assert calls["note"] > 0
    assert calls[threads.PARKED_NAME] == 0


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs two CPUs to tell one affinity from another",
)
def test_a_parked_thread_takes_its_starters_cpu_affinity(runtime, parked):
    everything = os.sched_getaffinity(0)
    one = {min(everything)}
    seen: list = []

    def note(proc):
        seen.append((threading.current_thread(), os.sched_getaffinity(0)))

    os.sched_setaffinity(0, one)
    try:
        pinned = runtime.spawn(AtomicDefinition("pinned", note))
        assert pinned.join(timeout=5.0)
    finally:
        os.sched_setaffinity(0, everything)
    wait_parked(parked, 1)
    free = runtime.spawn(AtomicDefinition("free", note))
    assert free.join(timeout=5.0)
    (first, first_cpus), (second, second_cpus) = seen
    assert second is first
    assert (first_cpus, second_cpus) == (one, everything)


#: factorizations on MANIFOLD worker threads, then a freshly forked pool;
#: then factorizations on them again, parked when the interpreter exits
AFTER_RUN_CONCURRENT = """
import numpy as np
from repro.restructured import run_concurrent, run_multiprocessing
from repro.sparsegrid import SequentialApplication
from repro.sparsegrid.cache import reset_default_operator_cache
sequential = SequentialApplication(root=2, level=3, tol=1e-3).run()
runs = [run_concurrent(root=2, level=3, tol=1e-3, timeout=120)[0]]
runs.append(run_multiprocessing(
    root=2, level=3, tol=1e-3, processes=2, warm_pool=False
))
reset_default_operator_cache()  # factorize again, not from the cache
runs.append(run_concurrent(root=2, level=3, tol=1e-3, timeout=120)[0])
print(*(np.array_equal(run.combined, sequential.combined) for run in runs))
"""


def test_a_fork_pool_after_run_concurrent_matches_and_exits_cleanly():
    """In a fresh interpreter, because what went wrong went wrong at its
    exit (status 120) and in its forked children (an exception left set
    by SciPy's per-thread SuperLU state, printed from ``random``'s
    at-fork hook) while every result was still right."""
    done = subprocess.run(
        [sys.executable, "-c", AFTER_RUN_CONCURRENT],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["True"] * 3
    assert "Exception ignored" not in done.stderr, done.stderr
