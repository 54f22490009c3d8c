"""What a pool costs per worker must not depend on the pool's size.

Counted, not timed: every Python and C call each thread makes while one
``ProtocolMW`` pool of no-op workers runs, under ``threading.setprofile``.
A coordination primitive that looks at everything pending (every saved
occurrence in the event memory, every stream attached to the master's
``dataport``) shows up as calls per worker growing with the pool; the
clock would show the same thing later and less reliably.
"""

from __future__ import annotations

import random
import sys
import threading
from collections import Counter

import pytest

from repro.manifold import AtomicDefinition, Runtime, Stream, StreamType
from repro.protocol import MasterProtocolClient, WorkerJob, make_worker_definition
from tests.protocol.test_protocol import run_master_with_protocol

ROLES = ("Main", "Master", "Worker")


def run_noop_pool(workers: int) -> list:
    """One pool of ``workers`` identity workers; the results, as read."""
    worker_defn = make_worker_definition("Worker", lambda value: value)
    results: list = []

    def master_body(proc):
        client = MasterProtocolClient(proc, timeout=60)
        results.extend(client.run_pool([WorkerJob(i, i) for i in range(workers)]))
        client.finished()

    master_defn = AtomicDefinition(
        "Master", master_body, in_ports=("input", "dataport")
    )
    with Runtime("scaling") as runtime:
        run_master_with_protocol(runtime, master_defn, worker_defn, timeout=60)
    return results


def calls_per_worker(workers: int) -> dict[str, float]:
    """Calls made by the coordinator, the master and all workers of one
    pool, each divided by the pool's size."""
    calls: Counter = Counter()

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            calls[threading.current_thread().name.partition("#")[0]] += 1

    threading.setprofile(profile)
    try:
        results = run_noop_pool(workers)
    finally:
        threading.setprofile(None)
    assert sorted(r.payload for r in results) == list(range(workers))
    # a role the hook never reached would pass any bound as 0 <= 0
    assert all(calls[role] for role in ROLES), calls
    return {role: calls[role] / workers for role in ROLES}


def test_calls_per_worker_do_not_grow_with_the_pool():
    run_noop_pool(4)  # imports and caches are not a per-worker cost
    small, large = calls_per_worker(31), calls_per_worker(124)
    for role in ("Main", "Master"):
        assert large[role] <= 1.15 * small[role], (role, small, large)
    assert large["Worker"] == pytest.approx(small["Worker"], rel=0.02)


def test_a_248_worker_pool_completes():
    results = run_noop_pool(248)
    assert sorted(r.job_id for r in results) == list(range(248))


def test_port_merges_64_streams_in_global_unit_order(runtime):
    """Port order is the contract the ready heap must keep: units come
    out in the order they were written, whichever stream carries them."""
    idle = AtomicDefinition("idle", lambda proc: proc.read())
    sink = runtime.create(idle)
    producers = [runtime.create(idle) for _ in range(64)]
    for producer in producers:
        Stream(StreamType.KK).connect(producer.output, sink.input)
    order = [i for i in range(64) for _ in range(3)]
    random.Random(24).shuffle(order)
    for n, i in enumerate(order):
        producers[i].output.write((n, i))
    assert sink.input.pending() == len(order)
    got = [sink.input.read(timeout=1.0) for _ in order]
    assert got == list(enumerate(order))
    assert sink.input.try_read() is None


def test_ready_heap_under_contention(runtime):
    """Eight producers push while streams are broken at their source and
    one reader drains: no unit lost, each stream's units in order, and
    every drained stream gone from the port."""
    idle = AtomicDefinition("idle", lambda proc: proc.read())
    sink = runtime.create(idle)
    producers = [runtime.create(idle) for _ in range(8)]
    streams = [Stream().connect(p.output, sink.input) for p in producers]
    per_producer = 300

    def produce(i: int) -> None:
        for n in range(per_producer):
            producers[i].output.write((i, n))
        streams[i].break_source()

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=produce, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        got = [sink.input.read(timeout=10.0) for _ in range(8 * per_producer)]
        for thread in threads:
            thread.join(timeout=10.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(previous)
    for i in range(8):
        assert [n for j, n in got if j == i] == list(range(per_producer))
    assert sink.input.try_read() is None
    assert sink.input.attached_streams() == []
