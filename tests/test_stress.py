"""Stress and concurrency-hammering tests.

Scaled-up versions of the protocol and primitives: wide pools, pool
churn, concurrent independent protocols in one runtime, and raw
event-memory contention.  These catch ordering and lifetime bugs the
unit tests' small configurations cannot.
"""

from __future__ import annotations

import threading

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    Event,
    EventMemory,
    Runtime,
    run_application,
)
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    make_worker_definition,
    protocol_mw,
)


def run_protocol_app(runtime, master_defn, worker_defn, timeout=120.0):
    def main_body():
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            ctx.run_block(protocol_mw(master, worker_defn))
            ctx.terminated(master)
            ctx.halt()

        return block

    main = Coordinator(runtime, "Main", main_body, deadline=timeout)
    run_application(runtime, main, timeout=timeout)


class TestWidePools:
    def test_pool_of_sixty_four_workers(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x + 1)
        got = {}

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=90)
            for result in client.run_pool([WorkerJob(i, i) for i in range(64)]):
                got[result.job_id] = result.payload
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_protocol_app(runtime, master_defn, worker_defn)
        assert got == {i: i + 1 for i in range(64)}

    def test_paper_scale_pool(self, runtime):
        """w = 2*15 + 1 = 31 workers, the level-15 configuration."""
        worker_defn = make_worker_definition("Worker", lambda x: x * 2)
        count = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=90)
            results = client.run_pool([WorkerJob(i, i) for i in range(31)])
            count.append(len(results))
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_protocol_app(runtime, master_defn, worker_defn)
        assert count == [31]


class TestPoolChurn:
    def test_twenty_consecutive_pools(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)
        totals = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=120)
            total = 0
            for round_number in range(20):
                for result in client.run_pool(
                    [WorkerJob(i, round_number) for i in range(3)]
                ):
                    total += result.payload
            totals.append(total)
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_protocol_app(runtime, master_defn, worker_defn, timeout=180)
        assert totals == [3 * sum(range(20))]


class TestConcurrentProtocols:
    def test_two_independent_masters_in_one_runtime(self, runtime):
        """Per-master event scoping: two full protocols run
        concurrently in one runtime without stealing each other's
        occurrences."""
        worker_a = make_worker_definition("WorkerA", lambda x: ("A", x))
        worker_b = make_worker_definition("WorkerB", lambda x: ("B", x * 10))
        got: dict[str, list] = {"A": [], "B": []}

        def make_master(tag, n):
            def body(proc):
                client = MasterProtocolClient(proc, timeout=90)
                for result in client.run_pool(
                    [WorkerJob(i, i) for i in range(n)]
                ):
                    got[tag].append(result.payload)
                client.finished()

            return AtomicDefinition(
                f"Master{tag}", body, in_ports=("input", "dataport")
            )

        def main_for(master_defn, worker_defn, name):
            def main_body():
                block = Block(name)

                @block.state(BEGIN)
                def begin(ctx):
                    master = ctx.spawn(master_defn)
                    ctx.run_block(protocol_mw(master, worker_defn))
                    ctx.terminated(master)
                    ctx.halt()

                return block

            return Coordinator(runtime, name, main_body, deadline=90)

        main_a = main_for(make_master("A", 8), worker_a, "MainA")
        main_b = main_for(make_master("B", 8), worker_b, "MainB")
        main_a.activate()
        main_b.activate()
        assert main_a.join(timeout=90) and main_b.join(timeout=90)
        for main in (main_a, main_b):
            if main.failure is not None:
                raise main.failure
        assert sorted(got["A"]) == [("A", i) for i in range(8)]
        assert sorted(got["B"]) == [("B", i * 10) for i in range(8)]


class TestEventMemoryContention:
    def test_many_producers_one_consumer(self):
        memory = EventMemory()
        n_producers, per_producer = 8, 200
        event = Event("tick")

        def produce():
            for _ in range(per_producer):
                memory.post(event)

        threads = [threading.Thread(target=produce) for _ in range(n_producers)]
        for thread in threads:
            thread.start()
        consumed = 0
        while consumed < n_producers * per_producer:
            occ = memory.wait_for_match({event: 0}, timeout=5.0)
            assert occ is not None, "lost occurrences under contention"
            consumed += 1
        for thread in threads:
            thread.join()
        assert len(memory) == 0

    def test_concurrent_discard_and_post(self):
        memory = EventMemory()
        keep, drop = Event("keep"), Event("drop")
        stop = threading.Event()

        def poster():
            while not stop.is_set():
                memory.post(keep)
                memory.post(drop)

        thread = threading.Thread(target=poster)
        thread.start()
        dropped = 0
        for _ in range(200):
            dropped += memory.discard([drop])
        stop.set()
        thread.join()
        memory.discard([drop])
        assert all(occ.event == keep for occ in memory.snapshot())


class TestRuntimeChurn:
    def test_repeated_full_applications(self):
        """Build and tear down whole runtimes repeatedly: no state leaks
        between applications."""
        for round_number in range(10):
            with Runtime(f"churn{round_number}") as runtime:
                worker_defn = make_worker_definition("Worker", lambda x: x + 1)
                seen = []

                def master_body(proc):
                    client = MasterProtocolClient(proc, timeout=30)
                    seen.extend(client.run_pool([WorkerJob(0, round_number)]))
                    client.finished()

                master_defn = AtomicDefinition(
                    "Master", master_body, in_ports=("input", "dataport")
                )
                run_protocol_app(runtime, master_defn, worker_defn, timeout=30)
                assert seen[0].payload == round_number + 1
