"""The master/worker protocol end to end, on generic computations."""

from __future__ import annotations

import threading
import time

import pytest

from repro.manifold import (
    BEGIN,
    AtomicDefinition,
    Block,
    Coordinator,
    ProcessError,
    Runtime,
    Variable,
    run_application,
)
from repro.protocol import (
    A_RENDEZVOUS,
    CREATE_POOL,
    CREATE_WORKER,
    FINISHED,
    RENDEZVOUS,
    MasterProtocolClient,
    WorkerJob,
    WorkerResult,
    make_worker_definition,
    protocol_mw,
)
from repro.trace import TraceRecorder, recording


def run_master_with_protocol(runtime: Runtime, master_defn, worker_defn, timeout=30.0):
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


class TestSinglePool:
    def test_results_cover_all_jobs(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x + 100)
        got = {}

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            for result in client.run_pool([WorkerJob(i, i) for i in range(6)]):
                got[result.job_id] = result.payload
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert got == {i: i + 100 for i in range(6)}

    def test_single_worker_pool(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: -x)
        got = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            got.extend(client.run_pool([WorkerJob("only", 5)]))
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert got[0].payload == -5

    def test_empty_pool_skips_protocol(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)
        calls = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            calls.append(client.run_pool([]))
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert calls == [[]]

    def test_results_carry_worker_metadata(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)
        results = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            results.extend(client.run_pool([WorkerJob(0, "payload")]))
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        (result,) = results
        assert isinstance(result, WorkerResult)
        assert result.worker_name.startswith("Worker")
        assert result.compute_seconds >= 0.0

    def test_workers_actually_run_concurrently(self, runtime):
        """Workers sleep together: total pool time << sum of sleeps."""
        barrier = threading.Barrier(4)

        def compute(x):
            barrier.wait(timeout=10)
            time.sleep(0.1)
            return x

        worker_defn = make_worker_definition("Worker", compute)
        durations = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            start = time.perf_counter()
            client.run_pool([WorkerJob(i, i) for i in range(4)])
            durations.append(time.perf_counter() - start)
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert durations[0] < 0.4 * 4  # far below serial time


class TestMultiplePools:
    def test_two_pools_sequential(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x * 2)
        per_pool = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            for n in (3, 5):
                results = client.run_pool([WorkerJob(i, i) for i in range(n)])
                per_pool.append(sorted(r.payload for r in results))
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert per_pool == [[0, 2, 4], [0, 2, 4, 6, 8]]

    def test_pools_run_counter(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)
        counters = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            client.run_pool([WorkerJob(0, 0)])
            client.run_pool([WorkerJob(0, 0)])
            counters.append(client.pools_run)
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert counters == [2]

    def test_many_small_pools(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x + 1)
        total = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=30)
            acc = 0
            for _ in range(5):
                for result in client.run_pool([WorkerJob(0, 1), WorkerJob(1, 2)]):
                    acc += result.payload
            total.append(acc)
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn, timeout=60)
        assert total == [5 * (2 + 3)]


    def test_client_memory_holds_nothing_between_pools(self, runtime):
        """The client keeps no event it cannot wait for (deaths, its own
        requests), and stops observing the application once finished."""
        worker_defn = make_worker_definition("Worker", lambda x: x)
        pending, subscribers = [], []

        def master_body(proc):
            subscribers.append(len(runtime._subscribers))
            client = MasterProtocolClient(proc, timeout=20)
            for _ in range(5):
                client.run_pool([WorkerJob(0, 0)])
                pending.append(len(client._memory))
            client.finished()
            subscribers.append(len(runtime._subscribers))
            with pytest.raises(ProcessError):
                client.wait_for(client.events.rendezvous)

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        assert pending == [0] * 5
        assert subscribers[0] == subscribers[1]


class TestAutoScope:
    def test_pools_leave_no_variable_or_thread_behind(self, runtime):
        """``now`` and ``t`` are ``auto`` processes of their pool: they end
        when ``Create_Worker_Pool`` returns, and threads are reused, so
        running more pools leaves neither more variables nor more
        threads (a pool's two variables used to live until shutdown)."""
        worker_defn = make_worker_definition("Worker", lambda x: x)
        seen = {}

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            for pools in range(1, 13):
                client.run_pool([WorkerJob(0, pools)])
                if pools in (3, 12):
                    variables = [
                        p for p in runtime.live_processes() if isinstance(p, Variable)
                    ]
                    seen[pools] = (len(variables), threading.active_count())
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        run_master_with_protocol(runtime, master_defn, worker_defn)
        (variables_3, threads_3), (variables_12, threads_12) = seen[3], seen[12]
        assert variables_3 == variables_12 == 0
        # nine more pools: the variables alone once kept 18 more threads
        assert threads_12 - threads_3 < 9, seen


class TestProtocolEvents:
    def test_event_sequence_for_one_pool(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            client.run_pool([WorkerJob(0, 0), WorkerJob(1, 1)])
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )
        with recording(TraceRecorder()) as rec:
            run_master_with_protocol(runtime, master_defn, worker_defn)
        names = [e.data["event"] for e in rec.events() if "event" in e.data]
        assert names.count("create_pool") == 1
        assert names.count("create_worker") == 2
        assert names.count("rendezvous") == 1
        assert names.count("a_rendezvous") == 1
        assert names.count("finished") == 1
        assert names.count("death_worker") == 2
        # ordering constraints
        assert names.index("create_pool") < names.index("create_worker")
        assert names.index("rendezvous") < names.index("a_rendezvous")
        assert names.index("a_rendezvous") < names.index("finished")

    def test_death_worker_is_pool_local(self):
        """Two pools' death_worker events are distinct local events."""
        from repro.manifold import Event

        first = Event.local("death_worker")
        second = Event.local("death_worker")
        assert first != second

    def test_extern_event_names_match_paper(self):
        assert CREATE_POOL.name == "create_pool"
        assert CREATE_WORKER.name == "create_worker"
        assert RENDEZVOUS.name == "rendezvous"
        assert A_RENDEZVOUS.name == "a_rendezvous"
        assert FINISHED.name == "finished"


class TestInterfaceValidation:
    def test_master_requires_dataport(self, runtime):
        plain = runtime.create(AtomicDefinition("NoDataport", lambda p: None))
        with pytest.raises(ProcessError):
            MasterProtocolClient(plain)

    def test_worker_rejects_non_job_payload(self, runtime):
        worker_defn = make_worker_definition("Worker", lambda x: x)
        from repro.manifold import Event, Stream

        worker = runtime.create(worker_defn, Event.local("death_worker"))
        feeder = runtime.create(AtomicDefinition("f", lambda p: None))
        Stream().connect(feeder.output, worker.input)
        worker.activate()
        feeder.output.write("not a job")
        worker.join(timeout=2.0)
        assert isinstance(worker.failure, ProcessError)

    def test_worker_failure_is_recorded(self, runtime):
        def explode(x):
            raise ValueError("bad job")

        worker_defn = make_worker_definition("Worker", explode)
        from repro.manifold import Event, Stream

        worker = runtime.create(worker_defn, Event.local("death_worker"))
        feeder = runtime.create(AtomicDefinition("f", lambda p: None))
        Stream().connect(feeder.output, worker.input)
        worker.activate()
        feeder.output.write(WorkerJob(0, 0))
        worker.join(timeout=2.0)
        assert isinstance(worker.failure, ValueError)

    def test_coordinator_message_trace(self, runtime):
        """The MES(...) messages of the protocol source appear in the
        coordinator's trace."""
        worker_defn = make_worker_definition("Worker", lambda x: x)
        rec = TraceRecorder()
        traces = []

        def master_body(proc):
            client = MasterProtocolClient(proc, timeout=20)
            client.run_pool([WorkerJob(0, 0)])
            client.finished()

        master_defn = AtomicDefinition(
            "Master", master_body, in_ports=("input", "dataport")
        )

        def main_body():
            block = Block("Main")

            @block.state(BEGIN)
            def begin(ctx):
                master = ctx.spawn(master_defn)
                ctx.run_block(protocol_mw(master, worker_defn))
                traces.append([
                    e.data["text"] for e in rec.events()
                    if e.kind == "manifold_message" and e.worker == ctx.coordinator.name
                ])
                ctx.terminated(master)
                ctx.halt()

            return block

        main = Coordinator(runtime, "Main", main_body, deadline=20)
        with recording(rec):
            run_application(runtime, main, timeout=20)
        (trace,) = traces
        assert "begin" in trace
        assert "create_worker: begin" in trace
        assert "rendezvous acknowledged" in trace
