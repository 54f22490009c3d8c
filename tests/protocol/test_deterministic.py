"""One pool of ``ProtocolMW``, step by step, with the test thread in every role.

The protocol's state bodies are generators, so each transition is over
when the ``raise_event`` that caused it returns.  The test creates the
master and never activates it; the protocol creates three workers, which
are never activated either.  The test thread raises the master's and the
workers' events, moves the units a master and its workers would, and
checks the protocol after every raise: no sleep, no timeout, no thread
of its own (the two ``variable`` processes take none, as nothing wires
them).
"""

from __future__ import annotations

import time

import pytest

from repro.manifold import (
    AtomicDefinition,
    Coordinator,
    ProcessReference,
    ProcessState,
    Variable,
)
from repro.protocol import (
    MasterProtocolClient,
    WorkerJob,
    WorkerResult,
    make_worker_definition,
    protocol_mw,
)
from repro.protocol.events import events_for
from repro.trace import TraceRecorder, recording

WORKERS = 3


def _forbidden_sleep(seconds):
    raise AssertionError("the deterministic protocol suite must not sleep")


@pytest.fixture(autouse=True)
def no_sleep(monkeypatch):
    monkeypatch.setattr(time, "sleep", _forbidden_sleep)


@pytest.fixture
def rec():
    with recording(TraceRecorder()) as recorder:
        yield recorder


def live_variables(runtime) -> dict[str, Variable]:
    return {
        proc.definition_name: proc
        for proc in runtime.live_processes()
        if isinstance(proc, Variable)
    }


def test_one_pool_one_raise_at_a_time(runtime, rec):
    master = runtime.create(
        AtomicDefinition("Master", lambda proc: None, in_ports=("input", "dataport"))
    )
    ev = events_for(master)
    client = MasterProtocolClient(master)
    main = Coordinator(
        runtime, "Main", protocol_mw(master, make_worker_definition("Worker", abs))
    )
    main.activate()  # begin: terminated(master), entered before activate returns
    assert main.state is ProcessState.ACTIVE

    def acknowledged() -> bool:
        return any(occ.event == ev.a_rendezvous for occ in client._memory.snapshot())

    master.raise_event(ev.create_pool)
    variables = live_variables(runtime)
    assert sorted(variables) == ["now", "t"]
    now, t = variables["now"], variables["t"]
    assert (now.get(), t.get()) == (0, 0)

    workers, job_streams, result_streams = [], [], []
    for n in range(WORKERS):
        master.raise_event(ev.create_worker)
        assert (now.get(), t.get()) == (n + 1, 0)
        # the previous create_worker state was preempted: its BK streams
        # are broken at their source, its KK stream is kept
        assert all(stream.source_broken for stream in job_streams)
        assert not any(stream.source_broken for stream in result_streams)
        assert not acknowledged()

        ref = master.port("input").try_read()  # &worker -> master
        assert isinstance(ref, ProcessReference)
        worker = ref.process
        assert worker.state is ProcessState.CREATED
        (job_stream,) = master.port("output").attached_streams()
        master.port("output").write(WorkerJob(n, -n))  # master -> worker
        assert worker.port("input").try_read() == WorkerJob(n, -n)
        (result_stream,) = worker.port("output").attached_streams()
        worker.port("output").write(WorkerResult(n, n))  # worker -> master.dataport
        workers.append(worker)
        job_streams.append(job_stream)
        result_streams.append(result_stream)

    dataport = master.port("dataport")
    assert [dataport.try_read() for _ in range(WORKERS)] == [
        WorkerResult(n, n) for n in range(WORKERS)
    ]

    for worker in workers:
        (death_worker,) = worker.parameters
        worker.raise_event(death_worker)  # saved until the rendezvous
        assert (now.get(), t.get()) == (WORKERS, 0)
        assert not acknowledged()

    master.raise_event(ev.rendezvous)
    assert (now.get(), t.get()) == (WORKERS, WORKERS)
    assert all(stream.source_broken for stream in job_streams)
    assert not any(stream.source_broken for stream in result_streams)
    assert acknowledged()
    # `now` and `t` are auto processes of the pool: gone with it
    assert live_variables(runtime) == {}
    assert now.state is t.state is ProcessState.TERMINATED
    assert all(worker.state is ProcessState.CREATED for worker in workers)
    assert main.state is ProcessState.ACTIVE

    master.raise_event(ev.finished)
    assert main.state is ProcessState.TERMINATED
    assert [
        e.data["text"] for e in rec.events()
        if e.kind == "manifold_message" and e.worker == main.name
    ] == ["begin"] + ["create_worker: begin"] * WORKERS + [
        "rendezvous acknowledged"
    ]
