"""Worker wrappers, job specs and compute engines."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.restructured.worker import (
    InlineEngine,
    SubsolveJobSpec,
    SubsolvePayload,
    execute_job,
    make_subsolve_worker,
)


def make_spec(**overrides) -> SubsolveJobSpec:
    base = dict(
        problem_name="rotating-cone",
        root=2,
        l=1,
        m=1,
        tol=1.0e-3,
        t_end=0.25,
    )
    base.update(overrides)
    return SubsolveJobSpec(**base)


class TestJobSpec:
    def test_spec_is_picklable(self):
        spec = make_spec()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec

    def test_grid_property(self):
        spec = make_spec(l=2, m=3)
        assert (spec.grid.l, spec.grid.m) == (2, 3)
        assert spec.grid.root == 2

    def test_problem_kwargs_roundtrip(self):
        spec = make_spec(problem_kwargs=(("diffusion", 0.01),))
        assert spec.kwargs() == {"diffusion": 0.01}


class TestExecuteJob:
    def test_returns_payload_with_solution(self):
        payload = execute_job(make_spec())
        assert isinstance(payload, SubsolvePayload)
        assert payload.solution.shape == make_spec().grid.shape
        assert payload.steps_accepted > 0
        assert payload.solves >= 2 * payload.steps_accepted
        assert payload.wall_seconds > 0

    def test_deterministic(self):
        a = execute_job(make_spec())
        b = execute_job(make_spec())
        assert np.array_equal(a.solution, b.solution)

    def test_problem_kwargs_affect_result(self):
        a = execute_job(make_spec())
        b = execute_job(make_spec(problem_kwargs=(("diffusion", 0.05),)))
        assert not np.array_equal(a.solution, b.solution)

    def test_payload_is_picklable(self):
        payload = execute_job(make_spec())
        clone = pickle.loads(pickle.dumps(payload))
        assert np.array_equal(clone.solution, payload.solution)


class TestEngines:
    def test_inline_engine_matches_direct_call(self):
        engine = InlineEngine()
        assert np.array_equal(
            engine.compute(make_spec()).solution, execute_job(make_spec()).solution
        )

    def test_worker_definition_uses_engine(self, runtime):
        from repro.manifold import Event, Stream
        from repro.protocol import WorkerJob

        engine = InlineEngine()
        defn = make_subsolve_worker(engine)
        worker = runtime.create(defn, Event.local("death_worker"))
        feeder = runtime.create(
            __import__("repro.manifold", fromlist=["AtomicDefinition"]).AtomicDefinition(
                "f", lambda p: None
            )
        )
        collector = runtime.create(
            __import__("repro.manifold", fromlist=["AtomicDefinition"]).AtomicDefinition(
                "c", lambda p: None
            )
        )
        Stream().connect(feeder.output, worker.input)
        Stream().connect(worker.output, collector.input)
        worker.activate()
        feeder.output.write(WorkerJob((1, 1), make_spec()))
        result = collector.input.read(timeout=30)
        assert result.job_id == (1, 1)
        assert isinstance(result.payload, SubsolvePayload)
