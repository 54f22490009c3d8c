"""Per-layer probes: direct calls into each layer's public functions.

The traced pass runs this whole suite after the workload's own traced
reps, whichever workload it is, so a per-layer metric means the same
thing in every record.  Repetition counts are fixed; every number comes
from the program's public results, a ``TraceRecorder`` passed through
``trace=``, or a timer around one public call.
"""

from __future__ import annotations

import pickle
import socket
import threading
import time
from typing import Callable

import numpy as np

from repro.perf.dataplane import DataPlane, write_through_lease
from repro.resilience import RetryPolicy
from repro.restructured import (
    SocketTaskEngine,
    SubsolveJobSpec,
    TaskInstanceEngine,
    acquire_pool,
    pool_diagnostics,
    run_concurrent,
    run_multiprocessing,
    shutdown_pool,
)
from repro.restructured.netengine import recv_frame, send_frame
from repro.sparsegrid import FactorCache, combine, nested_loop_grids, subsolve
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.linsolve import RosenbrockSystemSolver
from repro.sparsegrid.registry import make_problem
from repro.sparsegrid.rosenbrock import GAMMA
from repro.trace import TraceAnalysis, TraceRecorder

from e2e_core import aba_overhead, median, quartiles
from e2e_workloads import (
    FAULT_KEYS,
    FAULTS,
    NO_FAULTS,
    PROBLEM,
    PROCESSES,
    ROOT,
    TOL,
    noop_pools_ok,
    run_noop_pools,
    sequential_reference,
)


def seconds_taken(call: Callable[[], object]) -> float:
    started = time.perf_counter()
    call()
    return time.perf_counter() - started


def p50_of(call: Callable[[], object], reps: int) -> float:
    return median([seconds_taken(call) for _ in range(reps)])


class Probes:
    """Runs the suite; ``metrics`` fills up, ``attempted``/``failed``
    count every probe run whose output had an oracle."""

    def __init__(self, inputs: dict) -> None:
        self.kw = inputs["problem_kwargs"]
        self.payloads = inputs["noop_payloads"]
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.leaks = 0

    def checked(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1

    def run(self) -> None:
        reference7 = sequential_reference(7, self.kw)
        reference5 = sequential_reference(5, self.kw).combined
        slowest, largest = self.parallel_l7(reference7.combined)
        self.sparsegrid(reference7, slowest)
        self.parallel_l5(reference5)
        self.resilience(reference5)
        self.pool()
        shutdown_pool()
        self.netengine(reference5, largest)
        self.taskengine()
        self.dataplane(largest.solution)
        self.trace()
        self.manifold()

    def grid_run(self, level: int, reference=None, **kwargs):
        result = run_multiprocessing(
            root=ROOT, level=level, tol=TOL, problem_kwargs=self.kw,
            processes=PROCESSES, **kwargs,
        )
        if reference is not None:
            self.checked(np.array_equal(result.combined, reference))
        return result

    # ------------------------------------------------------------------
    def parallel_l7(self, reference):
        """Six traced warm runs of the Table-1 case, decomposed."""
        for _ in range(4):
            self.grid_run(7)
        rows: dict[str, list[float]] = {}

        def note(name: str, value: float) -> None:
            rows.setdefault(name, []).append(value)

        for _ in range(6):
            recorder = TraceRecorder()
            started = time.perf_counter()
            result = self.grid_run(7, reference, trace=recorder)
            wall = time.perf_counter() - started
            compute = sum(p.wall_seconds for p in result.payloads.values())
            note("parallel.fanout_s.p50", result.pool_seconds)
            note("parallel.unattributed_frac", (
                wall - result.pool_seconds - result.combine_seconds
                - result.pool_cold_start_seconds
            ) / wall)
            note("parallel.imbalance_s.p50",
                 result.pool_seconds - compute / PROCESSES)
            note("sparsegrid.compute_sum_s", compute)
            note("sparsegrid.operator_cache_hit_ratio",
                 result.operator_cache_hit_ratio)
            note("sparsegrid.factor_reuse_ratio", result.factor_reuse_ratio)
            analysis = TraceAnalysis.from_recorder(recorder)
            note("parallel.queue_wait_s", analysis.total_queue_wait_seconds)
            note("parallel.mean_utilization", analysis.mean_utilization)
            note("parallel.critical_path_s", analysis.critical_path_seconds)
        for name, values in rows.items():
            self.metrics[name] = median(values)
        self.metrics["sparsegrid.steps"] = sum(
            p.steps_accepted + p.steps_rejected
            for p in result.payloads.values()
        )
        self.metrics["parallel.jobs"] = len(result.payloads)
        self.metrics["parallel.attempts"] = result.attempts
        self.metrics["trace.events_per_run"] = len(recorder)
        self.metrics["trace.analysis_s.p50"] = p50_of(
            lambda: TraceAnalysis.from_recorder(recorder).critical_path_seconds,
            10,
        )
        payloads = result.payloads.values()
        # the heaviest level-7 grid, by compute and by bytes on the wire
        return (
            max(payloads, key=lambda p: p.wall_seconds),
            max(payloads, key=lambda p: p.solution.nbytes),
        )

    def sparsegrid(self, reference7, slowest) -> None:
        problem = make_problem(PROBLEM, **self.kw)
        grid = next(
            g for g in nested_loop_grids(ROOT, 7)
            if (g.l, g.m) == (slowest.l, slowest.m)
        )
        self.metrics["sparsegrid.subsolve_cold_s.p50"] = p50_of(
            lambda: subsolve(problem, grid, TOL), 5
        )
        operator = SpatialOperator(grid, problem)
        factors = FactorCache()
        subsolve(problem, grid, TOL, operator=operator, factor_cache=factors)
        self.metrics["sparsegrid.subsolve_warm_s.p50"] = p50_of(
            lambda: subsolve(
                problem, grid, TOL, operator=operator, factor_cache=factors
            ), 10,
        )
        self.metrics["sparsegrid.assemble_s.p50"] = p50_of(
            lambda: SpatialOperator(grid, problem), 10
        )
        solver = RosenbrockSystemSolver(operator.J, GAMMA)
        steps = iter(1.0e-3 * (1 + i) for i in range(10))
        self.metrics["sparsegrid.factor_s.p50"] = p50_of(
            lambda: solver.prepare(next(steps)), 10
        )
        solutions = reference7.data.solutions()
        self.metrics["sparsegrid.combine_s.p50"] = p50_of(
            lambda: combine(solutions, ROOT, 7, target_cap=8), 20
        )

    def parallel_l5(self, reference) -> None:
        self.metrics["parallel.floor_run_s.p50"] = p50_of(
            lambda: self.grid_run(1), 20
        )
        for _ in range(3):
            self.grid_run(5)
        plain, resilient = [], []
        for _ in range(12):
            plain.append(seconds_taken(lambda: self.grid_run(5, reference)))
            resilient.append(seconds_taken(
                lambda: self.grid_run(5, reference, faults=NO_FAULTS)
            ))
        self.metrics["parallel.resilient_tax_s"] = aba_overhead(
            resilient, plain
        )

    def resilience(self, reference) -> None:
        """A-B-A at level 5 on the pool the previous probe left warm."""
        control, faulted, rows = [], [], {}

        def fault_free() -> None:
            control.append(seconds_taken(
                lambda: self.grid_run(5, reference, faults=NO_FAULTS)
            ))

        for _ in range(4):
            fault_free()
        for _ in range(8):
            recorder = TraceRecorder()
            started = time.perf_counter()
            result = self.grid_run(5, reference, faults=FAULTS, trace=recorder)
            faulted.append(time.perf_counter() - started)
            analysis = TraceAnalysis.from_recorder(recorder)
            for name, value in (
                ("resilience.backoff_traced_s", analysis.retry_backoff_seconds),
                ("resilience.lost_s", analysis.fault_seconds_lost),
                ("resilience.replay_compute_s", analysis.replay_compute_seconds),
                ("resilience.recovery_overhead_traced_s",
                 analysis.recovery_overhead_seconds),
            ):
                rows.setdefault(name, []).append(value)
        for _ in range(4):
            fault_free()
        for name, values in rows.items():
            self.metrics[name] = median(values)
        self.checked(
            (result.faults, result.recovered, result.fallbacks) == (2, 2, 0)
        )
        self.metrics["resilience.recovery_overhead_s"] = aba_overhead(
            faulted, control
        )
        self.metrics["resilience.faults"] = result.faults
        self.metrics["resilience.recovered"] = result.recovered
        self.metrics["resilience.fallbacks"] = result.fallbacks
        self.metrics["resilience.retries"] = analysis.n_retries
        # what the policy plans to wait for the two first-attempt faults:
        # the floor recovery pays while the pool loop sleeps through the
        # backoff on its dispatch thread
        self.metrics["resilience.backoff_planned_s"] = sum(
            RetryPolicy().delay_seconds(1, key) for key in FAULT_KEYS
        )

    def pool(self) -> None:
        def cold_start() -> float:
            shutdown_pool()
            return seconds_taken(lambda: acquire_pool(PROCESSES))

        self.metrics["pool.cold_start_s.p50"] = median(
            [cold_start() for _ in range(5)]
        )

        def hundred_acquires() -> None:
            for _ in range(100):
                acquire_pool(PROCESSES)

        self.metrics["pool.warm_acquire_s.p50"] = (
            p50_of(hundred_acquires, 10) / 100
        )
        self.metrics["pool.respawns"] = pool_diagnostics()["respawns"]

    def netengine(self, reference, largest) -> None:
        spawn, dispatch, wire = [], [], []
        for _ in range(3):
            started = time.perf_counter()
            result = self.grid_run(
                5, reference, engine="socket", hosts=f"localhost:{PROCESSES}"
            )
            wall = time.perf_counter() - started
            spawn.append(result.pool_cold_start_seconds)
            dispatch.append(wall - result.pool_cold_start_seconds)
            wire.append(result.net_send_seconds + result.net_recv_seconds)
        self.metrics["netengine.spawn_s.p50"] = median(spawn)
        self.metrics["netengine.dispatch_s.p50"] = median(dispatch)
        self.metrics["netengine.wire_s.p50"] = median(wire)
        self.metrics["netengine.bytes_sent"] = result.net_bytes_sent
        self.metrics["netengine.bytes_received"] = result.net_bytes_received
        self.metrics["netengine.reconnects"] = result.reconnects

        left, right = socket.socketpair()
        try:
            def roundtrip() -> int:
                sent, _ = send_frame(left, "result", largest)
                kind, data, received, _ = recv_frame(right)
                return sent if (kind, received) == ("result", sent) else -1

            self.metrics["netengine.frame_roundtrip_s.p50"] = p50_of(
                roundtrip, 50
            )
            self.metrics["netengine.frame_bytes"] = roundtrip()
        finally:
            left.close()
            right.close()
        self.checked(self.metrics["netengine.frame_bytes"] > 0)

        boot, close = [], []
        for _ in range(3):
            started = time.perf_counter()
            engine = SocketTaskEngine(f"localhost:{PROCESSES}")
            boot.append(time.perf_counter() - started)
            close.append(seconds_taken(engine.close))
        self.metrics["netengine.engine_boot_s.p50"] = median(boot)
        self.metrics["netengine.engine_close_s.p50"] = median(close)

    def taskengine(self) -> None:
        spec = SubsolveJobSpec(
            problem_name=PROBLEM, root=ROOT, l=1, m=1, tol=TOL,
            problem_kwargs=tuple(sorted(self.kw.items())),
        )

        def first_job() -> float:
            engine = TaskInstanceEngine()
            try:
                return seconds_taken(lambda: engine.compute(spec))
            finally:
                engine.close()

        self.metrics["taskengine.first_job_s.p50"] = median(
            [first_job() for _ in range(5)]
        )
        engine = TaskInstanceEngine()
        try:
            engine.compute(spec)
            self.metrics["taskengine.next_job_s.p50"] = p50_of(
                lambda: engine.compute(spec), 20
            )
        finally:
            engine.close()

    def dataplane(self, array: np.ndarray) -> None:
        plane = DataPlane()
        try:
            def shm_roundtrip() -> None:
                lease = plane.lease((0, 0), array.nbytes)
                view = plane.attach(write_through_lease(lease, array))
                if view[-1, -1] != array[-1, -1]:
                    raise AssertionError("shm payload differs")
                del view
                plane.release(lease.name)

            self.metrics["dataplane.shm_roundtrip_s.p50"] = p50_of(
                shm_roundtrip, 50
            )
        finally:
            audit = plane.close()
        self.leaks += 0 if audit.clean else 1
        self.metrics["dataplane.leaks"] = 0 if audit.clean else 1
        self.metrics["dataplane.pickle_roundtrip_s.p50"] = p50_of(
            lambda: pickle.loads(
                pickle.dumps(array, protocol=pickle.HIGHEST_PROTOCOL)
            ), 50,
        )
        self.metrics["dataplane.payload_bytes"] = array.nbytes

    def trace(self) -> None:
        def ten_thousand_records() -> None:
            recorder = TraceRecorder()
            for _ in range(10_000):
                recorder.record("job_submit", key=(1, 2), attempt=1)

        self.metrics["trace.record_s.p50"] = (
            p50_of(ten_thousand_records, 5) / 10_000
        )

    def manifold(self) -> None:
        pool31 = [self.payloads]
        threads: list[int] = []

        def counting(value):
            threads.append(threading.active_count())
            return value

        for _ in range(100):
            run_noop_pools(pool31)
        self.checked(noop_pools_ok(pool31, run_noop_pools(pool31, counting)))
        self.metrics["manifold.threads_peak"] = max(threads)
        self.metrics["manifold.per_worker_s"] = (
            p50_of(lambda: run_noop_pools(pool31), 40) / len(self.payloads)
        )
        self.metrics["manifold.noop1_s.p50"] = p50_of(
            lambda: run_noop_pools([self.payloads[:1]]), 50
        )
        churn = [self.payloads[i * 4:i * 4 + 4] for i in range(5)]
        self.metrics["manifold.churn_4x5_s.p50"] = p50_of(
            lambda: run_noop_pools(churn), 20
        )
        app = [
            seconds_taken(lambda: run_concurrent(
                root=ROOT, level=3, tol=TOL, problem_kwargs=self.kw
            ))
            for _ in range(20)
        ]
        q1, q3 = quartiles(app)
        self.metrics["manifold.app_l3_s.p50"] = median(app)
        self.metrics["manifold.app_l3_s.q1"] = q1
        self.metrics["manifold.app_l3_s.q3"] = q3
