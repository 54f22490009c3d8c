"""The discrete-event cluster simulator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import (
    EthernetModel,
    GridCost,
    MultiUserNoise,
    SimulationParams,
    paper_cluster,
    simulate_distributed,
    simulate_sequential,
    uniform_cluster,
)


def quiet_params(**overrides) -> SimulationParams:
    defaults = dict(noise=MultiUserNoise.quiet())
    defaults.update(overrides)
    return SimulationParams(**defaults)


def costs_for(works: list[float], result_bytes: int = 10_000) -> list[GridCost]:
    return [
        GridCost(l=i, m=0, work_ref_seconds=w, result_bytes=result_bytes)
        for i, w in enumerate(works)
    ]


def run(works, params=None, cluster=None, seed=0, pools=None, prol=0.0):
    params = params or quiet_params()
    cluster = cluster or uniform_cluster(8)
    pools = pools if pools is not None else [costs_for(works)]
    return simulate_distributed(
        pools, cluster, params, np.random.default_rng(seed),
        master_prolongation_ref_seconds=prol,
    )


class TestSequentialSimulation:
    def test_elapsed_is_work_plus_overheads(self):
        params = quiet_params()
        seq = simulate_sequential(
            costs_for([1.0, 2.0, 3.0]), uniform_cluster(1)[0], params,
            np.random.default_rng(0),
        )
        assert seq.elapsed_seconds == pytest.approx(
            0.05 + params.master_init_seconds + 6.0, rel=1e-6
        )

    def test_faster_host_is_faster(self):
        params = quiet_params()
        slow = simulate_sequential(
            costs_for([10.0]), uniform_cluster(1, 1200)[0], params,
            np.random.default_rng(0),
        )
        fast = simulate_sequential(
            costs_for([10.0]), uniform_cluster(1, 1466)[0], params,
            np.random.default_rng(0),
        )
        assert fast.elapsed_seconds < slow.elapsed_seconds

    def test_noise_increases_elapsed(self):
        noisy = SimulationParams(
            noise=MultiUserNoise(jitter_sigma=0.0, background_probability=1.0)
        )
        base = simulate_sequential(
            costs_for([100.0]), uniform_cluster(1)[0], quiet_params(),
            np.random.default_rng(0),
        )
        perturbed = simulate_sequential(
            costs_for([100.0]), uniform_cluster(1)[0], noisy,
            np.random.default_rng(0),
        )
        assert perturbed.elapsed_seconds > base.elapsed_seconds

    def test_prolongation_included(self):
        a = simulate_sequential(
            costs_for([1.0]), uniform_cluster(1)[0], quiet_params(),
            np.random.default_rng(0),
        )
        b = simulate_sequential(
            costs_for([1.0]), uniform_cluster(1)[0], quiet_params(),
            np.random.default_rng(0), prolongation_ref_seconds=5.0,
        )
        assert b.elapsed_seconds == pytest.approx(a.elapsed_seconds + 5.0)


class TestDistributedSimulation:
    def test_deterministic_given_seed(self):
        a = run([1.0, 2.0, 3.0], seed=42)
        b = run([1.0, 2.0, 3.0], seed=42)
        assert a.elapsed_seconds == b.elapsed_seconds

    def test_all_workers_present(self):
        result = run([1.0] * 5)
        assert result.n_workers == 5
        assert sorted(w.grid for w in result.workers) == [(i, 0) for i in range(5)]

    def test_workers_overlap_in_time(self):
        """Concurrency: with big equal jobs, intervals overlap."""
        result = run([30.0] * 4)
        starts = [w.welcome for w in result.workers]
        ends = [w.bye for w in result.workers]
        assert max(starts) < min(ends)

    def test_elapsed_below_serial_sum_for_big_jobs(self):
        works = [50.0] * 6
        dist = run(works)
        assert dist.elapsed_seconds < sum(works)

    def test_elapsed_above_max_single_job(self):
        works = [50.0, 40.0, 30.0]
        dist = run(works)
        assert dist.elapsed_seconds > 50.0

    def test_small_jobs_dominated_by_overhead(self):
        """The paper's no-gain regime: tiny work, elapsed ~ constants."""
        params = quiet_params()
        dist = run([0.01] * 5, params=params)
        floor = params.startup_seconds + 5 * params.handshake_seconds
        assert dist.elapsed_seconds > floor

    def test_task_reuse_with_tiny_jobs(self):
        """Workers die before the next fork: tasks are reused and fewer
        machines than workers are needed (the paper's §6 observation)."""
        result = run([0.01] * 10)
        assert result.n_tasks_forked < 10

    def test_no_reuse_with_long_jobs(self):
        result = run([60.0] * 6)
        assert result.n_tasks_forked == 6

    def test_non_perpetual_never_reuses(self):
        result = run([0.01] * 6, params=quiet_params(perpetual=False))
        assert result.n_tasks_forked == 6

    def test_dead_instance_frees_its_machine(self):
        """Non-perpetual, more workers than worker machines: each
        instance dies after its worker's Bye and hands its machine back,
        and the next worker forks on it; no worker lands in a dead
        instance without a fork."""
        result = run(
            [0.01] * 6, params=quiet_params(perpetual=False),
            cluster=uniform_cluster(3),
        )
        assert result.n_tasks_forked == 6
        assert all(w.forked_task for w in result.workers)
        assert [w.task_id for w in result.workers] == [1, 2, 3, 4, 5, 6]

    def test_workers_per_task_bundles(self):
        result = run([5.0] * 6, params=quiet_params(workers_per_task=6))
        assert result.n_tasks_forked == 1

    def test_heterogeneous_hosts_speed_work(self):
        """A 1466 MHz host finishes the same work faster."""
        params = quiet_params()
        slow = run([24.0], cluster=uniform_cluster(2, 1200), params=params)
        fast = run([24.0], cluster=uniform_cluster(2, 1466), params=params)
        slow_w = slow.workers[0]
        fast_w = fast.workers[0]
        assert fast_w.compute_seconds < slow_w.compute_seconds

    def test_result_bytes_serialize_on_master_nic(self):
        """Bigger results, later arrivals: the master's NIC is the
        bottleneck the paper concedes."""
        small = run([5.0] * 8, pools=[costs_for([5.0] * 8, result_bytes=1_000)])
        big = run([5.0] * 8, pools=[costs_for([5.0] * 8, result_bytes=5_000_000)])
        assert big.elapsed_seconds > small.elapsed_seconds + 2.0

    def test_ship_initial_data_costs_time(self):
        costs = costs_for([5.0] * 6, result_bytes=5_000_000)
        with_data = run(None, pools=[costs], params=quiet_params(ship_initial_data=True))
        without = run(None, pools=[costs], params=quiet_params(ship_initial_data=False))
        assert with_data.elapsed_seconds > without.elapsed_seconds

    def test_two_pools_form_a_barrier(self):
        """Splitting into pools serializes: elapsed grows."""
        works = [20.0] * 6
        single = run(works)
        double = run(None, pools=[costs_for(works[:3]), costs_for(works[3:])])
        assert double.elapsed_seconds > single.elapsed_seconds

    def test_breakdown_accounts_for_elapsed(self):
        result = run([10.0, 20.0, 5.0])
        b = result.breakdown
        assert b["fork"] > 0
        assert b["handshake"] > 0
        assert b["work_critical"] == pytest.approx(
            max(w.compute_seconds for w in result.workers)
        )

    def test_prolongation_on_master(self):
        base = run([1.0])
        with_prol = run([1.0], prol=7.0)
        assert with_prol.elapsed_seconds == pytest.approx(
            base.elapsed_seconds + 7.0, rel=1e-6
        )
        assert with_prol.breakdown["prolongation"] == pytest.approx(7.0)

    def test_cluster_exhaustion_queues_workers(self):
        """More long jobs than machines: placement waits, elapsed grows
        beyond the single-wave time."""
        cluster = uniform_cluster(4)  # master + 3 worker machines
        result = run([30.0] * 9, cluster=cluster)
        assert result.n_tasks_forked <= 3
        assert result.elapsed_seconds > 60.0

    def test_master_host_not_used_for_workers(self):
        result = run([5.0] * 4)
        assert all(w.host.name != result.master_host.name for w in result.workers)

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            simulate_distributed(
                [costs_for([1.0])], [], quiet_params(), np.random.default_rng(0)
            )

    def test_invalid_cost_rejected(self):
        with pytest.raises(ValueError):
            GridCost(l=0, m=0, work_ref_seconds=-1.0, result_bytes=0)
        with pytest.raises(ValueError):
            GridCost(l=0, m=0, work_ref_seconds=1.0, result_bytes=-1)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            SimulationParams(workers_per_task=0)

    def test_speedup_crossover_shape(self):
        """The Table 1 shape in miniature: overhead-dominated at small
        work, speedup > 1 once per-worker work dwarfs the constants."""
        params = quiet_params()
        host = uniform_cluster(1)[0]

        def speedup(per_worker: float, n: int = 9) -> float:
            works = [per_worker] * n
            st = simulate_sequential(
                costs_for(works), host, params, np.random.default_rng(0)
            ).elapsed_seconds
            ct = run(works, params=params, cluster=uniform_cluster(12)).elapsed_seconds
            return st / ct

        assert speedup(0.05) < 1.0
        assert speedup(60.0) > 3.0


class TestPinnedPerpetualPlacement:
    """Perpetual placement, pinned number for number: reuse of emptied
    instances, two workers per instance, and workers waiting for a slot
    when every machine is taken.  Each row is a worker's
    ``(grid, host, task_id, forked_task, welcome, bye)`` in trace order;
    ``task_id`` numbers the run's task instances with the master's as 0."""

    def check(self, result, elapsed, rows):
        assert result.elapsed_seconds == pytest.approx(elapsed, rel=1e-12)
        got = [
            (w.grid, w.host.name.split(".")[0], w.task_id, w.forked_task)
            for w in result.workers
        ]
        assert got == [row[:4] for row in rows]
        for w, row in zip(result.workers, rows):
            assert w.welcome == pytest.approx(row[4], rel=1e-12)
            assert w.bye == pytest.approx(row[5], rel=1e-12)

    def test_tiny_jobs_reuse_instances(self):
        self.check(run([0.01] * 6), 11.980369759999991, [
            ((0, 0), "diplice", 1, True, 7.713504799999998, 11.762369759999993),
            ((1, 0), "alboka", 2, True, 9.523009599999996, 11.763710719999994),
            ((2, 0), "diplice", 1, False, 10.082514399999996, 11.765051679999994),
            ((3, 0), "alboka", 2, False, 10.642019199999995, 11.766392639999994),
            ((4, 0), "diplice", 1, False, 11.201523999999994, 11.767733599999994),
            ((5, 0), "alboka", 2, False, 11.761028799999993, 11.772369759999993),
        ])

    def test_two_workers_per_task(self):
        result = run([5.0, 3.0, 8.0, 2.0, 6.0], params=quiet_params(workers_per_task=2))
        self.check(result, 18.66086495999999, [
            ((0, 0), "diplice", 1, True, 7.713504799999998, 12.71484576),
            ((1, 0), "diplice", 1, False, 8.273009599999996, 14.274350559999997),
            ((3, 0), "alboka", 2, False, 10.642019199999995, 14.643360159999995),
            ((2, 0), "alboka", 2, True, 10.082514399999996, 18.083855359999994),
            ((4, 0), "altfluit", 3, True, 12.451523999999994, 18.452864959999992),
        ])

    def test_more_workers_than_machines_wait(self):
        result = run([30.0, 10.0, 20.0, 30.0, 5.0, 15.0], cluster=uniform_cluster(3))
        self.check(result, 68.47969151999999, [
            ((1, 0), "alboka", 2, True, 9.523009599999996, 46.194887839999986),
            ((0, 0), "diplice", 1, True, 7.713504799999998, 46.196228799999986),
            ((2, 0), "alboka", 2, False, 20.079855359999996, 46.197569759999986),
            ((4, 0), "alboka", 2, False, 40.63670111999999, 46.198910719999986),
            ((5, 0), "alboka", 2, False, 46.193546879999985, 61.194887839999986),
            ((3, 0), "diplice", 1, False, 38.27035055999999, 68.27169151999999),
        ])


def random_configurations(n: int, seed: int = 2024):
    """``n`` seeded simulator inputs covering every placement path:
    perpetual or not, 1–3 workers per task, I/O workers, 1–3 pools,
    2–8 machines (so workers wait for one), quiet or noisy hosts, and
    results large enough to queue on a NIC."""
    from repro.cluster.scenarios import SCENARIOS

    rng = np.random.default_rng(seed)
    scenarios = list(SCENARIOS.values())
    for _ in range(n):
        n_workers = int(rng.integers(1, 21))
        works = np.exp(rng.uniform(np.log(1e-3), np.log(30.0), size=n_workers))
        sizes = rng.integers(0, 6_000_000, size=n_workers)
        costs = [
            GridCost(l=k, m=0, work_ref_seconds=float(w), result_bytes=int(b))
            for k, (w, b) in enumerate(zip(works, sizes))
        ]
        cuts = sorted({int(c) for c in rng.integers(1, n_workers + 1, size=2)})
        pools = [costs[a:b] for a, b in zip([0, *cuts], [*cuts, n_workers]) if a < b]
        if rng.integers(0, 4) == 0:
            scenario = scenarios[int(rng.integers(0, len(scenarios)))]
            params, cluster = scenario.params(), scenario.cluster()
        else:
            params = SimulationParams(
                perpetual=bool(rng.integers(0, 2)),
                workers_per_task=int(rng.integers(1, 4)),
                io_workers=bool(rng.integers(0, 2)),
                noise=MultiUserNoise.quiet() if rng.integers(0, 2) else MultiUserNoise(),
            )
            cluster = uniform_cluster(int(rng.integers(2, 9)))
        yield pools, cluster, params, int(rng.integers(0, 1 << 30))


class TestOneInstancePerMachine:
    """CONFIG gives a machine to one task instance at a time: a machine
    goes back only when its instance dies, which is after its last
    worker's Bye.  So no machine carries two task instances' workers
    between Welcome and Bye at the same time."""

    def test_no_machine_houses_two_live_instances(self):
        for pools, cluster, params, seed in random_configurations(400):
            result = simulate_distributed(
                pools, cluster, params, np.random.default_rng(seed)
            )
            by_host: dict[str, list] = {}
            for w in result.workers:
                by_host.setdefault(w.host.name, []).append(w)
            for intervals in by_host.values():
                for a in intervals:
                    for b in intervals:
                        if a.task_id != b.task_id:
                            assert not (a.welcome < b.bye and b.welcome < a.bye), (
                                params, a, b,
                            )
