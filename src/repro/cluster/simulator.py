"""Discrete-event simulation of the restructured application's runs.

The simulator reproduces the timing structure of §6/§7 without the
authors' testbed:

* placement is made by the real run's engine, ``manifold.TaskManager``
  with a CONFIG ``HostMapper``, on virtual time: the master (and the
  ``Main`` coordinator) live in the first task instance on the start-up
  machine; each ``create_worker`` joins a non-full task instance (an
  emptied perpetual one lets a run use fewer machines than workers) or
  forks one on a free machine, or waits for a slot or a machine (a
  non-perpetual instance dies, freeing both, at its last worker's Bye);
* the master passes all data to and from the workers, so every job and
  every result serializes through the master's NIC (§4.1);
* per-grid compute time is ``work_ref / host.speed_factor * noise``,
  with ``work_ref`` from the calibrated cost model (reference machine =
  the 1200 MHz Athlon class);
* the master's creation loop, result reading, rendezvous and final
  prolongation follow the behaviour interface of §4.3 step by step.

Approximation (documented): the master's job sends reserve the NIC in
program order, and result transfers are serialized in compute-completion
order behind them.  Interleavings where an early result races a late
job send are resolved in favour of the send; at the message sizes
involved this shifts arrivals by at most one transfer time.  A
non-perpetual master waiting for a machine reads the next result first.

The result records everything the paper reports: the elapsed time, the
per-worker Welcome/Bye intervals (Figure 1's raw data), and a full
overhead decomposition (the §7 overhead categories, itemized).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from repro.manifold.config import ConfigSpec, HostMapper
from repro.manifold.errors import ConfigError
from repro.manifold.mlink import LinkSpec, TaskPattern
from repro.manifold.task import TaskInstance, TaskManager

from .host import Host
from .network import EthernetModel
from .noise import MultiUserNoise, NoiseSample

__all__ = [
    "GridCost",
    "SimulationParams",
    "WorkerInterval",
    "DistributedRun",
    "SequentialRun",
    "simulate_distributed",
    "simulate_sequential",
]


@dataclass(frozen=True)
class GridCost:
    """The cost-model summary of one ``subsolve(l, m)`` call."""

    l: int
    m: int
    #: wall seconds of the subsolve on the reference (1200 MHz) machine
    work_ref_seconds: float
    #: bytes of the result (the full nodal solution array)
    result_bytes: int
    #: bytes the master sends the worker (job spec; plus the grid data
    #: when the configuration ships initial data)
    job_bytes: int = 2048

    def __post_init__(self) -> None:
        if self.work_ref_seconds < 0:
            raise ValueError(f"work must be non-negative, got {self.work_ref_seconds}")
        if self.result_bytes < 0 or self.job_bytes < 0:
            raise ValueError("byte counts must be non-negative")


@dataclass
class SimulationParams:
    """Timing constants of the coordination layer and the run set-up.

    Defaults are chosen to be plausible for the paper's 2003-era
    MANIFOLD-over-PVM deployment and are validated against the paper's
    small-level concurrent times (where the constants dominate):
    ``ct(0) ~ 7.7 s`` and the near-linear growth of ``ct`` with the
    worker count through the no-gain levels.
    """

    #: application start: MLINK'ed executable load, CONFIG, first task
    startup_seconds: float = 5.8
    #: master's sequential initialization ("some initial computations")
    master_init_seconds: float = 0.1
    #: one event propagation between process instances
    event_latency_seconds: float = 0.004
    #: forking a fresh task instance on a (remote) machine
    fork_seconds: float = 1.25
    #: per-worker creation/handshake cost even on a reused task instance
    handshake_seconds: float = 0.55
    #: does the master ship the grid's initial data to the worker?
    ship_initial_data: bool = True
    #: application wind-down after the master's Bye
    shutdown_seconds: float = 0.2
    network: EthernetModel = field(default_factory=EthernetModel)
    noise: MultiUserNoise = field(default_factory=MultiUserNoise)
    #: task-instance load limit for Worker instances (1 = the paper's
    #: distributed config: one worker per task; larger values re-bundle
    #: workers into shared task instances, the "parallel" config)
    workers_per_task: int = 1
    #: emptied task instances stay alive for reuse ({perpetual})
    perpetual: bool = True
    #: the §4.1 alternative the authors did not try: dedicated I/O
    #: workers relieve the master of data passing — job and result
    #: transfers spread over ``n_io_workers`` NICs instead of
    #: serializing through the master's, at extra coordination cost
    io_workers: bool = False
    n_io_workers: int = 4
    #: extra per-worker coordination when I/O workers are interposed
    io_worker_overhead_seconds: float = 0.15
    #: chaos model: a :class:`~repro.resilience.FaultPlan` consulted per
    #: (grid, attempt) — the same plan object that drives real process
    #: kills in the fork pool drives simulated ones on the testbed.
    #: ``slow`` stretches the compute; ``crash``/``hang``/``raise`` cost
    #: wasted compute plus detection plus a re-fork and handshake on the
    #: retry, itemized under ``breakdown["recovery"]``
    fault_plan: object = None
    #: master-side time to detect a dead or hung worker (deadline poll)
    recovery_detect_seconds: float = 1.5
    #: attempts per grid before the simulated master gives up (mirrors
    #: :class:`~repro.resilience.RetryPolicy.max_attempts`)
    max_fault_attempts: int = 3
    #: fraction of an attempt's compute wasted when the worker dies
    crash_waste_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.workers_per_task < 1:
            raise ValueError(
                f"workers_per_task must be >= 1, got {self.workers_per_task}"
            )
        if self.max_fault_attempts < 1:
            raise ValueError(
                f"max_fault_attempts must be >= 1, got {self.max_fault_attempts}"
            )


@dataclass(frozen=True)
class WorkerInterval:
    """One worker's life, as the trace records it."""

    grid: tuple[int, int]
    host: Host
    task_id: int        # its task instance, numbered per run (master's = 0)
    welcome: float      # worker starts (has its job)
    bye: float          # worker dies (result delivered)
    compute_seconds: float
    forked_task: bool   # did this worker force a fresh task instance?


@dataclass
class DistributedRun:
    """Outcome of one simulated distributed run."""

    elapsed_seconds: float
    workers: list[WorkerInterval]
    master_host: Host
    master_welcome: float
    master_bye: float
    #: overhead decomposition (the §7 categories, itemized)
    breakdown: dict[str, float]
    #: hosts that ever housed a task instance (master host first)
    hosts_used: list[Host]
    n_tasks_forked: int
    #: injected faults the simulated master recovered from
    n_faults: int = 0

    @property
    def n_workers(self) -> int:
        return len(self.workers)


@dataclass
class SequentialRun:
    """Outcome of one simulated sequential run."""

    elapsed_seconds: float
    host: Host
    noise: NoiseSample


@dataclass(eq=False)
class _Resident:
    """A process instance as ``TaskManager`` sees it; a worker's times."""

    definition_name: str
    instance_id: int
    task_instance: object = None
    cost: Optional[GridCost] = None
    welcome: float = 0.0
    compute_end: float = 0.0
    frees_at: float = 0.0  # compute end + one uncontended transfer
    forked: bool = False
    bye: Optional[float] = None  # its result has reached the master


def simulate_distributed(
    pools: Sequence[Sequence[GridCost]],
    cluster: Sequence[Host],
    params: SimulationParams,
    rng: np.random.Generator,
    *,
    master_prolongation_ref_seconds: float = 0.0,
) -> DistributedRun:
    """Simulate one distributed run of the restructured application.

    ``pools`` is the master's pool structure: one inner sequence per
    workers-pool, in the order the master requests them (the default
    configuration is a single pool containing every grid of the nested
    loop; the per-diagonal ablation passes two).
    """
    if not cluster:
        raise ValueError("cluster must contain at least one host")
    network = params.network
    network.reset()
    noise_by_host: dict[str, NoiseSample] = {
        h.name: params.noise.sample(rng) for h in cluster
    }

    master_host = cluster[0]
    master_nic = master_host.name
    breakdown = {
        "startup": params.startup_seconds,
        "master_init": params.master_init_seconds,
        "fork": 0.0,
        "handshake": 0.0,
        "events": 0.0,
        "send_wait": 0.0,
        "result_wait": 0.0,
        "work_critical": 0.0,
        "prolongation": 0.0,
        "recovery": 0.0,
        "shutdown": params.shutdown_seconds,
    }
    n_faults = 0

    # --- placement: MLINK and CONFIG on the virtual clock -------------
    host_by_name = {h.name: h for h in cluster}
    link = LinkSpec([
        TaskPattern("mainprog", weights={"Master": 1.0}),
        TaskPattern("worker", perpetual=params.perpetual,
                    load_limit=params.workers_per_task, weights={"Worker": 1.0}),
    ])
    # the master's machine is not in the workers' locus
    config = ConfigSpec(loci={"worker": [h.name for h in cluster[1:]]})
    now = 0.0
    manager = TaskManager(
        link, "worker", clock=lambda: now,
        hosts=HostMapper(config, startup_host=master_host.name),
    )
    manager.place(_Resident("Master", -1), "mainprog")
    # placed workers by the time they leave: a perpetual slot at its
    # estimated hand-off, a non-perpetual instance's worker at its bye
    busy: list[tuple[float, int, _Resident]] = []
    staged: list[_Resident] = []  # the current pool's workers

    def data_nic(index: int) -> str:
        """NIC that carries worker ``index``'s data transfers."""
        if params.io_workers:
            return f"io-worker-{index % max(1, params.n_io_workers)}"
        return master_nic

    def read(worker: _Resident) -> None:
        """Step 3(f) for one worker: its result crosses its NIC."""
        _, worker.bye = network.occupy(
            data_nic(worker.instance_id), worker.compute_end, worker.cost.result_bytes
        )
        if not params.perpetual:
            heapq.heappush(busy, (worker.bye, worker.instance_id, worker))

    def house(worker: _Resident, t: float) -> tuple[TaskInstance, float]:
        """Task instance housing ``worker`` requested at ``t``, and the time
        it is housed: ``t``, or the first release after it when every
        worker machine is full (a non-perpetual master reads a result)."""
        nonlocal now
        now = t
        while True:
            while busy and busy[0][0] <= now:
                manager.release(heapq.heappop(busy)[2])
            try:
                return manager.place(worker), now
            except ConfigError:
                unread = [w for w in staged if w.bye is None]
                if unread and not params.perpetual:
                    read(min(unread, key=lambda w: w.compute_end))
                if not busy:
                    raise RuntimeError("no worker machines in the cluster") from None
                now = max(now, busy[0][0])

    # --- the master's timeline -----------------------------------------
    t_master = params.startup_seconds
    master_welcome = t_master
    t_master += params.master_init_seconds

    workers: list[WorkerInterval] = []
    worker_counter = 0

    for pool in pools:
        # step 3(a): create_pool event to the coordinator
        t_master += params.event_latency_seconds
        breakdown["events"] += params.event_latency_seconds

        staged = []
        for cost in pool:
            # step 3(b): create_worker event
            t_master += params.event_latency_seconds
            worker = _Resident("Worker", worker_counter, cost=cost)
            task, ready = house(worker, t_master)
            # a task instance that has housed only this worker was just forked
            worker.forked = task.total_housed == 1
            host = host_by_name[task.host]
            if worker.forked:
                t_master = ready + params.fork_seconds
                breakdown["fork"] += params.fork_seconds
            else:
                t_master = ready
            t_master += params.handshake_seconds
            breakdown["handshake"] += params.handshake_seconds
            # step 3(c): &worker arrives at the master
            t_master += params.event_latency_seconds
            breakdown["events"] += 2 * params.event_latency_seconds

            # step 3(d): master writes the job (serialized on its NIC,
            # or handed to an I/O worker in the §4.1 alternative)
            send_bytes = cost.job_bytes + (
                cost.result_bytes if params.ship_initial_data else 0
            )
            nic = data_nic(worker_counter)
            if params.io_workers:
                # master only hands the job over; the I/O worker moves it
                t_master += params.io_worker_overhead_seconds
                breakdown["handshake"] += params.io_worker_overhead_seconds
                _, send_end = network.occupy(nic, t_master, send_bytes)
            else:
                _, send_end = network.occupy(nic, t_master, send_bytes)
                breakdown["send_wait"] += send_end - t_master
                t_master = send_end

            sample = noise_by_host[host.name]
            compute = cost.work_ref_seconds / host.speed_factor * sample.slowdown
            # chaos model: replay the fault plan's escalation on this
            # grid.  A fault wastes part of an attempt, then costs the
            # master a detection poll plus a re-fork and handshake for
            # the replacement worker; a slow host stretches the job.
            # The grid keeps its single trace interval — recovery is
            # folded into its compute span and itemized in the
            # breakdown, which is how the §7 decomposition would see it.
            if params.fault_plan is not None:
                recovery = 0.0
                for attempt in range(1, params.max_fault_attempts + 1):
                    action = params.fault_plan.action(cost.l, cost.m, attempt)
                    if action is None:
                        break
                    if action.kind == "slow":
                        compute *= action.factor
                        break
                    wasted = (
                        0.0
                        if action.kind == "raise"
                        else compute * params.crash_waste_fraction
                    )
                    recovery += (
                        wasted
                        + params.recovery_detect_seconds
                        + params.fork_seconds
                        + params.handshake_seconds
                    )
                    n_faults += 1
                compute += recovery
                breakdown["recovery"] += recovery
            welcome = send_end
            # single-processor hosts timeshare: a worker landing next to
            # k busy co-residents of its task instance runs ~(k+1)x
            # slower (first-order model; exact interleaving would need a
            # per-host CPU scheduler, which the ablation does not need)
            co_residents = sum(
                1 for r in task.residents if r is not worker and r.frees_at > welcome
            )
            if co_residents:
                compute *= 1 + co_residents
            worker.welcome, worker.compute_end = welcome, welcome + compute
            worker.frees_at = worker.compute_end + network.transfer_seconds(cost.result_bytes)
            if params.perpetual:
                heapq.heappush(busy, (worker.frees_at, worker_counter, worker))
            staged.append(worker)
            worker_counter += 1

        # step 3(f): read the results not read yet (completion order;
        # each NIC serializes its transfers)
        staged.sort(key=lambda w: w.compute_end)
        for worker in [w for w in staged if w.bye is None]:
            read(worker)
        # numbered per run: the master's task instance is 0
        task_ids = {task.id: i for i, task in enumerate(manager.instances())}
        pool_intervals = [
            WorkerInterval(
                grid=(w.cost.l, w.cost.m),
                host=host_by_name[w.task_instance.host],
                task_id=task_ids[w.task_instance.id],
                welcome=w.welcome,
                bye=w.bye,
                compute_seconds=w.compute_end - w.welcome,
                forked_task=w.forked,
            )
            for w in staged
        ]
        last_arrival = max([t_master] + [w.bye for w in staged])

        breakdown["result_wait"] += max(0.0, last_arrival - t_master)
        breakdown["work_critical"] += max(
            (w.compute_seconds for w in pool_intervals), default=0.0
        )
        t_master = max(t_master, last_arrival)
        workers.extend(pool_intervals)

        # steps 3(g)-(h): rendezvous round trip
        t_master += 2 * params.event_latency_seconds
        breakdown["events"] += 2 * params.event_latency_seconds

    # step 4: finished; step 5: prolongation on the master's machine
    master_sample = noise_by_host[master_host.name]
    prol = (
        master_prolongation_ref_seconds
        / master_host.speed_factor
        * master_sample.slowdown
    )
    breakdown["prolongation"] = prol
    t_master += prol
    master_bye = t_master
    elapsed = t_master + params.shutdown_seconds

    hosts_used = [host_by_name[task.host] for task in manager.instances()]
    return DistributedRun(
        elapsed_seconds=elapsed,
        workers=workers,
        master_host=master_host,
        master_welcome=master_welcome,
        master_bye=master_bye,
        breakdown=breakdown,
        hosts_used=hosts_used,
        n_tasks_forked=len(hosts_used) - 1,
        n_faults=n_faults,
    )


def simulate_sequential(
    costs: Sequence[GridCost],
    host: Host,
    params: SimulationParams,
    rng: np.random.Generator,
    *,
    prolongation_ref_seconds: float = 0.0,
) -> SequentialRun:
    """Simulate one run of the *original* sequential program.

    No MANIFOLD layer: just the program start, the nested loop's work,
    and the prolongation, all on one machine under one noise draw.
    """
    sample = params.noise.sample(rng)
    work = sum(c.work_ref_seconds for c in costs)
    elapsed = (
        0.05  # plain process start
        + params.master_init_seconds
        + (work + prolongation_ref_seconds) / host.speed_factor * sample.slowdown
    )
    return SequentialRun(elapsed_seconds=elapsed, host=host, noise=sample)
