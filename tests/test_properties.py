"""Property-based tests (hypothesis) on core invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import EthernetModel, GridCost, MultiUserNoise, SimulationParams
from repro.cluster.simulator import simulate_distributed
from repro.cluster.host import uniform_cluster
from repro.cluster.trace import MachinePoint, machines_timeline, weighted_average_machines
from repro.manifold import Event, EventMemory, EventOccurrence
from repro.manifold.mlink import parse_mlink
from repro.sparsegrid.combination import combine, resample_1d, resample_2d
from repro.sparsegrid.grid import Grid, combination_grids, nested_loop_grids

# ----------------------------------------------------------------------
# combination technique
# ----------------------------------------------------------------------

values_1d = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=17,
).filter(lambda v: (len(v) - 1) & (len(v) - 2) == 0 or True)


@given(
    values=st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=3,
        max_size=9,
    ).filter(lambda v: math.log2(len(v) - 1).is_integer()),
    levels=st.integers(min_value=1, max_value=3),
)
def test_prolong_then_restrict_roundtrip(values, levels):
    arr = np.asarray(values)
    up = resample_1d(arr, levels, axis=0)
    down = resample_1d(up, -levels, axis=0)
    assert np.allclose(down, arr)


@given(
    levels=st.integers(min_value=1, max_value=3),
    n=st.sampled_from([3, 5, 9]),
)
def test_prolongation_preserves_extrema_bounds(levels, n):
    """Linear interpolation never overshoots the data range."""
    rng = np.random.default_rng(n * 7 + levels)
    arr = rng.uniform(-5, 5, n)
    up = resample_1d(arr, levels, axis=0)
    assert up.max() <= arr.max() + 1e-12
    assert up.min() >= arr.min() - 1e-12


@given(
    root=st.integers(min_value=0, max_value=2),
    level=st.integers(min_value=0, max_value=4),
    a=st.floats(min_value=-3, max_value=3, allow_nan=False),
    b=st.floats(min_value=-3, max_value=3, allow_nan=False),
    c=st.floats(min_value=-3, max_value=3, allow_nan=False),
    target_cap=st.sampled_from([None, 1, 3, 8]),
)
@settings(max_examples=30, deadline=None)
def test_combination_reproduces_bilinear_fields(root, level, a, b, c, target_cap):
    f = lambda x, y: a * x + b * y + c * x * y
    solutions = {
        (g.l, g.m): g.sample(lambda x, y: f(x, y))
        for g in nested_loop_grids(root, level)
    }
    target, combined = combine(solutions, root, level, target_cap=target_cap)
    xx, yy = target.meshgrid()
    assert np.allclose(combined, f(xx, yy), atol=1e-9)


@given(
    level=st.integers(min_value=0, max_value=5),
    target_cap=st.sampled_from([None, 3, 8]),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_folded_combination_is_arrival_order_independent(level, target_cap, data):
    """The fold fixes every operand and every ``+``/``-`` by key: the
    order results landed in the dict (a parallel run's completion order)
    does not reach the bits, and those bits are the direct formula
    ``sum c * P u`` up to rounding (a cap below the level exercises
    restriction and many grids per row)."""
    root = 2
    rng = np.random.default_rng(level * 31 + (target_cap or 0))
    family = list(combination_grids(root, level))
    solutions = {(g.l, g.m): rng.uniform(-1, 1, g.shape) for g, _ in family}
    target, reference = combine(solutions, root, level, target_cap=target_cap)

    arrived = {
        key: solutions[key] for key in data.draw(st.permutations(list(solutions)))
    }
    assert np.array_equal(
        combine(arrived, root, level, target_cap=target_cap)[1], reference
    )

    direct = sum(
        c * resample_2d(solutions[(g.l, g.m)], g, target) for g, c in family
    )
    peak = max(np.max(np.abs(u)) for u in solutions.values())
    assert np.max(np.abs(reference - direct)) <= 1e-14 * peak


@given(level=st.integers(min_value=0, max_value=12))
def test_combination_coefficients_sum_to_one(level):
    assert sum(c for _, c in combination_grids(2, level)) == 1


@given(level=st.integers(min_value=0, max_value=12))
def test_worker_count_relation_holds(level):
    assert len(nested_loop_grids(2, level)) == 2 * level + 1


@given(
    root=st.integers(min_value=0, max_value=3),
    l=st.integers(min_value=0, max_value=6),
    m=st.integers(min_value=0, max_value=6),
)
def test_grid_geometry_invariants(root, l, m):
    g = Grid(root, l, m)
    assert g.nx * g.hx == pytest.approx(1.0)
    assert g.ny * g.hy == pytest.approx(1.0)
    assert g.n_nodes == (g.nx + 1) * (g.ny + 1)
    assert g.n_interior < g.n_nodes


# ----------------------------------------------------------------------
# event memory
# ----------------------------------------------------------------------


@given(names=st.lists(st.sampled_from("abcd"), min_size=0, max_size=30))
def test_event_memory_conserves_occurrences(names):
    memory = EventMemory()
    for name in names:
        memory.post(Event(name))
    taken = 0
    while memory.take_match({Event("a"): 0}):
        taken += 1
    assert taken == names.count("a")
    assert len(memory) == len(names) - taken


@given(
    names=st.lists(st.sampled_from("abc"), min_size=1, max_size=20),
    ranks=st.dictionaries(st.sampled_from("abc"), st.integers(0, 5), min_size=3),
)
def test_event_memory_take_respects_priority(names, ranks):
    memory = EventMemory()
    for name in names:
        memory.post(Event(name))
    best = memory.take_match({Event(name): rank for name, rank in ranks.items()})
    assert best is not None
    top_rank = max(ranks[n] for n in names)
    assert ranks[best.event.name] == top_rank


# ----------------------------------------------------------------------
# MLINK placement semantics
# ----------------------------------------------------------------------


@given(
    load=st.integers(min_value=1, max_value=5),
    n_workers=st.integers(min_value=0, max_value=20),
)
def test_task_manager_never_exceeds_load(load, n_workers, ):
    from repro.manifold import AtomicDefinition, Runtime, TaskManager

    spec = parse_mlink(
        f"{{task * {{perpetual}} {{load {load}}} {{weight W 1}}}}"
        "{task main {include main.o}}"
    )
    with Runtime("prop") as runtime:
        manager = TaskManager(spec)
        for _ in range(n_workers):
            proc = runtime.create(AtomicDefinition("W", lambda p: p.read()))
            manager.place(proc)
        for task in manager.instances():
            assert task.load <= load + 1e-9
        total_housed = sum(len(t.residents) for t in manager.instances())
        assert total_housed == n_workers


# ----------------------------------------------------------------------
# network / simulator invariants
# ----------------------------------------------------------------------


@given(
    sizes=st.lists(st.integers(min_value=0, max_value=10_000_000), min_size=1, max_size=20)
)
def test_nic_transfers_never_overlap(sizes):
    net = EthernetModel()
    intervals = [net.occupy("nic", 0.0, n) for n in sizes]
    for (s1, f1), (s2, f2) in zip(intervals, intervals[1:]):
        assert s2 >= f1
        assert f2 >= s2


@given(
    works=st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        min_size=1,
        max_size=25,
    ),
    n_hosts=st.integers(min_value=2, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
)
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_simulated_run_invariants(works, n_hosts, seed):
    costs = [
        GridCost(l=i, m=0, work_ref_seconds=w, result_bytes=1000)
        for i, w in enumerate(works)
    ]
    params = SimulationParams(noise=MultiUserNoise.quiet())
    run = simulate_distributed(
        [costs], uniform_cluster(n_hosts), params, np.random.default_rng(seed)
    )
    # every worker lives inside the run
    for w in run.workers:
        assert 0.0 <= w.welcome <= w.bye <= run.elapsed_seconds + 1e-9
    # the run cannot beat its critical path
    assert run.elapsed_seconds >= params.startup_seconds + max(
        w.compute_seconds for w in run.workers
    ) - 1e-9
    # never more tasks than worker machines
    assert run.n_tasks_forked <= n_hosts - 1
    # the timeline never exceeds the machines that exist
    timeline = machines_timeline(run)
    assert max(p.machines for p in timeline) <= n_hosts
    avg = weighted_average_machines(timeline, run.elapsed_seconds)
    assert 0.0 < avg <= n_hosts


@given(
    steps=st.lists(
        st.tuples(
            st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
            st.integers(min_value=0, max_value=40),
        ),
        min_size=1,
        max_size=20,
    ),
    t_end=st.floats(min_value=1.0, max_value=200.0, allow_nan=False),
)
def test_weighted_average_bounded_by_extremes(steps, t_end):
    ordered = sorted(steps)
    timeline = [MachinePoint(t, m) for t, m in ordered]
    if timeline[0].time > 0:
        timeline.insert(0, MachinePoint(0.0, 0))
    avg = weighted_average_machines(timeline, t_end)
    machines = [p.machines for p in timeline]
    assert min(machines) - 1e-9 <= avg <= max(machines) + 1e-9
