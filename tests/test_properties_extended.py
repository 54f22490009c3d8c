"""Property-based tests, round two: the newer modules' invariants."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.simulator import GridCost
from repro.harness.report import render_table
from repro.manifold.errors import StreamError
from repro.manifold.mlink import parse_mlink
from repro.manifold.wiring import parse_wire_spec
from repro.perf.costmodel import CostModel
from repro.sparsegrid.grid import Grid
from repro.sparsegrid.theta import steps_for_tolerance
from tests.conftest import synthetic_records

# ----------------------------------------------------------------------
# wire-spec parser
# ----------------------------------------------------------------------

name_st = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8
)
element_st = st.builds(
    lambda name, port: f"{name}.{port}" if port else name,
    name_st,
    st.one_of(st.none(), name_st),
)


@given(
    first_ref=st.booleans(),
    elements=st.lists(element_st, min_size=2, max_size=6),
)
def test_wire_parser_roundtrip(first_ref, elements):
    if first_ref:
        head, _, _ = elements[0].partition(".")
        elements = [f"&{head}"] + elements[1:]
    spec = " -> ".join(elements)
    parsed = parse_wire_spec(spec)
    assert len(parsed) == len(elements)
    rebuilt = " -> ".join(
        ("&" if e.is_reference else "")
        + e.name
        + (f".{e.port}" if e.port else "")
        for e in parsed
    )
    assert rebuilt == spec


@given(junk=st.text(max_size=20).filter(lambda s: "->" not in s))
def test_wire_parser_rejects_arrowless(junk):
    with pytest.raises(StreamError):
        parse_wire_spec(junk)


# ----------------------------------------------------------------------
# MLINK semantics
# ----------------------------------------------------------------------


@given(
    load=st.integers(min_value=1, max_value=8),
    weights=st.dictionaries(
        st.sampled_from(["Master", "Worker", "Helper"]),
        st.integers(min_value=0, max_value=3),
        min_size=1,
    ),
)
def test_mlink_parse_preserves_declarations(load, weights):
    clauses = " ".join(f"{{weight {k} {v}}}" for k, v in weights.items())
    spec = parse_mlink(f"{{task * {{load {load}}} {clauses}}} {{task main}}")
    pattern = spec.pattern_for("main")
    assert pattern.load_limit == load
    for key, value in weights.items():
        assert pattern.weight_of(key) == value
    assert pattern.weight_of("Unknown") == 0.0


# ----------------------------------------------------------------------
# cost model
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def model() -> CostModel:
    return CostModel.fit(synthetic_records(), root=2)


@given(
    l=st.integers(min_value=0, max_value=14),
    m=st.integers(min_value=0, max_value=14),
)
@settings(max_examples=60, deadline=None)
def test_cost_model_predictions_positive_and_tol_monotone(l, m):
    model = CostModel.fit(synthetic_records(), root=2)
    loose = model.predict_seconds(l, m, 1e-3)
    tight = model.predict_seconds(l, m, 1e-4)
    assert loose > 0
    assert tight > loose


@given(level=st.integers(min_value=0, max_value=14))
@settings(max_examples=30, deadline=None)
def test_cost_model_level_sum_grows(level):
    model = CostModel.fit(synthetic_records(), root=2)
    this_level = sum(c.work_ref_seconds for c in model.level_costs(level, 1e-3))
    next_level = sum(c.work_ref_seconds for c in model.level_costs(level + 1, 1e-3))
    assert next_level > this_level


@given(
    l=st.integers(min_value=0, max_value=10),
    m=st.integers(min_value=0, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_grid_cost_bytes_consistent(l, m):
    model = CostModel.fit(synthetic_records(), root=2)
    cost = model.grid_cost(l, m, 1e-3)
    assert cost.result_bytes == 8 * Grid(2, l, m).n_nodes


# ----------------------------------------------------------------------
# theta step heuristic
# ----------------------------------------------------------------------


@given(
    tol=st.floats(min_value=1e-8, max_value=1e-1),
    span=st.floats(min_value=0.05, max_value=10.0),
)
def test_steps_heuristic_sane(tol, span):
    cn = steps_for_tolerance(0.5, tol, span)
    ie = steps_for_tolerance(1.0, tol, span)
    assert cn >= 8 and ie >= 8
    assert ie >= cn  # first order must take at least as many steps


# ----------------------------------------------------------------------
# report rendering
# ----------------------------------------------------------------------


@given(
    rows=st.lists(
        st.tuples(
            st.text(alphabet="abcxyz ", min_size=1, max_size=12),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            st.integers(min_value=-10**6, max_value=10**6),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_render_table_aligns_any_content(rows):
    text = render_table(["name", "value", "count"], [list(r) for r in rows])
    lines = text.splitlines()
    assert len(lines) == len(rows) + 2
    assert len({len(line) for line in lines}) == 1


# ----------------------------------------------------------------------
# simulator conservation laws
# ----------------------------------------------------------------------


@given(
    works=st.lists(
        st.floats(min_value=0.1, max_value=30.0, allow_nan=False),
        min_size=1,
        max_size=12,
    ),
    split=st.integers(min_value=0, max_value=12),
)
@example(works=[1.0, 1.0], split=1)
@example(works=[0.25, 2.0, 1.0], split=1)
@settings(max_examples=30, deadline=None)
def test_pool_split_never_faster(works, split):
    """Splitting one pool into two (a barrier) can only slow the run —
    up to the forks the barrier moved off a job's path.

    The master creates workers serially, and a barrier only ever adds
    waiting to that loop, so a worker's welcome can come *earlier* in
    the split run for one reason alone: fewer forks precede it.  With
    perpetual reuse that happens in two ways, one pinned example each:

    * ``[1.0, 1.0]``: pool 2 adopts pool 1's idle task instance instead
      of forking — a fork saved outright;
    * ``[0.25, 2.0, 1.0]``: both runs fork twice, but the barrier idles
      task 1 in time for the *heavy* grid, so the second fork now
      precedes the light grid instead — 11.552 s against 11.730 s with
      nothing saved in total (greedy placement is not monotone; this is
      Graham's scheduling anomaly, not a simulator bug).

    The total fork difference (the previous bound) misses the second
    case.  What the simulator does guarantee is per worker: its welcome
    moves up by at most ``fork_seconds`` per fork that no longer
    precedes it, and the run's elapsed time by the largest such move.
    """
    from repro.cluster import MultiUserNoise, SimulationParams, uniform_cluster
    from repro.cluster.simulator import simulate_distributed

    split = min(split, len(works))
    costs = [
        GridCost(l=i, m=0, work_ref_seconds=w, result_bytes=1000)
        for i, w in enumerate(works)
    ]
    params = SimulationParams(noise=MultiUserNoise.quiet())
    cluster = uniform_cluster(16)
    single = simulate_distributed(
        [costs], cluster, params, np.random.default_rng(0)
    )
    pools = [p for p in (costs[:split], costs[split:]) if p]
    double = simulate_distributed(
        pools, cluster, params, np.random.default_rng(0)
    )

    def forks_before(run):
        """Per grid: forks up to and including its own creation."""
        count, before = 0, {}
        for worker in sorted(run.workers, key=lambda w: w.welcome):
            count += worker.forked_task
            before[worker.grid] = count
        return before

    forks_single, forks_double = forks_before(single), forks_before(double)
    moved = {
        grid: max(0, forks_single[grid] - forks_double[grid])
        for grid in forks_single
    }
    welcome_double = {w.grid: w.welcome for w in double.workers}
    for worker in single.workers:
        assert (
            welcome_double[worker.grid]
            >= worker.welcome - params.fork_seconds * moved[worker.grid] - 1e-9
        )
    assert (
        double.elapsed_seconds
        >= single.elapsed_seconds
        - params.fork_seconds * max(moved.values())
        - 1e-9
    )
