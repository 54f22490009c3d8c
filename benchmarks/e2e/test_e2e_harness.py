"""Timing-free unit tests of the end-to-end harness.

Nothing here runs a workload or reads a clock: the arithmetic the
harness applies to its measurements, the seed → inputs draw, and the
agreement between ``BENCHMARK.json`` and what the harness emits.
"""

import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

E2E_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(E2E_DIR))

import e2e_core as core  # noqa: E402


def load(stem: str):
    spec = importlib.util.spec_from_file_location(
        f"e2e_{stem}", E2E_DIR / f"{stem}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load("run")
compare = load("compare")
CONTRACT = core.load_contract()


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_percentile_interpolates():
    assert core.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert core.percentile([1.0, 2.0], 50) == 1.5
    assert core.percentile([7.0], 90) == 7.0


@pytest.mark.parametrize("n, pct, reported", [
    (99, 90, False),   # 9.9 samples beyond p90
    (100, 90, True),   # exactly ten
    (19, 50, False),
    (20, 50, True),
    (1000, 99, True),
    (999, 99, False),
])
def test_percentile_needs_ten_samples_beyond(n, pct, reported):
    value = core.reportable_percentile(list(range(n)), pct)
    assert (value is not None) == reported


def test_tail_is_highest_reportable_percentile():
    assert core.tail(list(range(100)))[0] == 90.0
    assert core.tail(list(range(40)))[0] == 75.0
    assert core.tail(list(range(1000)))[0] == 99.0
    # too few for any: the median, labelled as such
    assert core.tail([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3 and 9, median 6
    assert core.quartiles(values) == (3.0, 9.0)
    assert core.spread(values) == pytest.approx(1.0)


# ----------------------------------------------------------------------
# A-B-A
# ----------------------------------------------------------------------
def test_aba_overhead_is_difference_of_medians():
    control = [0.06, 0.07, 0.50, 0.06, 0.07]   # one cold-cache outlier
    treated = [0.20, 0.21, 0.19]
    assert core.aba_overhead(treated, control) == pytest.approx(0.20 - 0.07)


def test_aba_overhead_cancels_common_drift():
    control, treated = [1.0, 1.1, 1.2], [1.5, 1.6, 1.7]
    drifted = core.aba_overhead(
        [t + 0.3 for t in treated], [c + 0.3 for c in control]
    )
    assert drifted == pytest.approx(core.aba_overhead(treated, control))


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def test_self_time_is_span_minus_union_of_children():
    spans = core.SpanRecorder()
    rep = spans.add("harness.rep", 0.0, 10.0, None, 1)
    call = spans.add("parallel.call", 1.0, 9.0, rep, 1)
    fan = spans.add("parallel.fanout", 2.0, 8.0, call, 1)
    # two workers side by side, overlapping on [4, 5]
    spans.add("sparsegrid.subsolve", 2.5, 5.0, fan, 1)
    spans.add("sparsegrid.subsolve", 4.0, 7.0, fan, 1)
    own = core.self_times(spans.spans)
    assert own[rep] == pytest.approx(2.0)
    assert own[call] == pytest.approx(2.0)
    assert own[fan] == pytest.approx(6.0 - 4.5)  # union, not sum
    by_name = core.self_seconds_by_name(spans.spans)
    assert by_name["sparsegrid.subsolve"] == pytest.approx(2.5 + 3.0)
    # the tree's self times add up to the root
    assert sum(own) - 1.0 == pytest.approx(10.0)  # 1.0 = the double-counted overlap


def test_children_are_clipped_to_their_parent():
    spans = core.SpanRecorder()
    fan = spans.add("parallel.fanout", 1.0, 2.0, None, 1)
    spans.add("sparsegrid.subsolve", 0.5, 1.5, fan, 1)  # started early
    assert core.self_times(spans.spans)[fan] == pytest.approx(0.5)


def test_span_file_round_trips(tmp_path):
    import json

    spans = core.SpanRecorder()
    rep = spans.add("harness.rep", 0.0, 1.0, None, 3)
    spans.add("manifold.pool", 0.1, 0.9, rep, 3)
    spans.write_jsonl(tmp_path / "spans.jsonl")
    rows = [json.loads(line) for line in
            (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [row["parent"] for row in rows] == [None, 0]
    assert {row["rep"] for row in rows} == {3}


# ----------------------------------------------------------------------
# seed → inputs
# ----------------------------------------------------------------------
def test_same_seed_same_inputs():
    assert core.draw_inputs(7) == core.draw_inputs(7)
    assert core.draw_inputs(7) != core.draw_inputs(8)


def test_inputs_stay_inside_their_box():
    for seed in range(50):
        inputs = core.draw_inputs(seed)
        (cx, cy), width = (inputs["problem_kwargs"][k] for k in ("centre", "width"))
        assert abs(cx - core.CENTRE[0]) <= core.CENTRE_JITTER
        assert abs(cy - core.CENTRE[1]) <= core.CENTRE_JITTER
        assert abs(width - core.WIDTH) <= core.WIDTH_JITTER
        assert len(inputs["noop_payloads"]) == core.NOOP_WORKERS


# ----------------------------------------------------------------------
# bound / direction
# ----------------------------------------------------------------------
def test_worsening_follows_direction():
    assert core.worsening(1.0, 1.2, "lower") == pytest.approx(0.2)
    assert core.worsening(1.0, 1.2, "higher") == pytest.approx(-0.2)
    assert core.worsening(4.0, 3.0, "higher") == pytest.approx(0.25)


def test_verdict_ok_worse_unresolved():
    tight = [1.00, 1.01, 0.99, 1.00, 1.01]
    assert core.verdict(tight, [v * 1.05 for v in tight], "lower", 0.10)["verdict"] == "ok"
    assert core.verdict(tight, [v * 1.20 for v in tight], "lower", 0.10)["verdict"] == "worse"
    assert core.verdict(tight, [v * 0.80 for v in tight], "higher", 0.10)["verdict"] == "worse"
    assert core.verdict(tight, [v * 0.80 for v in tight], "lower", 0.10)["verdict"] == "ok"
    # spread wider than the bound and the runs overlap: no verdict
    wide = [0.8, 1.0, 1.3, 0.9, 1.2]
    assert core.verdict(wide, [v * 1.05 for v in wide], "lower", 0.10)["verdict"] == "unresolved"
    # as wide, but every head run beyond every base run: the medians decide
    assert core.verdict(wide, [v * 2.0 for v in wide], "lower", 0.10)["verdict"] == "worse"


def record(workload, value, *, unstable=False, trace=0, failed=0):
    return {
        "workload": workload, "trace": trace, "unstable": unstable,
        "failed": failed,
        "metrics": {
            spec["name"]: {"value": value, "unit": spec["unit"]}
            for spec in CONTRACT["end_to_end"]
        },
    }


def test_compare_refuses_unstable_records_and_flags_worse():
    names = [w["name"] for w in CONTRACT["workloads"]]
    base = [record(name, 1.0 + i / 1000) for name in names for i in range(5)]
    head = [record(name, 1.0 + i / 1000) for name in names for i in range(5)]
    head.append(record(names[0], 50.0, unstable=True))  # would be "worse"
    head.append(record(names[0], 50.0, trace=1))        # traced: never compared
    rows, refused, failed = compare.compare(base, head, CONTRACT)
    assert refused == (0, 1) and failed == (0, 0)
    assert {row["verdict"] for row in rows} == {"ok"}
    assert len(rows) == len(names) * len(CONTRACT["end_to_end"])

    slow = [record(name, 1.5 + i / 1000) for name in names for i in range(5)]
    words = {(row["metric"], row["verdict"])
             for row in compare.compare(base, slow, CONTRACT)[0]}
    assert ("wall_s.p10", "worse") in words
    assert ("runs_per_s", "ok") in words  # higher is better


def test_calibration_drift_guard():
    assert core.calibration_drift(0.040, 0.043) < core.CALIB_DRIFT_LIMIT
    assert core.calibration_drift(0.040, 0.046) > core.CALIB_DRIFT_LIMIT
    assert core.calibration_drift(0.040, 0.034) > core.CALIB_DRIFT_LIMIT


# ----------------------------------------------------------------------
# BENCHMARK.json against the harness
# ----------------------------------------------------------------------
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def string_constants(stem: str) -> set[str]:
    tree = ast.parse((E2E_DIR / f"{stem}.py").read_text())
    return {
        node.value for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }


def test_contract_shape():
    assert set(CONTRACT) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert CONTRACT["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer")
        for entry in CONTRACT[key]
    ]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for workload in CONTRACT["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for spec in CONTRACT["end_to_end"]:
        assert set(spec) == {"name", "unit", "better", "bound"}
        assert 0 < spec["bound"] <= 0.25
    for spec in CONTRACT["per_layer"]:
        assert set(spec) == {"name", "unit", "better"}
    for spec in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert UNIT.fullmatch(spec["unit"]), spec
        assert spec["better"] in ("lower", "higher")
    setup = next(s for s in CONTRACT["end_to_end"] if s["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(s["bound"] for s in CONTRACT["end_to_end"])


def test_every_workload_is_built_by_the_harness():
    literals = string_constants("e2e_workloads")
    for workload in CONTRACT["workloads"]:
        assert workload["name"] in literals


def test_every_end_to_end_metric_is_emitted():
    from types import SimpleNamespace as Rep

    samples = {
        "main": [Rep(seconds=0.1 * i, ok=i != 2) for i in range(1, 12)],
        "seq": [Rep(seconds=0.7, ok=True), Rep(seconds=0.9, ok=True)],
    }
    emitted = run.end_to_end(samples, [1.0, 3.0, 2.0], 100.0)
    assert set(emitted) == {s["name"] for s in CONTRACT["end_to_end"]}
    assert emitted["setup_s"] == 2.0
    assert emitted["wall_s.p10"] == pytest.approx(0.2)
    assert emitted["seq_wall_s.p10"] == pytest.approx(0.72)
    # the fastest quarter of the *correct* reps: 0.1 and 0.3, not 0.2
    assert emitted["runs_per_s"] == pytest.approx(2 / 0.4)


def test_every_per_layer_metric_is_emitted():
    spans = {f"span.{name}.self_s" for name in run.SPAN_NAMES}
    emitted = string_constants("e2e_probes") | string_constants("run") | spans
    wanted = {s["name"] for s in CONTRACT["per_layer"]}
    assert wanted <= emitted, sorted(wanted - emitted)
    # and no span is given a metric that the contract does not list
    assert spans == {name for name in wanted if name.startswith("span.")}


def test_harness_files_are_not_collected_as_tests():
    for path in E2E_DIR.glob("*.py"):
        if path.name != "test_e2e_harness.py":
            assert not re.match(r"(test|bench)_.*\.py", path.name), path.name
