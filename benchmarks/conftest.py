"""Shared benchmark fixtures.

The cost model is calibrated once against the real solver (levels 4-6,
both tolerances) and cached to ``benchmarks/.calibration.json`` so
repeated benchmark invocations skip the ~10 s of measurement.

Every bench run also persists its perf trajectory: a
``pytest_sessionfinish`` hook groups the session's benchmark stats by
module and appends one run record (git rev, timestamp, medians, the
speedup ratios carried in ``extra_info``) to ``BENCH_<name>.json``
next to the bench files, so speedups and regressions are tracked
across PRs instead of claimed in commit messages.
"""

from __future__ import annotations

import json
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.harness import Table1Experiment
from repro.perf.costmodel import CostModel, measure_costs

CACHE = Path(__file__).parent / ".calibration.json"
CALIBRATION_LEVELS = [4, 5, 6]
TOLS = [1.0e-3, 1.0e-4]

BENCH_DIR = Path(__file__).parent
#: runs retained per ``BENCH_<name>.json`` trajectory file
BENCH_HISTORY_CAP = 50


def _git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=BENCH_DIR, capture_output=True, text=True, check=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _jsonable(value):
    """Coerce ``extra_info`` values (possibly numpy scalars) to JSON."""
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    try:
        return float(value)
    except (TypeError, ValueError):
        return str(value)


def _bench_entry(bench) -> dict:
    """One benchmark's record: name, stats medians, extra_info ratios."""
    entry: dict = {"name": getattr(bench, "name", "") or ""}
    group = getattr(bench, "group", None)
    if group:
        entry["group"] = group
    stats = getattr(bench, "stats", None)
    if stats is not None:
        for field in ("median", "mean", "stddev", "rounds"):
            value = getattr(stats, field, None)
            if value is not None:
                entry[field] = (
                    int(value) if field == "rounds" else float(value)
                )
    extra = dict(getattr(bench, "extra_info", None) or {})
    if extra:
        entry["extra_info"] = {
            key: _jsonable(val) for key, val in sorted(extra.items())
        }
    return entry


def record_bench_run(name: str, benches, *, directory: Path = None) -> Path:
    """Append one run record to ``BENCH_<name>.json`` (capped history).

    The shared writer behind the session hook; benches (or tests) can
    call it directly to persist out-of-band measurements.
    """
    directory = BENCH_DIR if directory is None else directory
    path = directory / f"BENCH_{name}.json"
    history: list = []
    if path.exists():
        try:
            history = json.loads(path.read_text()).get("runs", [])
        except (ValueError, OSError):
            history = []
    history.append({
        "git_rev": _git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "benchmarks": [_bench_entry(b) for b in benches],
    })
    payload = {
        "benchmark": name,
        "runs": history[-BENCH_HISTORY_CAP:],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def pytest_sessionfinish(session, exitstatus):
    """Persist the session's benchmark stats as per-module trajectories."""
    bench_session = getattr(session.config, "_benchmarksession", None)
    if bench_session is None or not bench_session.benchmarks:
        return
    by_module: dict[str, list] = {}
    for bench in bench_session.benchmarks:
        fullname = getattr(bench, "fullname", "") or ""
        stem = Path(fullname.split("::")[0]).stem
        name = stem[len("bench_"):] if stem.startswith("bench_") else stem
        if name:
            by_module.setdefault(name, []).append(bench)
    for name, benches in sorted(by_module.items()):
        record_bench_run(name, benches)

#: ``REPRO_WARM_PATH_FULL=1`` switches bench_warm_path from the fast
#: smoke mode (default, runs inside the tier-1 suite so the cold/warm
#: ratio lands in every bench JSON trajectory) to the full measurement.
WARM_PATH_FULL = os.environ.get("REPRO_WARM_PATH_FULL", "") not in ("", "0")

#: ``REPRO_FAULT_RECOVERY_FULL=1`` switches bench_fault_recovery from
#: the fast smoke mode to a bigger level and more rounds.
FAULT_RECOVERY_FULL = os.environ.get(
    "REPRO_FAULT_RECOVERY_FULL", ""
) not in ("", "0")

#: ``REPRO_SOCKET_ENGINE_FULL=1`` switches bench_socket_engine from the
#: fast smoke mode to a bigger level and more rounds.
SOCKET_ENGINE_FULL = os.environ.get(
    "REPRO_SOCKET_ENGINE_FULL", ""
) not in ("", "0")


@pytest.fixture(scope="session")
def warm_path_settings() -> dict:
    """Configuration of the warm-path bench: mid-size level either way,
    the full mode just runs more rounds and a tighter makespan tol."""
    if WARM_PATH_FULL:
        return {
            "full": True,
            "level": 5, "tol": 1.0e-3,
            "cold_rounds": 3, "warm_rounds": 5,
            "makespan_level": 6, "makespan_tol": 1.0e-4,
            "makespan_workers": 8,
        }
    return {
        "full": False,
        "level": 5, "tol": 1.0e-3,
        "cold_rounds": 2, "warm_rounds": 3,
        "makespan_level": 6, "makespan_tol": 1.0e-3,
        "makespan_workers": 8,
    }


@pytest.fixture(scope="session")
def fault_recovery_settings() -> dict:
    """Configuration of the fault-recovery bench: one seeded worker
    kill, recovery priced against the fault-free wall time."""
    if FAULT_RECOVERY_FULL:
        return {
            "full": True,
            "level": 5, "tol": 1.0e-3, "processes": 2,
            "rounds": 3, "fault": "crash@2,3",
        }
    return {
        "full": False,
        "level": 3, "tol": 1.0e-3, "processes": 2,
        "rounds": 2, "fault": "crash@1,2",
    }


@pytest.fixture(scope="session")
def socket_engine_settings() -> dict:
    """Configuration of the socket-engine bench: daemons over loopback
    TCP against the in-process fork pool at the same level."""
    if SOCKET_ENGINE_FULL:
        return {
            "full": True,
            "level": 5, "tol": 1.0e-3, "processes": 2,
            "rounds": 3,
        }
    return {
        "full": False,
        "level": 3, "tol": 1.0e-3, "processes": 2,
        "rounds": 2,
    }


@pytest.fixture(scope="session")
def cost_model() -> CostModel:
    if CACHE.exists():
        try:
            return CostModel.from_json(CACHE)
        except (KeyError, ValueError):
            CACHE.unlink()
    records = measure_costs(
        "rotating-cone", root=2, levels=CALIBRATION_LEVELS, tols=TOLS,
        repeats=2,
    )
    model = CostModel.fit(records, root=2)
    model.to_json(CACHE)
    return model


@pytest.fixture(scope="session")
def experiment(cost_model) -> Table1Experiment:
    """The paper-configuration experiment: 32-host heterogeneous
    cluster, multi-user noise, 5-run averages."""
    return Table1Experiment(cost_model, runs=5, seed=20040101)


@pytest.fixture(scope="session")
def table1_rows(experiment):
    """The full Table 1 sweep, shared by the table and figure benches."""
    return experiment.run_all(levels=range(16), tols=(1.0e-3, 1.0e-4))
