"""Shared benchmark fixtures.

The cost model is calibrated once against the real solver (levels 4-6,
both tolerances) and cached to ``benchmarks/.calibration.json`` so
repeated benchmark invocations skip the ~10 s of measurement.

The ``bench_*.py`` files are assertion tests of the paper's tables,
figures and ablations; running them writes nothing but that cache.
Recorded, comparable numbers are the end-to-end harness's business
(``benchmarks/e2e/``, ``BENCHMARK.json``).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.harness import Table1Experiment
from repro.perf.costmodel import CostModel, measure_costs

CACHE = Path(__file__).parent / ".calibration.json"
CALIBRATION_LEVELS = [4, 5, 6]
TOLS = [1.0e-3, 1.0e-4]

#: ``REPRO_BENCH_MODE=smoke|full``: ``full`` switches the warm-path,
#: fault-recovery and socket-engine benches from the fast smoke mode
#: (the default, what runs inside the tier-1 suite) to bigger levels
#: and more rounds.
FULL = os.environ.get("REPRO_BENCH_MODE", "smoke") == "full"


@pytest.fixture(scope="session")
def warm_path_settings() -> dict:
    """Configuration of the warm-path bench: mid-size level either way,
    the full mode just runs more rounds.  The ratio is a min over each
    side's rounds, taken one phase after the other, so a load burst on
    a shared host during the warm phase alone reads as a lost ratio
    (1.40× once, against ≈2.2× quiet): the rounds are what absorbs it."""
    if FULL:
        return {
            "full": True,
            "level": 5, "tol": 1.0e-3,
            "cold_rounds": 5, "warm_rounds": 10,
        }
    return {
        "full": False,
        "level": 5, "tol": 1.0e-3,
        "cold_rounds": 3, "warm_rounds": 6,
    }


@pytest.fixture(scope="session")
def fault_recovery_settings() -> dict:
    """Configuration of the fault-recovery bench: one seeded worker
    kill, recovery priced against the fault-free wall time."""
    if FULL:
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
    if FULL:
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
