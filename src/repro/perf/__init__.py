"""Performance modelling and measurement.

* :mod:`costmodel` — measures real ``subsolve`` costs at calibration
  levels and fits an extrapolating model, so Table-1-scale sweeps
  (level 15 ~ half an hour of 2003 CPU time *per run*) stay tractable;
* :mod:`timing` — wall-clock measurement with n-run averaging (the
  paper's five-run ``/bin/time`` protocol);
* :mod:`metrics` — speedup and machine-usage summary statistics;
* :mod:`overhead` — the §7 overhead decomposition (multi-user effects,
  concurrency overhead, coordination-layer overhead);
* :mod:`dataplane` — a shared-memory arena (pooled
  ``multiprocessing.shared_memory`` blocks, leases, checksummed
  descriptors) that no run uses: it stays only as the subject of the
  ``dataplane.*`` probes of ``benchmarks/e2e`` (ROADMAP 1(a)).
"""

from .costmodel import CalibrationError, CostModel, CostRecord, measure_costs
from .dataplane import (
    DataPlane,
    DataPlaneAudit,
    DataPlaneError,
    ShmDescriptor,
    ShmLease,
    write_through_lease,
)
from .metrics import RunStatistics, speedup, summarize_runs
from .overhead import OverheadReport, decompose_run
from .timing import TimingResult, time_callable

__all__ = [
    "CalibrationError",
    "CostModel",
    "CostRecord",
    "DataPlane",
    "DataPlaneAudit",
    "DataPlaneError",
    "OverheadReport",
    "RunStatistics",
    "ShmDescriptor",
    "ShmLease",
    "TimingResult",
    "decompose_run",
    "measure_costs",
    "speedup",
    "summarize_runs",
    "time_callable",
]
