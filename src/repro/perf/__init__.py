"""Performance modelling and measurement.

* :mod:`costmodel` — measures real ``subsolve`` costs at calibration
  levels and fits an extrapolating model, so Table-1-scale sweeps
  (level 15 ~ half an hour of 2003 CPU time *per run*) stay tractable;
* :mod:`timing` — wall-clock measurement with n-run averaging (the
  paper's five-run ``/bin/time`` protocol);
* :mod:`metrics` — speedup and machine-usage summary statistics;
* :mod:`overhead` — the §7 overhead decomposition (multi-user effects,
  concurrency overhead, coordination-layer overhead);
* :mod:`warmpath` — warm-path observability of one
  :class:`~repro.restructured.parallel.RunResult`: operator/factorization
  cache effectiveness, cold-vs-warm pool timings, and the
  dispatch-order makespan metric;
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
from .warmpath import (
    DispatchMakespan,
    WarmPathReport,
    dispatch_makespan,
    simulate_makespan,
    warm_path_report,
)

__all__ = [
    "CalibrationError",
    "CostModel",
    "CostRecord",
    "DataPlane",
    "DataPlaneAudit",
    "DataPlaneError",
    "DispatchMakespan",
    "OverheadReport",
    "RunStatistics",
    "ShmDescriptor",
    "ShmLease",
    "TimingResult",
    "WarmPathReport",
    "decompose_run",
    "dispatch_makespan",
    "measure_costs",
    "simulate_makespan",
    "speedup",
    "summarize_runs",
    "time_callable",
    "warm_path_report",
]
