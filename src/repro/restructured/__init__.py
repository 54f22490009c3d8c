"""The restructured (concurrent) application.

This package corresponds to §5 of the paper: the master and worker
wrappers around the original routines, and the small main program that
turns the sequential application into a concurrent one by invoking the
generic master/worker protocol.

* :mod:`worker` — the worker wrapper plus pluggable *compute engines*:
  inline (worker thread computes; concurrency bounded by the GIL except
  where NumPy/SciPy release it) and, in :mod:`pool`, process-based
  (each worker ships its job to a task instance of :mod:`taskengine` —
  the Python equivalent of MLINK housing each worker in its own task
  instance);
* :mod:`master` — the master wrapper: the sequential program with the
  nested loop replaced by protocol steps 3(a)–3(h);
* :mod:`mainprog` — ``mainprog.m``: ``Main`` calls
  ``ProtocolMW(Master(argv), Worker)``;
* :mod:`dispatch` — the one dispatch core: the resilient job lifecycle
  (ledger, deadlines, escalation ladder, timer wheel) that the local
  pool and the socket master both drive;
* :mod:`parallel` — the multiprocessing executor used as the
  real-parallel measurement configuration and as a cross-check; its
  warm path orders jobs longest-predicted-first (LPT) by their
  interior unknown count;
* :mod:`pool` — the persistent worker pool: ``processes`` long-lived
  task instances shared across levels, runs and engines, whose warm
  workers retain their process-local operator caches between jobs.
"""

from .master import make_master_definition
from .mainprog import run_concurrent
from .netengine import HostSpec, SocketTaskEngine, WorkerDaemon, parse_hosts
from .parallel import (
    RunResult,
    order_longest_first,
    run_multiprocessing,
)
from .pool import (
    PersistentWorkerPool,
    PoolClosedError,
    TaskInstanceEngine,
    acquire_pool,
    pool_diagnostics,
    shutdown_pool,
)
from .taskengine import TaskInstanceDied
from .worker import (
    ComputeEngine,
    InlineEngine,
    SubsolveJobSpec,
    SubsolvePayload,
    execute_job,
    make_subsolve_worker,
)

__all__ = [
    "ComputeEngine",
    "HostSpec",
    "InlineEngine",
    "SocketTaskEngine",
    "WorkerDaemon",
    "PersistentWorkerPool",
    "PoolClosedError",
    "RunResult",
    "SubsolveJobSpec",
    "SubsolvePayload",
    "TaskInstanceDied",
    "TaskInstanceEngine",
    "acquire_pool",
    "execute_job",
    "make_master_definition",
    "make_subsolve_worker",
    "order_longest_first",
    "parse_hosts",
    "pool_diagnostics",
    "run_concurrent",
    "run_multiprocessing",
    "shutdown_pool",
]
