"""``mainprog.m`` — the small program that changes the sequential
application into a concurrent one.

The original::

    manifold Worker(event) atomic.
    manifold Master(port in p) ... atomic.
    manifold Main(process argv)
    {
        begin: ProtocolMW(Master(argv), Worker).
    }

:func:`run_concurrent` builds the same structure — a runtime, the
``Main`` coordinator, the master and worker manifolds — runs it to
completion, and returns the master's result.  The MLINK/CONFIG stages
are optional inputs: when a link spec is given, a
:class:`~repro.manifold.task.TaskManager` records the bundling of
process instances into task instances (the ebb & flow data); when a
host mapper is given, that task manager also gives every task instance
it forks a machine, and takes it back when the instance dies.
"""

from __future__ import annotations

from typing import Optional

from repro.manifold import (
    BEGIN,
    Block,
    Coordinator,
    HostMapper,
    Runtime,
    TaskManager,
    parse_mlink,
    run_application,
)
from repro.protocol import protocol_mw

from .master import make_master_definition
from .parallel import RunResult
from .worker import ComputeEngine, InlineEngine, make_subsolve_worker

__all__ = ["DEFAULT_MLINK", "run_concurrent"]

#: The paper's distributed-task composition: every Master or Worker
#: instance in its own perpetual task instance.
DEFAULT_MLINK = """
{task *
  {perpetual}
  {load 1}
  {weight Master 1}
  {weight Worker 1}
}
{task mainprog
  {include mainprog.o}
  {include protocolMW.o}
}
"""


def run_concurrent(
    root: int = 2,
    level: int = 2,
    tol: float = 1.0e-3,
    problem_name: str = "rotating-cone",
    problem_kwargs: Optional[dict] = None,
    *,
    engine: Optional[ComputeEngine] = None,
    t_end: Optional[float] = None,
    scheme: str = "upwind",
    target_cap: int | None = 8,
    pool_per_diagonal: bool = False,
    link_spec_text: Optional[str] = None,
    host_mapper: Optional[HostMapper] = None,
    timeout: float = 600.0,
) -> tuple[RunResult, Optional[TaskManager]]:
    """Run the restructured application once.

    Returns the master's result and, when a link spec was supplied, the
    task manager whose timeline records the run's ebb & flow.
    """
    runtime = Runtime("mainprog")
    task_manager: Optional[TaskManager] = None
    if link_spec_text is not None:
        task_manager = TaskManager(
            parse_mlink(link_spec_text), hosts=host_mapper
        ).attach(runtime)

    own_engine = engine is None
    engine = engine if engine is not None else InlineEngine()
    master_defn = make_master_definition(
        root,
        level,
        tol,
        problem_name,
        problem_kwargs,
        t_end=t_end,
        scheme=scheme,
        target_cap=target_cap,
        pool_per_diagonal=pool_per_diagonal,
    )
    worker_defn = make_subsolve_worker(engine)

    holder: dict[str, RunResult] = {}

    def main_body() -> Block:
        block = Block("Main")

        @block.state(BEGIN)
        def begin(ctx):
            master = ctx.spawn(master_defn)
            ctx.locals["master"] = master
            yield ctx.run_block(protocol_mw(master, worker_defn))
            # ProtocolMW returned on `finished`; the master is still
            # running its final prolongation work — wait it out.
            yield ctx.terminated(master)
            holder["result"] = getattr(master, "result", None)
            yield ctx.halt()

        return block

    main = Coordinator(runtime, "Main", main_body, deadline=timeout)
    try:
        run_application(runtime, main, timeout=timeout)
    finally:
        if own_engine:
            engine.close()
        if task_manager is not None:
            # service processes (variables, void) unwind asynchronously
            # after shutdown; wait for them so their tasks empty before
            # the perpetual wind-down (which frees their machines)
            runtime.join_all(timeout=10.0)
            task_manager.kill_idle_perpetual()

    result = holder.get("result")
    if result is None:
        raise RuntimeError("master finished without publishing a result")
    return result, task_manager
