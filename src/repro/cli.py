"""Command-line interface: ``python -m repro <command> ...``.

Commands mirror the workflow of the paper:

* ``run-sequential`` — the original program (``SeqSourceCode.c``);
* ``run-concurrent`` — the restructured program (``mainprog.m``),
  optionally with real multiprocessing workers;
* ``run-parallel`` — the real multiprocessing fan-out with the warm
  execution layer (persistent pool, operator cache, cost-ordered
  dispatch) and its observability report;
* ``calibrate`` — measure the real solver and fit the cost model;
* ``table1`` — regenerate Table 1 on the simulated cluster;
* ``figures`` — regenerate Figures 1-5;
* ``trace`` — print one simulated run's §6 chronological output.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Modernizing Existing Software: A Case "
        "Study' (SC 2004)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_problem_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--root", type=int, default=2,
                       help="refinement level of the coarsest grid (paper: 2)")
        p.add_argument("--level", type=int, default=3,
                       help="additional refinement above the root")
        p.add_argument("--tol", type=float, default=1.0e-3,
                       help="the integrator tolerance le_tol")
        p.add_argument("--problem", default="rotating-cone",
                       help="registered problem name")

    p_seq = sub.add_parser("run-sequential", help="run the original program")
    add_problem_args(p_seq)

    p_conc = sub.add_parser("run-concurrent", help="run the restructured program")
    add_problem_args(p_conc)
    p_conc.add_argument(
        "--engine", choices=("threads", "task-instances"),
        default="threads",
        help="where worker computations execute: in the worker threads, "
        "or each in an OS task instance of the shared worker pool, reused "
        "by the next worker and the next run (the MLINK {perpetual} "
        "{load 1}, literally)",
    )
    p_conc.add_argument("--pool-per-diagonal", action="store_true",
                        help="one workers-pool per grid diagonal (two pools)")
    p_conc.add_argument("--verify", action="store_true",
                        help="also run sequentially and compare bitwise")

    p_par = sub.add_parser(
        "run-parallel",
        help="run the real multiprocessing fan-out on the warm path",
    )
    add_problem_args(p_par)
    p_par.add_argument("--processes", type=int, default=None,
                       help="pool size (default: min(grids, CPUs))")
    p_par.add_argument("--cold", action="store_true",
                       help="seed behaviour: throwaway pool, no operator "
                       "or factorization reuse")
    p_par.add_argument("--repeat", type=int, default=1,
                       help="repeat the run to show the warm-up trajectory")
    p_par.add_argument("--verify", action="store_true",
                       help="also run sequentially and compare bitwise")
    p_par.add_argument("--faults", default=None, metavar="SPEC",
                       help="inject faults into the workers: e.g. "
                       "'crash@1,2' or 'slow@*:factor=3,rate=0.2' "
                       "(see docs/resilience.md for the grammar)")
    p_par.add_argument("--fault-seed", type=int, default=0,
                       help="seed for rate-sampled fault rules")
    p_par.add_argument("--retry", type=int, default=None, metavar="N",
                       help="attempts per job before the in-master "
                       "fallback (default policy: 3)")
    p_par.add_argument("--deadline-factor", type=float, default=None,
                       metavar="X",
                       help="declare a job hung after X times the "
                       "seconds its unknowns took at the slowest rate a "
                       "worker has reported (default policy: 8.0)")
    p_par.add_argument("--deadline-seconds", type=float, default=None,
                       help="per-job deadline before the first result "
                       "is in (default policy: 60s)")
    p_par.add_argument("--trace", default=None, metavar="OUT.jsonl",
                       help="record the run's structured event timeline "
                       "and write it as JSONL (inspect with analyze-trace)")
    p_par.add_argument("--engine", choices=("pool", "socket"),
                       default="pool",
                       help="execution substrate: the fork pool, or worker "
                       "daemons over real TCP; both drive one dispatch "
                       "core (see docs/distributed.md)")
    p_par.add_argument("--hosts", default=None, metavar="SPEC",
                       help="socket-engine hosts: 'localhost:N' spawns N "
                       "loopback daemons; 'tcp://host:port' dials a "
                       "running 'repro worker-daemon' (comma-separated)")

    p_wd = sub.add_parser(
        "worker-daemon",
        help="host one task instance behind a TCP port, for a master on "
        "another machine to dial (--engine socket --hosts tcp://host:port); "
        "start one per job the machine should hold",
    )
    p_wd.add_argument("--host", default="127.0.0.1",
                      help="bind address (default: loopback)")
    p_wd.add_argument("--port", type=int, default=0,
                      help="listen port (0 = ephemeral, announced on stdout)")

    p_val = sub.add_parser(
        "validate-socket",
        help="run one problem through the cluster simulator and the "
        "socket engine; report both overhead decompositions",
    )
    p_val.add_argument("--root", type=int, default=2)
    p_val.add_argument("--level", type=int, default=5)
    p_val.add_argument("--tol", type=float, default=1.0e-3)
    p_val.add_argument("--problem", default="rotating-cone")
    p_val.add_argument("--processes", type=int, default=2,
                       help="local worker daemons to spawn")
    p_val.add_argument("--seed", type=int, default=20040101)

    p_antr = sub.add_parser(
        "analyze-trace",
        help="analyze a JSONL run trace written by run-parallel --trace",
    )
    p_antr.add_argument("path", help="the JSONL trace file")
    p_antr.add_argument("--chrome", default=None, metavar="OUT.json",
                        help="also convert to Chrome tracing JSON "
                        "(open in chrome://tracing or Perfetto)")

    p_cal = sub.add_parser("calibrate", help="fit the cost model on real solves")
    p_cal.add_argument("--levels", type=int, nargs="+", default=[4, 5, 6])
    p_cal.add_argument("--tols", type=float, nargs="+",
                       default=[1.0e-3, 1.0e-4])
    p_cal.add_argument("--problem", default="rotating-cone")
    p_cal.add_argument("--root", type=int, default=2)
    p_cal.add_argument("--output", default="calibration.json",
                       help="where to write the fitted model")
    p_cal.add_argument("--repeats", type=int, default=2,
                       help="solves per grid; the fastest is kept, which "
                       "shields the fit from background load (default 2)")

    def add_model_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--model", default=None,
                       help="calibration JSON (default: calibrate in-process)")
        p.add_argument("--runs", type=int, default=5,
                       help="runs to average per cell (paper: 5)")
        p.add_argument("--seed", type=int, default=20040101)

    p_tab = sub.add_parser("table1", help="regenerate Table 1")
    add_model_args(p_tab)
    p_tab.add_argument("--levels", type=int, nargs="+",
                       default=list(range(16)))
    p_tab.add_argument("--tols", type=float, nargs="+",
                       default=[1.0e-3, 1.0e-4])

    p_fig = sub.add_parser("figures", help="regenerate Figures 1-5")
    add_model_args(p_fig)
    p_fig.add_argument("--max-level", type=int, default=15)

    p_trace = sub.add_parser("trace", help="print one simulated run's output")
    add_model_args(p_trace)
    p_trace.add_argument("--level", type=int, default=2)
    p_trace.add_argument("--tol", type=float, default=1.0e-3)

    p_exp = sub.add_parser(
        "experiments", help="list the experiment index, or run one quickly"
    )
    add_model_args(p_exp)
    p_exp.add_argument("--run", default=None, metavar="ID",
                       help="experiment id (e.g. E1) for a quick summary")

    p_abl = sub.add_parser(
        "ablations", help="compare the named design-choice scenarios"
    )
    add_model_args(p_abl)
    p_abl.add_argument("--level", type=int, default=15)
    p_abl.add_argument("--tol", type=float, default=1.0e-3)
    p_abl.add_argument("--scenarios", nargs="+", default=None,
                       help="subset of scenario names (default: all)")

    return parser


def _load_or_calibrate_model(args) -> "CostModel":
    from repro.perf import CostModel, measure_costs

    if getattr(args, "model", None):
        return CostModel.from_json(args.model)
    print("calibrating cost model (levels 4-6)...", file=sys.stderr)
    records = measure_costs(
        "rotating-cone", root=2, levels=[4, 5, 6], tols=[1.0e-3, 1.0e-4],
        repeats=2,
    )
    return CostModel.fit(records, root=2)


def cmd_run_sequential(args) -> int:
    from repro.sparsegrid import SequentialApplication
    from repro.sparsegrid.registry import make_problem

    app = SequentialApplication(
        root=args.root, level=args.level, tol=args.tol,
        problem=make_problem(args.problem),
    )
    result = app.run()
    print(f"grids: {result.n_grids}, total {result.total_seconds:.3f}s "
          f"(subsolve {result.subsolve_seconds:.3f}s, "
          f"prolongation {result.prolongation_seconds:.3f}s)")
    print(f"combined solution on {result.target_grid}: "
          f"min {result.combined.min():.4f}, max {result.combined.max():.4f}")
    return 0


def cmd_run_concurrent(args) -> int:
    from repro.restructured import TaskInstanceEngine, run_concurrent
    from repro.restructured.pool import pool_diagnostics
    from repro.restructured.mainprog import DEFAULT_MLINK
    from repro.sparsegrid import SequentialApplication
    from repro.sparsegrid.registry import make_problem

    engine = None
    if args.engine == "task-instances":
        engine = TaskInstanceEngine()
    result, tasks = run_concurrent(
        root=args.root, level=args.level, tol=args.tol,
        problem_name=args.problem,
        engine=engine,
        pool_per_diagonal=args.pool_per_diagonal,
        link_spec_text=DEFAULT_MLINK,
    )
    print(f"workers: {result.n_workers}, total {result.total_seconds:.3f}s "
          f"(pool {result.pool_seconds:.3f}s)")
    if tasks is not None:
        print(f"task instances forked: {len(tasks.instances())}, "
              f"peak alive {tasks.peak_instances()}")
    if engine is not None:
        engine.close()
        pool = pool_diagnostics()
        print(f"OS task instances: {pool['processes']} pool worker(s), "
              f"{pool['jobs_dispatched']} job(s) dispatched, "
              f"{pool['promotions']} standby promotion(s)")
    if args.verify:
        seq = SequentialApplication(
            root=args.root, level=args.level, tol=args.tol,
            problem=make_problem(args.problem),
        ).run()
        identical = np.array_equal(seq.combined, result.combined)
        print(f"bitwise identical to sequential: {identical}")
        return 0 if identical else 1
    return 0


def cmd_run_parallel(args) -> int:
    from repro.resilience import (
        DeadlinePolicy,
        EscalationPolicy,
        FaultPlan,
        RetryPolicy,
    )
    from repro.restructured import run_multiprocessing
    from repro.sparsegrid import SequentialApplication
    from repro.sparsegrid.registry import make_problem

    plan = None
    if args.faults is not None:
        plan = FaultPlan.parse(args.faults, seed=args.fault_seed)

    def given(**flags):
        """A flag that was not given keeps its policy field's default."""
        return {name: v for name, v in flags.items() if v is not None}

    escalation = EscalationPolicy(
        retry=RetryPolicy(**given(max_attempts=args.retry)),
        deadline=DeadlinePolicy(**given(
            factor=args.deadline_factor, default_seconds=args.deadline_seconds
        )),
    )
    result = None
    recorder = None
    for run in range(max(1, args.repeat)):
        if args.trace:
            # one recorder per run: the written trace (and the report's
            # trace part) describe the final run, not a mixture
            from repro.trace import TraceRecorder

            recorder = TraceRecorder()
        result = run_multiprocessing(
            root=args.root, level=args.level, tol=args.tol,
            problem_name=args.problem,
            processes=args.processes,
            warm_pool=not args.cold,
            escalation=escalation,
            faults=plan,
            trace=recorder,
            engine=args.engine,
            hosts=args.hosts,
        )
        label = "cold" if args.cold else ("warm" if result.warm_pool else "cool")
        print(f"run {run + 1} ({label}): total {result.total_seconds:.3f}s "
              f"(pool {result.pool_seconds:.3f}s) on {result.processes} "
              f"process(es), {result.n_workers} grids")
    print()
    for line in result.report_lines(trace=recorder):
        print(line)
    if args.trace:
        from repro.trace import write_jsonl

        count = write_jsonl(recorder.events(), args.trace)
        print(f"trace: {count} events written to {args.trace}")
    if args.verify:
        seq = SequentialApplication(
            root=args.root, level=args.level, tol=args.tol,
            problem=make_problem(args.problem),
        ).run()
        identical = np.array_equal(seq.combined, result.combined)
        print(f"bitwise identical to sequential: {identical}")
        return 0 if identical else 1
    return 0


def cmd_worker_daemon(args) -> int:
    from repro.restructured.netengine import WorkerDaemon

    daemon = WorkerDaemon(host=args.host, port=args.port)
    # for whoever dials it: tcp://<this host>:<port>
    print(f"LISTENING {daemon.port}", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass  # Ctrl-C: serve_forever stopped its task instance on the way out
    return 0


def cmd_validate_socket(args) -> int:
    from repro.cluster.validation import validate_socket_engine

    report = validate_socket_engine(
        root=args.root,
        level=args.level,
        tol=args.tol,
        problem_name=args.problem,
        processes=args.processes,
        seed=args.seed,
    )
    for line in report.lines():
        print(line)
    return 0 if report.bitwise_identical else 1


def cmd_analyze_trace(args) -> int:
    from repro.trace import TraceAnalysis, read_jsonl, write_chrome_trace

    events = read_jsonl(args.path)
    analysis = TraceAnalysis(events)
    analysis.check_span_nesting()
    for line in analysis.report_lines():
        print(line)
    if args.chrome:
        count = write_chrome_trace(events, args.chrome)
        print(f"chrome trace ({count} records) written to {args.chrome}")
    return 0


def cmd_calibrate(args) -> int:
    from repro.perf import CostModel, measure_costs

    records = measure_costs(
        args.problem, root=args.root, levels=args.levels, tols=args.tols,
        repeats=args.repeats,
    )
    model = CostModel.fit(records, root=args.root)
    model.to_json(args.output)
    print(f"fitted on {len(records)} records: wall R^2 {model.r_squared:.3f}, "
          f"solves R^2 {model.solves_r_squared:.3f}")
    print(f"model written to {args.output}")
    return 0


def cmd_table1(args) -> int:
    from repro.harness import Table1Experiment, render_table1

    model = _load_or_calibrate_model(args)
    experiment = Table1Experiment(model, runs=args.runs, seed=args.seed)
    rows = experiment.run_all(levels=args.levels, tols=tuple(args.tols))
    print(render_table1(rows))
    return 0


def cmd_figures(args) -> int:
    from repro.harness import (
        Table1Experiment,
        figure1_ebb_flow,
        figure_speedup_machines,
        figure_times,
    )

    model = _load_or_calibrate_model(args)
    experiment = Table1Experiment(model, runs=args.runs, seed=args.seed)
    rows = experiment.run_all(
        levels=range(args.max_level + 1), tols=(1.0e-3, 1.0e-4)
    )
    print(figure1_ebb_flow(experiment, level=args.max_level, tol=1.0e-3).rendered)
    for fig in (
        figure_times(rows, 1.0e-3, 2),
        figure_speedup_machines(rows, 1.0e-3, 3),
        figure_times(rows, 1.0e-4, 4),
        figure_speedup_machines(rows, 1.0e-4, 5),
    ):
        print()
        print(fig.rendered)
    return 0


def cmd_trace(args) -> int:
    from repro.harness import Table1Experiment
    from repro.cluster.trace import render_trace

    model = _load_or_calibrate_model(args)
    experiment = Table1Experiment(model, runs=1, seed=args.seed)
    run = experiment.simulate_concurrent_once(
        args.level, args.tol, np.random.default_rng(args.seed)
    )
    print(render_trace(run))
    return 0


def cmd_ablations(args) -> int:
    from repro.cluster.scenarios import get_scenario, scenario_names
    from repro.cluster.simulator import simulate_distributed
    from repro.cluster.trace import machines_timeline, weighted_average_machines
    from repro.harness import render_table

    model = _load_or_calibrate_model(args)
    costs = model.level_costs(args.level, args.tol)
    prol = model.prolongation_seconds(args.level)
    names = args.scenarios or scenario_names()
    rows = []
    for name in names:
        scenario = get_scenario(name)
        run = simulate_distributed(
            [costs], scenario.cluster(), scenario.params(),
            np.random.default_rng(args.seed),
            master_prolongation_ref_seconds=prol,
        )
        timeline = machines_timeline(run)
        rows.append([
            name,
            run.elapsed_seconds,
            run.n_tasks_forked,
            weighted_average_machines(timeline, run.elapsed_seconds),
            scenario.description,
        ])
    print(render_table(
        ["scenario", "ct (s)", "tasks", "m", "description"],
        rows,
        title=f"Scenario ablations, level {args.level}, tol {args.tol:g}",
    ))
    return 0


def cmd_experiments(args) -> int:
    from repro.harness.experiments import get_experiment, render_index

    if args.run is None:
        print(render_index())
        return 0
    experiment = get_experiment(args.run)
    print(f"{experiment.id}: {experiment.paper_artifact} — {experiment.summary}")
    print(f"full regeneration: pytest {experiment.bench_target} --benchmark-only -s")
    if experiment.quick is None:
        print("(no quick summary: this experiment runs real code; use the bench)")
        return 0
    model = _load_or_calibrate_model(args)
    print()
    print(experiment.quick(model))
    return 0


_COMMANDS = {
    "run-sequential": cmd_run_sequential,
    "run-concurrent": cmd_run_concurrent,
    "run-parallel": cmd_run_parallel,
    "worker-daemon": cmd_worker_daemon,
    "validate-socket": cmd_validate_socket,
    "analyze-trace": cmd_analyze_trace,
    "calibrate": cmd_calibrate,
    "table1": cmd_table1,
    "figures": cmd_figures,
    "trace": cmd_trace,
    "ablations": cmd_ablations,
    "experiments": cmd_experiments,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
