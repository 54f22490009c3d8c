"""End-to-end benchmark: one command, every metric, every run checked.

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in this (fresh) interpreter, prints every metric with
unit, direction and bound, and ends with the one-line JSON result.
``--trace 0`` gives the end-to-end metrics; ``--trace 1`` repeats the
workload with a ``TraceRecorder`` and benchmark-side spans, runs the
per-layer probes and gives the per-layer metrics.

    python3 benchmarks/e2e/run.py [--traced] [--runs K] [--out FILE]

runs all four workloads, each in its own fresh interpreter, one after
another, and collects their records into ``FILE`` for ``compare.py``.
"""

import time

T_START = time.monotonic()  # set-up is timed from here

import argparse
import itertools
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_core as core  # noqa: E402  (stdlib only; `repro` comes later)

SRC = core.REPO_ROOT / "src"

#: set-ups per untraced run: this interpreter's own plus fresh ones
SETUP_SAMPLES = 3
#: share of ``--seconds`` a traced run spends on the workload's own
#: reps, alternating untraced and traced blocks; the probes take the rest
TRACED_SHARE = 0.4
TRACED_BLOCK = 4
#: environment variable that marks every process exec'ed under one run
RUN_TOKEN = "REPRO_E2E_RUN"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the seconds it took, stop")
    parser.add_argument("--traced", action="store_true",
                        help="all-workloads mode: add the traced pass")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload, "
                             "seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path,
                        help="all-workloads mode: collected records")
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# one workload, this interpreter
# ----------------------------------------------------------------------
def started_by_this_run() -> list[str]:
    """Live processes this run started: forked from this one (its pool
    workers), or exec'ed under it with the run's token in their
    environment — which also finds the task instance a killed daemon
    leaves behind, reparented and no longer anybody's child."""
    found = []
    me = os.getpid()
    token = f"{RUN_TOKEN}={os.environ[RUN_TOKEN]}".encode()
    for entry in os.listdir("/proc"):
        if not entry.isdigit() or int(entry) == me:
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
            environ = Path("/proc", entry, "environ").read_bytes()
            cmdline = Path("/proc", entry, "cmdline").read_bytes()
        except OSError:
            continue
        state, ppid = stat.rsplit(")", 1)[1].split()[:2]
        if state != "Z" and (int(ppid) == me or token in environ.split(b"\0")):
            found.append(f"{entry}:{cmdline.replace(bytes(1), b' ').decode()}")
    return found


def children_outliving(grace: float = 5.0) -> list[str]:
    """What is still running once the workload has been torn down.

    ``multiprocessing``'s resource tracker is stopped first: it is ours
    to end too, and left alone it outlives the interpreter by a moment.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()
    deadline = time.monotonic() + grace
    while True:
        alive = started_by_this_run()
        if not alive or time.monotonic() > deadline:
            return alive
        time.sleep(0.05)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # Linux reports KiB


def fresh_setup_seconds(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, seconds: float) -> dict:
    """Repeat the workload's cycle until the time is up; kind → reps.
    The first cycle always completes, so every kind has a sample."""
    samples: dict[str, list] = {kind: [] for kind in set(workload.cycle)}
    deadline = time.monotonic() + seconds
    for done, kind in enumerate(itertools.cycle(workload.cycle)):
        if done >= len(workload.cycle) and time.monotonic() >= deadline:
            break
        samples[kind].append(workload.run(kind))
    return samples


def measure_traced(workload, seconds: float, spans):
    """Alternate untraced and traced blocks of main reps, a sequential
    run after each pair, so both passes see the same host."""
    from e2e_workloads import Tracing

    samples = {"untraced": [], "traced": [], "seq": []}
    deadline = time.monotonic() + seconds
    rep_id = 0
    while time.monotonic() < deadline:
        for _ in range(TRACED_BLOCK):
            samples["untraced"].append(workload.run("main"))
        for _ in range(TRACED_BLOCK):
            rep_id += 1
            span = spans.open("harness.rep", None, rep_id)
            samples["traced"].append(
                workload.run("main", Tracing(spans, span, rep_id))
            )
            spans.close(span)
        samples["seq"].append(workload.run("seq"))
    return samples


def seconds_of(reps) -> list[float]:
    return [rep.seconds for rep in reps]


#: the quantile of a run's reps that stands for "how long a rep takes".
#: On this shared 2-core box other tenants lengthen 30–70 % of the reps
#: of a run in bursts, so the median measures the neighbours (README,
#: *How the bounds were measured*); the lower decile is the host left
#: alone, and repeats 2–4× better from run to run
QUIET_PCT = 10.0
QUIET_SHARE = 0.25


def end_to_end(samples: dict, setups: list[float], rss: float) -> dict:
    good = sorted(rep.seconds for rep in samples["main"] if rep.ok)
    quiet = good[:max(1, int(len(good) * QUIET_SHARE))]
    return {
        "setup_s": core.median(setups),
        "wall_s.p10": core.percentile(seconds_of(samples["main"]), QUIET_PCT),
        "runs_per_s": len(quiet) / sum(quiet) if quiet else 0.0,
        "seq_wall_s.p10":
            core.percentile(seconds_of(samples["seq"]), QUIET_PCT),
        "peak_rss_mb": rss,
    }


#: spans whose mean self seconds per traced rep are per-layer metrics
SPAN_NAMES = (
    "harness.rep", "harness.check", "parallel.call", "parallel.fanout",
    "pool.cold_start", "netengine.fanout", "netengine.spawn",
    "sparsegrid.subsolve", "sparsegrid.combine", "resilience.backoff",
    "manifold.pool",
)


def run_metrics(samples: dict, spans, calib: float) -> dict:
    """The per-layer metrics that come from the workload's own reps."""
    median = core.median
    untraced = seconds_of(samples["untraced"])
    traced = seconds_of(samples["traced"])
    q1, q3 = core.quartiles(untraced)
    tail_pct, tail_value = core.tail(untraced)
    own = core.self_seconds_by_name(spans.spans)
    metrics = {
        "run.wall_s.tail": tail_value,
        "run.tail_percentile": tail_pct,
        "run.wall_s.p50": median(untraced),
        "run.wall_s.q1": q1,
        "run.wall_s.q3": q3,
        "run.reps": len(untraced),
        "run.speedup_vs_seq":
            median(seconds_of(samples["seq"])) / median(untraced),
        "trace.overhead_ratio": median(traced) / median(untraced),
        "host.calib_s": calib,
        "host.nproc": os.cpu_count(),
    }
    for name in SPAN_NAMES:
        metrics[f"span.{name}.self_s"] = own.get(name, 0.0) / len(traced)
    unknown = set(own) - set(SPAN_NAMES) - {"harness.setup"}
    if unknown:
        raise AssertionError(f"spans without a metric: {sorted(unknown)}")
    return metrics


def run_one(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the socket engine's daemons are `python -m repro worker-daemon`
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])
    )
    os.environ.setdefault(RUN_TOKEN, f"{os.getpid()}.{time.monotonic_ns()}")
    from e2e_workloads import make_workload

    contract = core.load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload not in names:
        print(f"run.py: unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = core.DEFAULT_SEED
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    inputs = core.draw_inputs(args.seed)
    workload = make_workload(args.workload, inputs)
    spans = core.SpanRecorder()

    setup_span = spans.add("harness.setup", T_START, T_START, None, 0)
    workload.setup()
    setup_s = spans.close(setup_span)
    if args.setup_only:
        workload.teardown()
        print(json.dumps({"setup_s": setup_s}))
        return 1 if children_outliving() else 0

    calib_before = core.calibrate()
    if args.trace:
        samples = measure_traced(workload, seconds * TRACED_SHARE, spans)
    else:
        samples = measure(workload, seconds)
    calib_after = core.calibrate()
    workload.teardown()
    survivors = children_outliving()
    rss = peak_rss_mb()

    checked = [rep for reps in samples.values() for rep in reps]
    attempted = len(checked)
    failed = sum(1 for rep in checked if not rep.ok)
    leaks = 0
    record = {}
    if args.trace:
        from e2e_probes import Probes

        probes = Probes(inputs)
        probes.run()
        survivors += children_outliving()
        metrics = {**run_metrics(samples, spans, calib_before),
                   **probes.metrics}
        attempted += probes.attempted
        failed += probes.failed
        leaks = probes.leaks
        wanted = contract["per_layer"]
        spans.write_jsonl(core.OUT_DIR / f"spans_{args.workload}.jsonl")
    else:
        setups = [setup_s] + [
            fresh_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        metrics = end_to_end(samples, setups, rss)
        record["setup_samples"] = setups
        wanted = contract["end_to_end"]

    specs = core.metric_specs(contract)
    if set(metrics) != {spec["name"] for spec in wanted}:
        raise AssertionError(
            "metrics emitted differ from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ {spec['name'] for spec in wanted})}"
        )
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "seconds": seconds,
        "fingerprint": core.fingerprint(args.seed),
        "inputs": inputs,
        "calib_s": [calib_before, calib_after],
        "unstable": core.calibration_drift(calib_before, calib_after)
        > core.CALIB_DRIFT_LIMIT,
        "attempted": attempted,
        "failed": failed,
        "surviving_children": survivors,
        "dataplane_leaks": leaks,
        "samples": {
            kind: core.summary(seconds_of(reps))
            for kind, reps in samples.items()
        },
        "metrics": {
            spec["name"]: {
                "value": float(metrics[spec["name"]]), "unit": spec["unit"],
            }
            for spec in wanted
        },
    })
    core.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}.seed{args.seed}.trace{args.trace}"
    (core.OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1))
    report(record, specs)
    return 1 if failed or survivors or leaks else 0


def report(record: dict, specs: dict) -> None:
    """Every metric by name with unit, direction and bound; the JSON
    result is the last line."""
    print(f"{record['workload']}  seed={record['fingerprint']['seed']}  "
          f"trace={record['trace']}  seconds={record['seconds']:g}  "
          f"git={record['fingerprint']['git_rev']}")
    print("  reps: " + ", ".join(
        f"{kind}={summary['n']}"
        for kind, summary in sorted(record["samples"].items())
    ))
    for name, metric in record["metrics"].items():
        spec = specs[name]
        bound = f"  bound {spec['bound']:g}" if "bound" in spec else ""
        print(f"  {name:42s} {metric['value']:14.6g} {spec['unit']:9s}"
              f" better={spec['better']}{bound}")
    failed, attempted = record["failed"], record["attempted"]
    print(f"  {'failed_frac':42s} {failed / attempted:14.6g} {'fraction':9s}"
          f" better=lower  bound absolute ({failed}/{attempted})")
    if "control" in record["samples"]:
        overhead = (record["samples"]["main"]["p50"]
                    - record["samples"]["control"]["p50"])
        print(f"  {'recovery_overhead_s':42s} {overhead:14.6g} {'s':9s}"
              " better=lower  (p50 faulted - p50 fault-free)")
    before, after = record["calib_s"]
    print(f"  host.calib_s before/after {before:.5f}/{after:.5f}"
          + ("  UNSTABLE: the host changed speed under this run"
             if record["unstable"] else ""))
    for problem in record["surviving_children"]:
        print(f"  child outlived its workload: {problem}")
    if record["dataplane_leaks"]:
        print("  the DataPlane probe leaked a segment")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))


# ----------------------------------------------------------------------
# all workloads, one fresh interpreter each
# ----------------------------------------------------------------------
def run_all(args) -> int:
    contract = core.load_contract()
    seed = core.DEFAULT_SEED if args.seed is None else args.seed
    records, status = [], 0
    for offset in range(args.runs):
        for trace in (0, 1) if args.traced else (0,):
            for workload in contract["workloads"]:
                command = [
                    sys.executable, str(Path(__file__).resolve()),
                    "--workload", workload["name"],
                    "--seed", str(seed + offset), "--trace", str(trace),
                ]
                if args.seconds is not None:
                    command += ["--seconds", str(args.seconds)]
                done = subprocess.run(command)
                status = status or done.returncode
                stem = f"{workload['name']}.seed{seed + offset}.trace{trace}"
                path = core.OUT_DIR / f"{stem}.json"
                if done.returncode in (0, 1) and path.is_file():
                    records.append(json.loads(path.read_text()))
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps({"runs": records}, indent=1))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
