"""Compare two collected result files under the benchmark's own bounds.

    python3 benchmarks/e2e/compare.py BASE.json HEAD.json

Both files are what ``run.py --runs K --out FILE`` writes.  One row per
(workload, end-to-end metric): both medians, the ratio with its base,
and ``ok`` / ``worse`` / ``unresolved`` by the direction and bound
``BENCHMARK.json`` fixes.  Records marked ``unstable`` (the host changed
speed under them) are refused, not compared.  Exits 1 on any ``worse``
or failed rep, 2 when a side has nothing comparable.

    python3 benchmarks/e2e/compare.py RUNS.json

With one file: each metric's median and run-to-run spread (distance
between the quartiles as a share of the median) against a third of its
bound — the steadiness the benchmark must keep to be usable.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import e2e_core as core  # noqa: E402


def stable_values(runs: list[dict]) -> tuple[dict, int, int]:
    """(workload, metric) → values of the untraced stable records, plus
    how many records were refused and how many reps failed."""
    values: dict[tuple[str, str], list[float]] = {}
    refused = failed = 0
    for record in runs:
        if record["trace"]:
            continue
        if record["unstable"]:
            refused += 1
            continue
        failed += record["failed"]
        for name, metric in record["metrics"].items():
            values.setdefault((record["workload"], name), []).append(
                metric["value"]
            )
    return values, refused, failed


def compare(base_runs: list[dict], head_runs: list[dict], contract: dict):
    """Rows for every (workload, end-to-end metric), in contract order."""
    base, base_refused, base_failed = stable_values(base_runs)
    head, head_refused, head_failed = stable_values(head_runs)
    rows = []
    for workload in contract["workloads"]:
        for spec in contract["end_to_end"]:
            key = (workload["name"], spec["name"])
            if key not in base or key not in head:
                rows.append({"workload": key[0], "metric": key[1],
                             "verdict": "missing"})
                continue
            row = core.verdict(
                base[key], head[key], spec["better"], spec["bound"]
            )
            row.update(workload=key[0], metric=key[1], unit=spec["unit"],
                       bound=spec["bound"], runs=(len(base[key]), len(head[key])))
            rows.append(row)
    return rows, (base_refused, head_refused), (base_failed, head_failed)


def print_spreads(runs: list[dict], contract: dict) -> int:
    values, refused, failed = stable_values(runs)
    print(f"{'workload':16s} {'metric':15s} {'median':>11s} {'spread':>7s} "
          f"{'bound/3':>7s} {'runs':>4s}")
    steady = True
    for workload in contract["workloads"]:
        for spec in contract["end_to_end"]:
            got = values.get((workload["name"], spec["name"]))
            if not got:
                continue
            wide = core.spread(got) > spec["bound"] / 3
            # the set-up time's spread gates nothing, only its median does
            steady = steady and (not wide or spec["name"] == "setup_s")
            print(f"{workload['name']:16s} {spec['name']:15s} "
                  f"{core.median(got):11.5g} {core.spread(got):7.4f} "
                  f"{spec['bound'] / 3:7.4f} {len(got):4d}"
                  + ("  wide" if wide else ""))
    print(f"unstable records refused: {refused}; failed reps: {failed}")
    return 0 if steady and not failed else 1


def main(argv=None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) == 1:
        runs = json.loads(Path(paths[0]).read_text())["runs"]
        return print_spreads(runs, core.load_contract())
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base_runs, head_runs = (
        json.loads(Path(path).read_text())["runs"] for path in paths
    )
    rows, refused, failed = compare(base_runs, head_runs, core.load_contract())
    print(f"{'workload':16s} {'metric':15s} {'base':>11s} {'head':>11s} "
          f"{'head/base':>9s} {'bound':>6s} {'runs':>7s}  verdict")
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['workload']:16s} {row['metric']:15s} "
                  f"{'-':>11s} {'-':>11s} {'-':>9s} {'-':>6s} {'-':>7s}  missing")
            continue
        print(f"{row['workload']:16s} {row['metric']:15s} "
              f"{row['base']:11.5g} {row['head']:11.5g} {row['ratio']:9.4f} "
              f"{row['bound']:6.2f} {row['runs'][0]:3d}/{row['runs'][1]:<3d}  "
              f"{row['verdict']}")
    print(f"unstable records refused: base {refused[0]}, head {refused[1]}; "
          f"failed reps: base {failed[0]}, head {failed[1]}")
    words = {row["verdict"] for row in rows}
    if "missing" in words:
        return 2
    # failed_frac is absolute: any rise is a regression
    return 1 if "worse" in words or failed[1] > failed[0] else 0


if __name__ == "__main__":
    sys.exit(main())
