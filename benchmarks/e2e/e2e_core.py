"""Timing-free core of the end-to-end benchmark.

Everything here is arithmetic on numbers the harness has already
measured — percentiles, A-B-A overheads, span self time, seed → inputs,
the bound/direction comparison — plus the host fingerprint.  Nothing in
this module imports ``repro``, so ``test_e2e_harness.py`` and
``compare.py`` can use it without the program on the path.
"""

from __future__ import annotations

import json
import os
import platform
import random
import statistics
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Optional, Sequence

E2E_DIR = Path(__file__).resolve().parent
REPO_ROOT = E2E_DIR.parent.parent
OUT_DIR = E2E_DIR / "out"

DEFAULT_SEED = 20040101

#: a percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics §1)
MIN_SAMPLES_BEYOND = 10
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

#: before/after calibration drift beyond which a run is ``unstable``
CALIB_DRIFT_LIMIT = 0.10


# ----------------------------------------------------------------------
# the contract
# ----------------------------------------------------------------------
def load_contract(root: Path = REPO_ROOT) -> dict:
    """``BENCHMARK.json`` — the one place units, directions and bounds
    are written down; the harness and ``compare.py`` both read it."""
    return json.loads((root / "BENCHMARK.json").read_text())


def metric_specs(contract: dict) -> dict[str, dict]:
    """name → {unit, better[, bound]} over both metric lists."""
    return {
        spec["name"]: spec
        for spec in contract["end_to_end"] + contract["per_layer"]
    }


# ----------------------------------------------------------------------
# seed → inputs
# ----------------------------------------------------------------------
#: the draw is deliberately narrow: the adaptive integrator's step count
#: follows the initial condition, and a wide draw would make two seeds
#: two different amounts of work (±3 % across the unit square, ±0.3 %
#: inside this box) — seeds must vary the inputs, not the workload size
CENTRE = (0.5, 0.75)
CENTRE_JITTER = 0.002
WIDTH = 0.08
WIDTH_JITTER = 0.0002
NOOP_WORKERS = 31


def draw_inputs(seed: int) -> dict:
    """The generated inputs a run hands to the program.

    ``problem_kwargs`` is the rotating-cone ``centre``/``width`` every
    sparse-grid workload passes on; ``noop_payloads`` are the 31 values
    the MANIFOLD no-op pool must carry to its workers and back.
    """
    rng = random.Random(seed)
    centre = (
        CENTRE[0] + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER),
        CENTRE[1] + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER),
    )
    width = WIDTH + rng.uniform(-WIDTH_JITTER, WIDTH_JITTER)
    return {
        "problem_kwargs": {"centre": centre, "width": width},
        "noop_payloads": [rng.randrange(1 << 30) for _ in range(NOOP_WORKERS)],
    }


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(n: int, pct: float) -> float:
    return n * (100.0 - pct) / 100.0


def reportable_percentile(
    samples: Sequence[float], pct: float
) -> Optional[float]:
    """The percentile, or ``None`` with fewer than ten samples beyond it."""
    if samples_beyond(len(samples), pct) < MIN_SAMPLES_BEYOND:
        return None
    return percentile(samples, pct)


def tail(samples: Sequence[float]) -> tuple[float, float]:
    """``(pct, value)`` of the highest reportable percentile.

    Falls back to the median (pct 50) when even that has fewer than ten
    samples beyond it, because a per-layer metric must always carry a
    number; the pct travels with it so nobody reads a median as a p90.
    """
    for pct in TAIL_CANDIDATES:
        value = reportable_percentile(samples, pct)
        if value is not None:
            return pct, value
    return 50.0, percentile(samples, 50.0)


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples)


def quartiles(samples: Sequence[float]) -> tuple[float, float]:
    """(q1, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) < 2:
        return samples[0], samples[0]
    q1, _, q3 = statistics.quantiles(samples, n=4)
    return q1, q3


def spread(samples: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q3 = quartiles(samples)
    mid = median(samples)
    return (q3 - q1) / mid if mid else 0.0


def summary(samples: Sequence[float]) -> dict:
    """What a record keeps of one rep kind's timings."""
    q1, q3 = quartiles(samples)
    return {
        "n": len(samples), "min": min(samples),
        "p10": percentile(samples, 10.0), "q1": q1, "p50": median(samples),
        "q3": q3, "max": max(samples),
    }


def aba_overhead(treated: Sequence[float], control: Sequence[float]) -> float:
    """Seconds the treatment costs: p50(B) − p50(A ∪ A′).

    The control blocks bracket the treated block, so slow drift of the
    host moves both medians and cancels instead of reading as overhead.
    """
    return median(treated) - median(control)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One benchmark-side span; ``parent`` indexes the recorder's list."""

    name: str
    start: float
    end: float
    parent: Optional[int]
    rep: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans on ``time.monotonic`` — the clock the program's
    own worker-side stamps use, so they nest under ours directly."""

    def __init__(self) -> None:
        self.spans: list[Span] = []

    def add(
        self, name: str, start: float, end: float,
        parent: Optional[int], rep: int,
    ) -> int:
        self.spans.append(Span(name, start, end, parent, rep))
        return len(self.spans) - 1

    def open(self, name: str, parent: Optional[int], rep: int) -> int:
        now = time.monotonic()
        return self.add(name, now, now, parent, rep)

    def close(self, index: int) -> float:
        span = self.spans[index]
        span.end = time.monotonic()
        return span.duration

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name, "start": span.start,
                    "end": span.end, "parent": span.parent, "rep": span.rep,
                }) + "\n")


def covered(intervals: Iterable[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    edge = float("-inf")
    for start, end in sorted(intervals):
        start = max(start, edge)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: Sequence[Span]) -> list[float]:
    """Per span: duration minus the part of it its children cover.

    Children are clipped to the parent and unioned, so two workers
    computing side by side under one fan-out are not subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            clipped = (max(span.start, parent.start), min(span.end, parent.end))
            children.setdefault(span.parent, []).append(clipped)
    return [
        span.duration - covered(children.get(index, ()))
        for index, span in enumerate(spans)
    ]


def self_seconds_by_name(spans: Sequence[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


# ----------------------------------------------------------------------
# comparison
# ----------------------------------------------------------------------
def worsening(base: float, head: float, better: str) -> float:
    """Relative change of ``head`` against ``base`` in the bad direction
    (positive = worse), as a share of ``base``."""
    if base == 0:
        return 0.0 if head == base else float("inf")
    change = (head - base) / abs(base)
    return change if better == "lower" else -change


def overlap(base: Sequence[float], head: Sequence[float]) -> bool:
    return min(base) <= max(head) and min(head) <= max(base)


def verdict(
    base: Sequence[float], head: Sequence[float], better: str, bound: float
) -> dict:
    """One (workload, metric) row: both medians, ratio, verdict.

    ``unresolved`` when either side's spread is wider than the bound and
    the two sets of runs overlap (simplicity-review, *Benchmark
    workloads*); otherwise the medians decide.
    """
    base_mid, head_mid = median(base), median(head)
    worse_by = worsening(base_mid, head_mid, better)
    noisy = max(spread(base), spread(head)) > bound
    if noisy and overlap(base, head):
        word = "unresolved"
    else:
        word = "worse" if worse_by > bound else "ok"
    return {
        "base": base_mid,
        "head": head_mid,
        "ratio": head_mid / base_mid if base_mid else float("nan"),
        "worse_by": worse_by,
        "verdict": word,
    }


# ----------------------------------------------------------------------
# host fingerprint and drift guard
# ----------------------------------------------------------------------
def calibrate() -> float:
    """A fixed numpy-matmul + pure-Python loop, in seconds.

    Timed before and after every workload: if the two differ by more
    than a tenth the host changed speed under the run, and the record is
    marked ``unstable`` rather than compared.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.random((256, 256))
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        b = a
        for _ in range(24):
            b = b @ a
            b /= b.max()
        acc = float(b[0, 0])
        for i in range(400_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def calibration_drift(before: float, after: float) -> float:
    return abs(after - before) / before


def git_rev(root: Path = REPO_ROOT) -> str:
    """HEAD's commit, read from ``.git`` directly (the driver's checkout
    is not a repository and has no ``git`` to ask)."""
    git_dir = root / ".git"
    try:
        head = (git_dir / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git_dir / head[5:]).read_text().strip()[:12]
        return head[:12]
    except OSError:
        return "unknown"


def fingerprint(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_rev": git_rev(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }
