"""A deterministic, seedable fault injector for the execution layer.

The injector is *data*: a :class:`FaultPlan` is a tuple of
:class:`FaultRule` entries, each naming a fault kind, the grid(s) and
attempt(s) it applies to, and an optional deterministic sampling rate.
The same plan object drives two very different backends:

* **in-process, against the real workers** — :func:`resilient_entry`
  is what every task instance runs a job through
  (:mod:`repro.restructured.taskengine`), a pool worker's and the one
  behind a socket daemon alike, with the plan the driver sent along.
  A matched ``crash`` rule really calls ``os._exit`` inside the worker
  OS process, a ``hang`` rule really sleeps through the deadline, so
  the recovery machinery is exercised against genuine process death,
  not a simulation of it (a socket daemon serves those two itself, as
  faults of the whole machine: :mod:`repro.restructured.netengine`);
* **the cluster simulator** — :meth:`FaultPlan.action` is consulted by
  :func:`repro.cluster.simulator.simulate_distributed` per (grid,
  attempt), which is how the chaos scenarios of
  :mod:`repro.cluster.scenarios` model crashes and slow hosts on the
  paper's 32-machine testbed.

Determinism guarantee: rule matching uses no wall clock and no global
RNG.  ``rate=`` sampling hashes ``(seed, l, m, attempt)``
(:func:`~repro.resilience.policy.deterministic_fraction`), so a seeded
plan injects the *same* faults on every run, in every process, on every
machine — the property the acceptance tests lean on when they assert a
recovered run is bitwise identical to a fault-free one.

Spec grammar (the CLI's ``--faults`` argument)::

    spec   := clause (';' clause)*
    clause := kind ['@' target] [':' params]
    kind   := 'crash' | 'hang' | 'slow' | 'raise'
    target := l ',' m | '*'
    params := key '=' value (',' key '=' value)*
    keys   := attempt (int or '*'), rate, seed, factor, seconds, exit_code

Examples::

    crash@3,2                    # kill the worker solving grid (3,2), attempt 1
    hang@5,1:seconds=3600        # grid (5,1)'s first attempt never returns
    slow@*:factor=4,rate=0.2     # a fifth of all jobs run on a 4x slower host
    raise@2,2:attempt=*          # every attempt at (2,2) throws transiently
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, replace
from typing import Optional

from .policy import deterministic_fraction

__all__ = [
    "FAULT_KINDS",
    "TransientWorkerError",
    "FaultRule",
    "FaultPlan",
    "resilient_entry",
]

FAULT_KINDS = ("crash", "hang", "slow", "raise")

#: exit status of an injected worker crash (recognizable in core dumps
#: and pool diagnostics; any non-zero status triggers the same recovery)
CRASH_EXIT_CODE = 23


class TransientWorkerError(RuntimeError):
    """The injected transient fault: the job raises instead of dying."""


@dataclass(frozen=True)
class FaultRule:
    """One declarative fault: what, where, when, and how severe."""

    kind: str
    #: target grid; None matches any l (resp. m)
    l: Optional[int] = None
    m: Optional[int] = None
    #: attempt number the rule fires on; None = every attempt
    attempt: Optional[int] = 1
    #: deterministic sampling rate in (0, 1]; 1.0 = always
    rate: float = 1.0
    #: seed of the rate draw (per-rule, so plans compose predictably)
    seed: int = 0
    #: slow-host multiplier (kind == "slow")
    factor: float = 3.0
    #: hang duration (kind == "hang"); long enough to trip any deadline
    seconds: float = 3600.0
    #: worker exit status (kind == "crash")
    exit_code: int = CRASH_EXIT_CODE

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; choose from {FAULT_KINDS}"
            )
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def matches(self, l: int, m: int, attempt: int) -> bool:
        """Does this rule fire for (grid, attempt)?  Deterministic."""
        if self.l is not None and self.l != l:
            return False
        if self.m is not None and self.m != m:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.rate >= 1.0:
            return True
        return (
            deterministic_fraction(self.seed, self.kind, l, m, attempt)
            < self.rate
        )


def _parse_clause(clause: str, default_seed: int) -> FaultRule:
    clause = clause.strip()
    head, _, params_text = clause.partition(":")
    kind, _, target = head.strip().partition("@")
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise ValueError(
            f"unknown fault kind {kind!r} in clause {clause!r}; "
            f"choose from {FAULT_KINDS}"
        )
    # slow is a property of the host, not of one attempt: default to
    # every attempt so a retry does not magically land on fast hardware
    rule = FaultRule(
        kind=kind,
        seed=default_seed,
        attempt=None if kind == "slow" else 1,
    )
    target = target.strip()
    if target and target != "*":
        try:
            l_text, m_text = target.split(",")
            rule = replace(rule, l=int(l_text), m=int(m_text))
        except ValueError:
            raise ValueError(
                f"bad target {target!r} in clause {clause!r}; "
                "expected 'l,m' or '*'"
            ) from None
    for pair in filter(None, (p.strip() for p in params_text.split(","))):
        key, sep, value = pair.partition("=")
        if not sep:
            raise ValueError(f"bad parameter {pair!r} in clause {clause!r}")
        key = key.strip()
        value = value.strip()
        if key == "attempt":
            rule = replace(rule, attempt=None if value == "*" else int(value))
        elif key == "rate":
            rule = replace(rule, rate=float(value))
        elif key == "seed":
            rule = replace(rule, seed=int(value))
        elif key == "factor":
            rule = replace(rule, factor=float(value))
        elif key == "seconds":
            rule = replace(rule, seconds=float(value))
        elif key == "exit_code":
            rule = replace(rule, exit_code=int(value))
        else:
            raise ValueError(
                f"unknown parameter {key!r} in clause {clause!r}"
            )
    return rule


@dataclass(frozen=True)
class FaultPlan:
    """An ordered set of fault rules; first match wins.

    Frozen and built from plain values, so a plan pickles cleanly across
    the fork boundary and two equal plans behave identically.
    """

    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str, *, seed: int = 0) -> "FaultPlan":
        """Parse the ``--faults`` spec grammar (see module docstring)."""
        rules = tuple(
            _parse_clause(clause, seed)
            for clause in spec.split(";")
            if clause.strip()
        )
        if not rules:
            raise ValueError(f"fault spec {spec!r} contains no clauses")
        return cls(rules=rules)

    def action(self, l: int, m: int, attempt: int) -> Optional[FaultRule]:
        """The rule that fires for this (grid, attempt), if any."""
        for rule in self.rules:
            if rule.matches(l, m, attempt):
                return rule
        return None

    def describe(self) -> str:
        return "; ".join(
            f"{r.kind}@"
            + ("*" if r.l is None else f"{r.l},{r.m}")
            + (f":attempt={'*' if r.attempt is None else r.attempt}")
            + (f",rate={r.rate:g}" if r.rate < 1.0 else "")
            for r in self.rules
        )


# ----------------------------------------------------------------------
# the worker-side entry point
# ----------------------------------------------------------------------
def resilient_entry(item: tuple):
    """Run one job under fault injection.

    What a task instance (:mod:`repro.restructured.taskengine`) does
    with every message it is sent.  ``item`` is ``(spec, plan, attempt,
    use_cache)`` — ``plan`` is ``None`` on a run that injects nothing.
    """
    spec, plan, attempt, use_cache = item
    # local import: this module must stay importable without dragging
    # the execution layer in at import time
    from repro.restructured.worker import execute_job

    key = (spec.l, spec.m)
    action = plan.action(spec.l, spec.m, attempt) if plan is not None else None
    if action is not None and action.kind == "crash":
        # a real, unannounced OS-level death — exactly what a segfault
        # or an OOM kill looks like from the master's side
        os._exit(action.exit_code)
    if action is not None and action.kind == "hang":
        time.sleep(action.seconds)
    if action is not None and action.kind == "raise":
        raise TransientWorkerError(
            f"injected transient fault on grid {key}, attempt {attempt}"
        )
    started = time.perf_counter()
    payload = execute_job(spec, use_cache=use_cache)
    if action is not None and action.kind == "slow":
        # emulate a slow host: stretch the job to factor x its own time
        time.sleep((action.factor - 1.0) * (time.perf_counter() - started))
    return payload
