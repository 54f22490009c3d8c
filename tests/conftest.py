"""Shared fixtures for the test suite."""

from __future__ import annotations

import math
import os
import pickle
import random
import socket
import struct

import pytest

from repro.manifold import Runtime
from repro.perf.costmodel import CostModel, CostRecord


def pytest_collection_modifyitems(config, items):
    """Optionally shuffle collection order to flush order-dependent state.

    The shuffled CI job sets ``REPRO_TEST_SHUFFLE_SEED``; the permutation
    is a pure function of the seed, so any failing order can be replayed
    locally by exporting the same value.
    """
    seed = os.environ.get("REPRO_TEST_SHUFFLE_SEED")
    if not seed:
        return
    random.Random(seed).shuffle(items)


def pytest_report_header(config):
    seed = os.environ.get("REPRO_TEST_SHUFFLE_SEED")
    if seed:
        return f"shuffled collection order: REPRO_TEST_SHUFFLE_SEED={seed}"
    return None


@pytest.fixture()
def runtime():
    """A fresh coordination runtime, shut down after the test."""
    rt = Runtime("test")
    yield rt
    rt.shutdown()


def synthetic_records(
    root: int = 2,
    levels=range(2, 7),
    tols=(1.0e-3, 1.0e-4),
    *,
    gamma: float = 0.01,
    beta: float = 5.0e-7,
    alpha: float = 1.0e-7,
    s0: float = 1.0,
    s1: float = 0.11,
    s2: float = -0.04,
    s3: float = 1.2,
) -> list[CostRecord]:
    """Noise-free records generated from a known ground-truth model."""
    records = []
    for tol in tols:
        for level in levels:
            for l in range(level + 1):
                m = level - l
                n = (2 ** (root + l) - 1) * (2 ** (root + m) - 1)
                solves = math.exp(
                    s0 + s1 * (l + m) + s2 * abs(l - m) + s3 * math.log10(1.0 / tol)
                )
                wall = gamma + beta * n + alpha * n * solves
                records.append(
                    CostRecord(
                        l=l,
                        m=m,
                        tol=tol,
                        wall_seconds=wall,
                        solves=int(round(solves)),
                        steps_accepted=int(round(solves / 2)),
                        n_interior=n,
                    )
                )
    return records


@pytest.fixture(scope="session")
def synthetic_cost_model() -> CostModel:
    """A cost model fitted on synthetic ground-truth records.

    Fast (no real solves) and deterministic; used by simulator, harness
    and figure tests that only need *a* plausible model.
    """
    return CostModel.fit(synthetic_records(), root=2)


@pytest.fixture(scope="session")
def calibrated_cost_model() -> CostModel:
    """A cost model calibrated on the real solver at small levels.

    Session-scoped: the measurement (~2 s) runs once per test session.
    """
    from repro.perf.costmodel import measure_costs

    records = measure_costs(
        "rotating-cone", root=2, levels=[4, 5, 6], tols=[1.0e-3, 1.0e-4],
        repeats=2,
    )
    return CostModel.fit(records, root=2)


def process_children(pid) -> list[int]:
    """The live child processes of ``pid``, read off ``/proc``."""
    pids = []
    for tid in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as listing:
                pids += [int(child) for child in listing.read().split()]
        except OSError:
            pass  # a thread that ended under the listing
    return pids


def process_running(pid) -> bool:
    """Still executing: not gone, and not a zombie awaiting its parent."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _framed(body: bytes) -> bytes:
    return struct.pack("!4sI", b"RPRO", len(body)) + body


#: what no master sends, each behind a valid header: a body that is no
#: pickle, a pickle that is no ``(kind, data)`` pair, a ``job`` without
#: its ``spec``
HOSTILE_FRAMES = {
    "garbage": _framed(b"not a pickle at all"),
    "no-pair": _framed(pickle.dumps(5)),
    "no-spec": _framed(
        pickle.dumps(("job", {"plan": None, "attempt": 1, "use_cache": True}))
    ),
}


def daemon_hangs_up_on(port: int, wire: bytes) -> bool:
    """Send ``wire`` to the daemon on ``port`` after its ``hello``;
    ``True`` once the daemon has closed that connection."""
    from repro.restructured.netengine import recv_frame

    with socket.create_connection(("127.0.0.1", port), timeout=10.0) as sock:
        assert recv_frame(sock)[0] == "hello"
        sock.sendall(wire)
        while (frame := recv_frame(sock)) is not None:
            assert frame[0] == "heartbeat"
    return True
