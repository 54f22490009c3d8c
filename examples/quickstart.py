#!/usr/bin/env python
"""Quickstart: the paper's story in sixty seconds.

1. Run the *sequential* legacy application (root=2, level=3, tol=1e-3):
   a sparse-grid advection-diffusion solve over 7 grids.
2. Run the *restructured* concurrent version: the same program with its
   nested loop delegated to a pool of workers through the MANIFOLD
   master/worker protocol.
3. Check the two produce bitwise-identical results and show where the
   time went.

Usage::

    python examples/quickstart.py [level] [tol]
"""

from __future__ import annotations

import sys

import numpy as np

from repro.restructured import run_concurrent
from repro.restructured.mainprog import DEFAULT_MLINK
from repro.sparsegrid import SequentialApplication


def main() -> int:
    level = int(sys.argv[1]) if len(sys.argv) > 1 else 3
    tol = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0e-3

    print(f"== sequential run: root=2 level={level} tol={tol:g} ==")
    seq = SequentialApplication(root=2, level=level, tol=tol).run()
    print(f"grids solved: {seq.n_grids} (the paper's w = 2*level+1)")
    for (l, m), seconds in sorted(seq.grid_seconds.items()):
        print(f"  subsolve({l},{m}): {seconds:8.3f}s")
    print(f"prolongation: {seq.prolongation_seconds:.3f}s")
    print(f"total: {seq.total_seconds:.3f}s")

    print()
    print("== restructured (master/worker protocol) run ==")
    conc, tasks = run_concurrent(
        root=2, level=level, tol=tol, link_spec_text=DEFAULT_MLINK, timeout=600
    )
    print(f"workers used: {conc.n_workers}")
    print(f"total: {conc.total_seconds:.3f}s "
          f"(pool {conc.pool_seconds:.3f}s, "
          f"combine {conc.combine_seconds:.3f}s)")
    if tasks is not None:
        print(f"task instances ever forked: {len(tasks.instances())}, "
              f"peak alive: {tasks.peak_instances()}")

    identical = np.array_equal(seq.combined, conc.combined)
    print()
    print(f"results bitwise identical: {identical}")
    if not identical:
        print("ERROR: the restructuring changed the numerics!", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
