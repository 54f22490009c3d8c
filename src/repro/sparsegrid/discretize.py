"""Spatial discretization: sparse operators on one anisotropic grid.

The semi-discretization of the transport equation on grid ``(l, m)``
(vertex-centred nodes, Dirichlet boundary) is the linear ODE system::

    du/dt = J u + C g(t) + s(t)          (interior nodes only)

* ``J`` — interior-to-interior operator: central second differences for
  diffusion plus first-order *upwind* (or optionally central)
  differences for advection;
* ``C`` — the interior-from-boundary coupling captured at assembly, so
  time-dependent Dirichlet data enters through a cheap matvec;
* ``s(t)`` — the source sampled on interior nodes.

Building this operator "takes a lot of time" in the original program.
Here each interior row is written straight from its 5-point stencil:
five coefficient arrays over the interior nodes, one per neighbour,
scattered into ``J`` (interior neighbours) and ``C`` (boundary
neighbours) by one builder for both advection schemes.  Each entry is
the float expression the Kronecker-product formulation of the operator
evaluates (``tests/sparsegrid/test_discretize.py`` keeps that
formulation as the reference and requires equal ``indptr``, ``indices``
and ``data``):

* diffusion ``D·((−2/hx²) + (−2/hy²))`` on the diagonal and ``D/h²`` on
  a neighbour;
* upwind advection ``((T1 + T2) + T3) + T4`` on the diagonal, where the
  four terms are the backward/forward x and y differences scaled by
  ``max(a, 0)`` / ``min(a, 0)``;
* the entry is ``diffusion − advection``, and an exact zero is not
  stored.

The order a row stores its entries in is part of the bits too: SciPy's
CSR matvec sums a row in stored order, so the same coefficients stored
in another order can round ``J u`` differently.  Rows are stored in
*descending* column order — the ``(i+1, j)``, ``(i, j+1)``, ``(i, j)``,
``(i, j−1)``, ``(i−1, j)`` neighbours, in the flat node numbering
``i·(ny+1) + j`` — because that is what the Kronecker formulation's
sparse sums and column selection left behind for a field that advects
in both directions, which covers every registry problem at the default
root.  Where the field vanishes in one direction (the rotation on a
root-1 grid one interior node wide, a field with a zero component) that
formulation left rows ascending, and so does this one:
:func:`_descending` is the rule.
"""

from __future__ import annotations

import time
from typing import Literal

import numpy as np
import scipy.sparse as sp

from .grid import Grid
from .problem import AdvectionDiffusionProblem

__all__ = ["SpatialOperator"]

Scheme = Literal["upwind", "central"]


def _stencil(
    grid: Grid,
    diffusion: float,
    a1: np.ndarray,
    a2: np.ndarray,
    scheme: Scheme,
) -> list[np.ndarray]:
    """The five stencil coefficients of every interior row.

    ``a1``/``a2`` are the velocity components on the interior nodes.
    Returned in descending column order: ``(i+1, j)``,
    ``(i, j+1)``, ``(i, j)``, ``(i, j−1)``, ``(i−1, j)``.
    """
    cx = 1.0 / (grid.hx * grid.hx)
    cy = 1.0 / (grid.hy * grid.hy)
    lap_centre = diffusion * ((-2.0 * cx) + (-2.0 * cy))
    lap_x, lap_y = diffusion * cx, diffusion * cy
    if scheme == "upwind":
        inv_hx, inv_hy = 1.0 / grid.hx, 1.0 / grid.hy
        neg_inv_hx, neg_inv_hy = -1.0 / grid.hx, -1.0 / grid.hy
        a1p, a1m = np.maximum(a1, 0.0), np.minimum(a1, 0.0)
        a2p, a2m = np.maximum(a2, 0.0), np.minimum(a2, 0.0)
        adv_xp, adv_xm = a1m * inv_hx, a1p * neg_inv_hx
        adv_yp, adv_ym = a2m * inv_hy, a2p * neg_inv_hy
        adv_centre = (
            ((a1p * inv_hx + a1m * neg_inv_hx) + a2p * inv_hy) + a2m * neg_inv_hy
        )
    else:
        adv_xp, adv_xm = a1 * (0.5 / grid.hx), a1 * (-0.5 / grid.hx)
        adv_yp, adv_ym = a2 * (0.5 / grid.hy), a2 * (-0.5 / grid.hy)
        adv_centre = np.zeros_like(a1)
    return [
        lap_x - adv_xp,
        lap_y - adv_yp,
        lap_centre - adv_centre,
        lap_y - adv_ym,
        lap_x - adv_xm,
    ]


def _descending(a1: np.ndarray, a2: np.ndarray, scheme: Scheme) -> bool:
    """Whether a row stores its columns descending (else ascending).

    ``a1``/``a2`` are the velocity components on all nodes.  The order
    is what the Kronecker formulation's sparse sums left behind: SciPy
    adds two CSR matrices with sorted rows by a merge (rows stay
    ascending) and any other pair by a linked list that emits a row's
    columns in reverse order of first appearance.  Its diffusion term is
    sorted, so the final ``lap − adv`` stores rows descending exactly
    when some row of the advection sum is unsorted — worked out per
    scheme below from which difference rows carry a nonzero velocity,
    the boundary lines included.
    """
    if scheme == "central":
        # an interior node advected in x and y both
        inner = (slice(1, -1), slice(1, -1))
        return bool(np.any((a1[inner] != 0.0) & (a2[inner] != 0.0)))
    # upwind: unsorted iff two of these three terms are present
    in_x = np.any(a1[1:-1, :] != 0.0)
    up_y = np.any(a2[:, 1:-1] > 0.0)
    down_y = np.any(a2[:, 1:-1] < 0.0)
    return int(in_x) + int(up_y) + int(down_y) >= 2


def _csr(
    values: np.ndarray, columns: np.ndarray, stored: np.ndarray, n_cols: int
) -> sp.csr_matrix:
    """Row-major ``(rows, 5)`` stencil arrays → CSR of the ``stored`` entries."""
    start = np.zeros(values.shape[0] + 1, dtype=np.int64)
    np.cumsum(stored.sum(axis=1), out=start[1:])
    return sp.csr_matrix(
        (values[stored], columns[stored], start),
        shape=(values.shape[0], n_cols),
    )


class SpatialOperator:
    """Assembled spatial operator for one grid of one problem."""

    def __init__(
        self,
        grid: Grid,
        problem: AdvectionDiffusionProblem,
        scheme: Scheme = "upwind",
    ) -> None:
        if scheme not in ("upwind", "central"):
            raise ValueError(f"unknown advection scheme {scheme!r}")
        self.grid = grid
        self.problem = problem
        self.scheme = scheme
        started = time.perf_counter()

        nx, ny = grid.nx, grid.ny
        xx, yy = grid.meshgrid()
        a1 = np.asarray(problem.velocity_x(xx, yy), dtype=float).reshape(xx.shape)
        a2 = np.asarray(problem.velocity_y(xx, yy), dtype=float).reshape(xx.shape)
        stencil = _stencil(
            grid, problem.diffusion, a1[1:-1, 1:-1], a2[1:-1, 1:-1], scheme
        )
        offsets = np.array([ny + 1, 1, 0, -1, -(ny + 1)])
        if not _descending(a1, a2, scheme):
            stencil, offsets = stencil[::-1], offsets[::-1]
        values = np.stack(stencil, axis=-1).reshape(-1, 5)

        interior_mask = np.zeros((nx + 1, ny + 1), dtype=bool)
        interior_mask[1:-1, 1:-1] = True
        flat_mask = interior_mask.reshape(-1)
        self.interior_idx = np.flatnonzero(flat_mask)
        self.boundary_idx = np.flatnonzero(~flat_mask)

        # the flat node number of each stencil neighbour, and where that
        # node sits among the interior (J's columns) or boundary (C's)
        neighbours = self.interior_idx[:, None] + offsets
        column = np.empty(flat_mask.size, dtype=np.int64)
        column[self.interior_idx] = np.arange(self.interior_idx.size)
        column[self.boundary_idx] = np.arange(self.boundary_idx.size)
        columns = column[neighbours]
        nonzero = values != 0.0
        inside = flat_mask[neighbours]
        self.J: sp.csr_matrix = _csr(
            values, columns, nonzero & inside, self.interior_idx.size
        )
        self.C: sp.csr_matrix = _csr(
            values, columns, nonzero & ~inside, self.boundary_idx.size
        )

        xs, ys = xx.reshape(-1), yy.reshape(-1)
        self._xi = xs[self.interior_idx]
        self._yi = ys[self.interior_idx]
        self._xb = xs[self.boundary_idx]
        self._yb = ys[self.boundary_idx]
        self.assembly_seconds = time.perf_counter() - started

    # ------------------------------------------------------------------
    # right-hand-side pieces
    # ------------------------------------------------------------------
    @property
    def n_interior(self) -> int:
        return self.J.shape[0]

    def boundary_values(self, t: float) -> np.ndarray:
        return np.asarray(
            self.problem.boundary(self._xb, self._yb, t), dtype=float
        ).reshape(-1)

    def source_values(self, t: float) -> np.ndarray:
        return np.asarray(
            self.problem.source_or_zero(self._xi, self._yi, t), dtype=float
        ).reshape(-1)

    def forcing(self, t: float) -> np.ndarray:
        """``b(t) = C g(t) + s(t)``: everything but ``J u``."""
        return self.C @ self.boundary_values(t) + self.source_values(t)

    def rhs(self, u: np.ndarray, t: float) -> np.ndarray:
        """The full semi-discrete right-hand side ``f(u, t)``."""
        return self.J @ u + self.forcing(t)

    # ------------------------------------------------------------------
    # (de)composition of full node arrays
    # ------------------------------------------------------------------
    def initial_interior(self) -> np.ndarray:
        """The problem's initial condition sampled on interior nodes."""
        return np.asarray(
            self.problem.initial(self._xi, self._yi), dtype=float
        ).reshape(-1)

    def full_solution(self, u_interior: np.ndarray, t: float) -> np.ndarray:
        """Embed an interior vector into the full node array at time ``t``
        (boundary filled from the Dirichlet data)."""
        nx, ny = self.grid.nx, self.grid.ny
        flat = np.empty((nx + 1) * (ny + 1))
        flat[self.interior_idx] = u_interior
        flat[self.boundary_idx] = self.boundary_values(t)
        return flat.reshape(nx + 1, ny + 1)

    def interior_of(self, full: np.ndarray) -> np.ndarray:
        """Extract the interior vector from a full node array."""
        return np.asarray(full, dtype=float).reshape(-1)[self.interior_idx]

    @property
    def nnz(self) -> int:
        return self.J.nnz + self.C.nnz
