"""Prolongation and the sparse-grid combination formula.

After the nested loop "the coarse approximations on the visited grids
are known and are prolongated onto the finest grid used in the
application to obtain a more accurate solution".  The combination
technique forms::

    u_c = sum_{l+m = L} P u_{l,m}  -  sum_{l+m = L-1} P u_{l,m}

where ``P`` prolongates (bilinear interpolation; the grid families are
nested, so coarse nodes map onto fine nodes exactly) each anisotropic
solution onto the target grid.  ``P`` factors into an axis-1 and an
axis-0 part, and the sum is evaluated with the axis-0 part folded
Horner-style — one doubling of the running accumulator per level
instead of a full-size prolongation per grid — see
:class:`IncrementalCombiner`, the one implementation behind
:func:`combine`.

For large ``L`` the full isotropic target grid ``(L, L)`` would have
``(2**(root+L)+1)**2`` nodes — astronomically more memory than all the
component grids combined (their total is ``O(L * 2**(root+L))``).  The
driver therefore accepts a ``target_cap``: the combined solution is
represented on grid ``(min(L, cap), min(L, cap))``, with component
solutions prolongated up or *resampled* down (exact nodal subsampling —
the families are nested) as needed.  This preserves the structure and
cost profile of the original prolongation phase while keeping memory
bounded; the paper's own runs at ``level = 15`` cannot have materialized
a ``131073^2`` target either.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, combination_grids

__all__ = [
    "resample_1d",
    "resample_2d",
    "combination_coefficients",
    "combine",
    "IncrementalCombiner",
]


def resample_1d(values: np.ndarray, levels_up: int, axis: int) -> np.ndarray:
    """Resample nodal data along ``axis`` by ``levels_up`` dyadic levels.

    Positive ``levels_up`` prolongates (linear interpolation, doubling
    the cell count per level); negative restricts by exact nodal
    subsampling (stride ``2**(-levels_up)``), which is injective on the
    nested node families.  ``levels_up == 0`` returns the input.
    """
    result = np.asarray(values, dtype=float)
    if levels_up == 0:
        return result
    if levels_up < 0:
        stride = 1 << (-levels_up)
        index = [slice(None)] * result.ndim
        index[axis] = slice(None, None, stride)
        return result[tuple(index)]
    for _ in range(levels_up):
        n = result.shape[axis]
        new_shape = list(result.shape)
        new_shape[axis] = 2 * n - 1
        out = np.empty(new_shape, dtype=float)
        even = [slice(None)] * result.ndim
        even[axis] = slice(0, None, 2)
        odd = [slice(None)] * result.ndim
        odd[axis] = slice(1, None, 2)
        lo = [slice(None)] * result.ndim
        lo[axis] = slice(0, n - 1)
        hi = [slice(None)] * result.ndim
        hi[axis] = slice(1, n)
        out[tuple(even)] = result
        midpoints = out[tuple(odd)]
        np.add(result[tuple(lo)], result[tuple(hi)], out=midpoints)
        midpoints *= 0.5
        result = out
    return result


def resample_2d(values: np.ndarray, source: Grid, target: Grid) -> np.ndarray:
    """Map nodal data from ``source`` onto ``target`` (same root)."""
    if source.root != target.root:
        raise ValueError(
            f"grids must share a root: {source.root} != {target.root}"
        )
    expected = source.shape
    if values.shape != expected:
        raise ValueError(
            f"solution shape {values.shape} does not match {source} nodes {expected}"
        )
    out = resample_1d(values, target.l - source.l, axis=0)
    out = resample_1d(out, target.m - source.m, axis=1)
    return out


def combination_coefficients(level: int) -> dict[int, int]:
    """Combination coefficients by diagonal: ``{level: +1, level-1: -1}``."""
    coefficients = {level: 1}
    if level > 0:
        coefficients[level - 1] = -1
    return coefficients


class IncrementalCombiner:
    """Streaming combination, folded Horner-style one axis-0 level at a time.

    Prolongation is linear and the grid families are nested, so the
    axis-0 prolongation can be applied once per *level* instead of once
    per grid (block-wise prolongation on nested grids): with ``T`` the
    target level and ``P0`` one axis-0 doubling, ::

        acc_0 = members of row 0
        acc_r = P0(acc_{r-1}) ± members of row r        r = 1 .. T

    where *row* ``r`` holds the grids with ``min(l, T) == r``, each
    already brought to the target's axis-1 size (and, for ``l > T``,
    subsampled along axis 0), in :func:`combination_grids` order.
    ``acc_T`` is the combined solution.  A grid with few rows therefore
    stays small until the accumulator has grown to meet it: :meth:`add`
    produces a ``rows(min(l, T)) x cols(T)`` array, never a target-sized
    one, and the whole family parks at most about three target arrays.

    Solutions may be fed in *any* arrival order: :meth:`add` does the
    per-grid axis-1 work at once and parks the array until the chain
    reaches it.  Every operand and the order of every ``+``/``-``
    is fixed by the keys, not by arrival, so the result is bitwise
    identical for any arrival order — IEEE addition is not associative,
    so order discipline, not tolerance, is what preserves the paper's
    exact-equality claim between the sequential driver and every
    parallel fan-in, all of which combine through this class.
    """

    def __init__(
        self, root: int, level: int, target_cap: int | None = None
    ) -> None:
        target_level = level if target_cap is None else min(level, target_cap)
        self.level = level
        self.target = Grid(root, target_level, target_level)
        self._grids: dict[tuple[int, int], Grid] = {}
        self._coefficients: dict[tuple[int, int], int] = {}
        self._sequence: list[tuple[int, int]] = []
        for grid, coefficient in combination_grids(root, level):
            key = (grid.l, grid.m)
            self._grids[key] = grid
            self._coefficients[key] = coefficient
            self._sequence.append(key)
        #: the chain's order: by row, nested-loop order within a row
        self._chain = sorted(self._sequence, key=self._row)
        self._parked: dict[tuple[int, int], np.ndarray] = {}
        self._added: set[tuple[int, int]] = set()
        self._next = 0
        self._acc_row = 0
        self._acc = np.zeros((Grid(root, 0, 0).shape[0], self.target.shape[1]))

    def _row(self, key: tuple[int, int]) -> int:
        return min(key[0], self.target.l)

    # ------------------------------------------------------------------
    # feeding
    # ------------------------------------------------------------------
    def expected_keys(self) -> list[tuple[int, int]]:
        """Every grid of the formula, in nested-loop order."""
        return list(self._sequence)

    @property
    def remaining(self) -> list[tuple[int, int]]:
        """Keys not yet fed, in nested-loop order."""
        return [k for k in self._sequence if k not in self._added]

    @property
    def complete(self) -> bool:
        return self._next == len(self._chain)

    def add(self, key: tuple[int, int], values: np.ndarray) -> int:
        """Feed one grid's solution; returns how many grids folded.

        ``values`` may be a view into a caller-owned buffer (e.g. a
        shared-memory segment): anything parked for a later fold is
        copied, so the buffer can be reclaimed as soon as ``add``
        returns.
        """
        key = tuple(key)
        grid = self._grids.get(key)
        if grid is None:
            raise KeyError(
                f"grid {key} is not part of the level-{self.level} "
                "combination formula"
            )
        if key in self._added:
            raise ValueError(f"grid {key} was already added")
        if values.shape != grid.shape:
            raise ValueError(
                f"solution shape {values.shape} does not match {grid} "
                f"nodes {grid.shape}"
            )
        # rows first: the subsample is a view, and it spares the axis-1
        # work on rows the target does not have
        member = resample_1d(values, self._row(key) - grid.l, axis=0)
        member = resample_1d(member, self.target.m - grid.m, axis=1)
        if np.shares_memory(member, values):
            # pure-subsample (or identity) resampling returns a view of
            # the input; park a copy so the caller may free its buffer
            member = np.array(member, dtype=float)
        self._parked[key] = member
        self._added.add(key)
        return self._fold()

    def _fold(self) -> int:
        folded = 0
        while self._next < len(self._chain):
            key = self._chain[self._next]
            member = self._parked.pop(key, None)
            if member is None:
                break
            row = self._row(key)
            self._acc = resample_1d(self._acc, row - self._acc_row, axis=0)
            self._acc_row = row
            # in place; ``a - b`` is IEEE ``a + (-b)`` exactly, so +=/-=
            # of the ±1 coefficients needs no scaled temporary
            if self._coefficients[key] == 1:
                np.add(self._acc, member, out=self._acc)
            else:
                np.subtract(self._acc, member, out=self._acc)
            self._next += 1
            folded += 1
        return folded

    def result(self) -> tuple[Grid, np.ndarray]:
        """The target grid and combined solution; every grid required."""
        if not self.complete:
            missing = self.remaining[0]
            raise KeyError(
                f"missing solution for grid {missing} at level {self.level}"
            )
        return self.target, self._acc


def combine(
    solutions: dict[tuple[int, int], np.ndarray],
    root: int,
    level: int,
    target_cap: int | None = None,
) -> tuple[Grid, np.ndarray]:
    """Apply the combination formula to per-grid solutions.

    ``solutions`` maps ``(l, m)`` to the full nodal solution of that
    grid.  Every grid of both diagonals must be present.  Returns the
    target grid and the combined nodal array on it.

    The batch path is the incremental combiner fed in loop order, so
    the two are bitwise identical by construction.
    """
    combiner = IncrementalCombiner(root, level, target_cap=target_cap)
    for key in combiner.expected_keys():
        if key not in solutions:
            raise KeyError(f"missing solution for grid {key} at level {level}")
        combiner.add(key, solutions[key])
    return combiner.result()
