"""Prolongation and the sparse-grid combination formula.

After the nested loop "the coarse approximations on the visited grids
are known and are prolongated onto the finest grid used in the
application to obtain a more accurate solution".  The combination
technique forms::

    u_c = sum_{l+m = L} P u_{l,m}  -  sum_{l+m = L-1} P u_{l,m}

where ``P`` prolongates (bilinear interpolation; the grid families are
nested, so coarse nodes map onto fine nodes exactly) each anisotropic
solution onto the target grid.  ``P`` factors into an axis-1 and an
axis-0 part, and :func:`combine` evaluates the sum with the axis-0 part
folded Horner-style — one doubling of the running accumulator per level
instead of a full-size prolongation per grid.

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


def combine(
    solutions: dict[tuple[int, int], np.ndarray],
    root: int,
    level: int,
    target_cap: int | None = None,
) -> tuple[Grid, np.ndarray]:
    """Apply the combination formula to per-grid solutions.

    ``solutions`` maps ``(l, m)`` to the full nodal solution of that
    grid.  Every grid of both diagonals must be present.  Returns the
    target grid and the combined nodal array on it — a fresh array: the
    inputs are only read.

    Prolongation is linear and the grid families are nested, so the
    axis-0 prolongation is applied once per *level* instead of once per
    grid: with ``T`` the target level and ``P0`` one axis-0 doubling, ::

        acc_0 = members of row 0
        acc_r = P0(acc_{r-1}) ± members of row r        r = 1 .. T

    where *row* ``r`` holds the grids with ``min(l, T) == r``, each
    brought to the target's axis-1 size (and, for ``l > T``, subsampled
    along axis 0), in :func:`combination_grids` order.  A grid with few
    rows therefore stays small until the accumulator has grown to meet
    it, and nothing target-sized is allocated per grid.

    Every operand and the order of every ``+``/``-`` is fixed by the
    keys.  IEEE addition is not associative, so that order discipline,
    not a tolerance, is what keeps the sequential driver and every
    parallel fan-in — all of which combine here — bitwise equal.
    """
    target_level = level if target_cap is None else min(level, target_cap)
    target = Grid(root, target_level, target_level)
    members = []
    for grid, coefficient in combination_grids(root, level):
        key = (grid.l, grid.m)
        if key not in solutions:
            raise KeyError(f"missing solution for grid {key} at level {level}")
        values = solutions[key]
        if values.shape != grid.shape:
            raise ValueError(
                f"solution shape {values.shape} does not match {grid} "
                f"nodes {grid.shape}"
            )
        members.append((min(grid.l, target_level), grid, coefficient, values))
    # by row; the sort is stable, so nested-loop order within a row
    members.sort(key=lambda member: member[0])
    acc = np.zeros((Grid(root, 0, 0).shape[0], target.shape[1]))
    acc_row = 0
    for row, grid, coefficient, values in members:
        # rows first: the subsample is a view, and it spares the axis-1
        # work on rows the target does not have
        member = resample_1d(values, row - grid.l, axis=0)
        member = resample_1d(member, target.m - grid.m, axis=1)
        acc = resample_1d(acc, row - acc_row, axis=0)
        acc_row = row
        # in place; ``a - b`` is IEEE ``a + (-b)`` exactly, so +=/-= of
        # the ±1 coefficients needs no scaled temporary
        if coefficient == 1:
            np.add(acc, member, out=acc)
        else:
            np.subtract(acc, member, out=acc)
    return target, acc
