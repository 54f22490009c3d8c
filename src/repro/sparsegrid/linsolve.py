"""The linear-system layer of the implicit time integrator.

Every Rosenbrock stage solves ``(I - gamma*h*J) k = rhs``.  The original
program's profile note — "this A matrix must be built up in the program
which takes a lot of time" — corresponds here to the sparse LU
factorization.  Because ``J`` is constant (the problem is linear) the
factorization depends only on the step size ``h``; the cache refactors
only when the adaptive controller actually changes ``h``, and counts
factorizations and triangular solves for the cost model.

Every LU in the package — the Rosenbrock stage matrix here and the
θ-method baseline — comes from :func:`factorize`, so the column
ordering is chosen in exactly one place.  The choice is minimum degree
on the pattern of ``AᵀA + A`` (SuperLU's ``MMD_AT_PLUS_A``): the
5-point stage matrix is structurally symmetric, so that pattern *is*
the matrix's own adjacency graph and minimum degree on it is the
classical fill-reducing ordering for a grid Laplacian.  SuperLU's
default, COLAMD, orders for ``AᵀA`` — the right bound for an
unsymmetric matrix under arbitrary row pivoting, but on this
diagonally dominant matrix (the pivots stay on the diagonal:
``perm_r == perm_c`` on every family grid) it pays for the squared
pattern's fill without needing its safety.  Measured, root 2, the
level-7 diagonal (nnz of ``L + U``; one stage solve — the triangular
solves are ≈56 % of a warm subsolve):

====== ======== =========== ==========
grid   COLAMD   MMD(AᵀA+A)  solve µs
====== ======== =========== ==========
(0,7)   12 248   12 244      41 → 29
(1,6)   26 936   23 308      72 → 61
(2,5)   51 732   37 386      98 → 65
(3,4)   76 978   49 620     114 → 77
(4,3)   77 860   48 962     115 → 76
(5,2)   50 174   38 008      94 → 65
(6,1)   27 324   22 836      67 → 54
(7,0)   12 248   12 244      37 → 27
====== ======== =========== ==========

Summed over all 15 grids of the family one solve each costs 904 → 668
µs; a (3,4) factorisation, interleaved, 3.8 → 3.1 ms.
``tests/sparsegrid/test_linsolve.py`` guards the counts (they repeat
exactly; the timings do not).  NATURAL ordering is no alternative
(242 170 nnz at (3,4), a million at (0,7)), and issue 16 measured
banded LAPACK slower on every near-square grid, which is where the
time is.

A stage matrix is built on a fixed pattern.  ``J`` never changes, so
the CSC pattern of ``I − J`` — ``J``'s own plus the diagonal — is
computed once (:class:`ShiftedOperator`, on a solver's first
factorization), with ``J``'s values laid out on it and a ``base`` that
is 1 on the diagonal and 0 elsewhere.  Each factorization then writes
``data = base − c·values`` (``c = γh``) into one new CSC matrix.  That is
the float operation the sparse difference ``I − c·J`` performs entry by
entry — ``1 − c·x`` on the diagonal, ``0 − c·x`` off it — on the same
sorted pattern, with the same exact zeros left out, so SuperLU receives
the same three arrays and returns the same factor.  The θ-method's
implicit and explicit matrices are built by the same class.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

__all__ = ["FactorCache", "RosenbrockSystemSolver", "ShiftedOperator", "factorize"]


def factorize(matrix: sp.spmatrix) -> spla.SuperLU:
    """The package's one sparse LU (ordering rationale: module docstring).

    Deterministic: the same matrix always yields the same factor, which
    is what makes a cached or replayed factor bitwise interchangeable
    with a fresh one.
    """
    return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")


class ShiftedOperator:
    """``I − c·J`` for any scalar ``c``, on one CSC pattern fixed per ``J``
    (see the module docstring)."""

    def __init__(self, J: sp.spmatrix) -> None:
        J = J.tocsc()  # from CSR: each column's rows ascending
        n = J.shape[0]
        columns = np.arange(n, dtype=J.indices.dtype)
        column_of = np.repeat(columns, np.diff(J.indptr))
        # a diagonal entry J lacks is stored as an explicit zero, after
        # the rows above it in its column
        lacking = np.ones(n, dtype=bool)
        lacking[J.indices[J.indices == column_of]] = False
        above = np.zeros(J.nnz + 1, dtype=J.indptr.dtype)
        np.cumsum(J.indices < column_of, out=above[1:])
        at = (J.indptr[:-1] + above[J.indptr[1:]] - above[J.indptr[:-1]])[lacking]
        self.shape = J.shape
        self._indices = np.insert(J.indices, at, columns[lacking])
        self._values = np.insert(J.data, at, 0.0)
        self._indptr = J.indptr.copy()
        np.cumsum(lacking, out=self._indptr[1:])
        self._indptr += J.indptr
        column_of = np.repeat(columns, np.diff(self._indptr))
        self._base = (self._indices == column_of).astype(float)

    def matrix(self, c: float) -> sp.csc_matrix:
        """``I − c·J`` as a new CSC matrix, exact zeros left out.

        Without a zero the matrix shares the pattern's index arrays:
        it is read, never sorted or pruned in place (``splu`` does
        neither to a matrix in canonical order).
        """
        data = self._base - c * self._values
        if data.all():
            return sp.csc_matrix(
                (data, self._indices, self._indptr), shape=self.shape
            )
        stored = data != 0.0
        start = np.zeros(stored.size + 1, dtype=self._indptr.dtype)
        np.cumsum(stored, out=start[1:])
        return sp.csc_matrix(
            (data[stored], self._indices[stored], start[self._indptr]),
            shape=self.shape,
        )


class FactorCache:
    """A bounded LRU of LU factors keyed by step size ``h``.

    The factor of ``(I - gamma*h*J)`` depends only on ``(J, gamma, h)``
    — not on the tolerance or the time span — so one cache instance can
    outlive many integrations of the same operator (the warm path: the
    n-run averaging protocol re-solves the identical grid and replays
    the identical ``h`` sequence).  Reusing a factor is bitwise safe:
    :func:`factorize` is deterministic, the cached object *is* the
    object a fresh factorization would produce.
    """

    def __init__(self, maxsize: int = 64) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._factors: OrderedDict[float, spla.SuperLU] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._factors)

    def get(self, h: float) -> Optional[spla.SuperLU]:
        lu = self._factors.get(h)
        if lu is None:
            self.misses += 1
            return None
        self._factors.move_to_end(h)
        self.hits += 1
        return lu

    def put(self, h: float, lu: spla.SuperLU) -> None:
        self._factors[h] = lu
        self._factors.move_to_end(h)
        while len(self._factors) > self.maxsize:
            self._factors.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        self._factors.clear()


class RosenbrockSystemSolver:
    """Factorization cache for ``(I - gamma*h*J)``."""

    def __init__(
        self,
        J: sp.spmatrix,
        gamma: float,
        *,
        factor_cache: Optional[FactorCache] = None,
    ) -> None:
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        self.J = J
        self.gamma = gamma
        self.n = J.shape[0]
        #: the stage-matrix pattern, built by the first factorization
        #: (a run served wholly from ``factor_cache`` never needs it)
        self._shifted: Optional[ShiftedOperator] = None
        self._lu: Optional[spla.SuperLU] = None
        self._h: Optional[float] = None
        #: optional cross-run factor store (the warm path); ``None``
        #: keeps the original single-factor behaviour
        self._factor_cache = factor_cache
        #: statistics for the cost model
        self.factorizations = 0
        self.solves = 0
        self.factor_seconds = 0.0
        self.solve_seconds = 0.0
        #: reuse accounting for the E9 overhead decomposition
        self.prepare_calls = 0
        self.reuse_hits = 0
        self.factor_cache_hits = 0

    @property
    def reuse_ratio(self) -> float:
        """Fraction of ``prepare()`` calls served without a fresh LU."""
        if self.prepare_calls == 0:
            return 0.0
        return self.reuse_hits / self.prepare_calls

    def prepare(self, h: float) -> None:
        """(Re)factorize for step size ``h`` if it changed."""
        if h <= 0:
            raise ValueError(f"step size must be positive, got {h}")
        self.prepare_calls += 1
        if self._h is not None and h == self._h:
            self.reuse_hits += 1
            return
        if self._factor_cache is not None:
            cached = self._factor_cache.get(h)
            if cached is not None:
                self._lu = cached
                self._h = h
                self.reuse_hits += 1
                self.factor_cache_hits += 1
                return
        started = time.perf_counter()
        if self._shifted is None:
            self._shifted = ShiftedOperator(self.J)
        self._lu = factorize(self._shifted.matrix(self.gamma * h))
        self._h = h
        self.factorizations += 1
        self.factor_seconds += time.perf_counter() - started
        if self._factor_cache is not None:
            self._factor_cache.put(h, self._lu)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve ``(I - gamma*h*J) x = rhs`` with the current factor."""
        if self._lu is None:
            raise RuntimeError("prepare(h) must be called before solve()")
        started = time.perf_counter()
        x = self._lu.solve(rhs)
        self.solves += 1
        self.solve_seconds += time.perf_counter() - started
        return x

    @property
    def current_h(self) -> Optional[float]:
        return self._h
