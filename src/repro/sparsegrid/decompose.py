"""Intra-grid domain decomposition: strip subsolves by Schur substructuring.

PRs 1-5 exhausted the paper's cut — "every grid subroutine that reads
and writes only its own grid can run concurrently" — so at high levels
the makespan is pinned to the one or two *largest* grids: a critical
path no scheduler can shorten by packing.  This module shortens the
path itself, following the divide-and-conquer recipe for nested loops
(Farzan & Nicolet, arXiv:1904.01031): partition a grid's interior into
``k`` contiguous **strips** along its long axis, separated by
one-row **interface** separators, and solve each Rosenbrock stage's
``(I - gamma*h*J) x = f`` by Schur-complement substructuring.

With ``A = I - gamma*h*J`` partitioned into strip blocks ``A_ss``,
coupling blocks ``A_sg = -gamma*h*B_s`` / ``A_gs = -gamma*h*C_s`` and
the interface block ``A_gg``::

    prepare(h):  per strip   LU(A_ss),  W_s = A_ss^-1 A_sg,
                             piece_s = A_gs W_s            (dense, small)
                 on master   S = A_gg - sum_s piece_s,  LU(S)
    solve(f):    per strip   y_s = A_ss^-1 f_s,  halo_s = A_gs y_s
                 on master   x_g = S^-1 (f_g - sum_s halo_s)
                 per strip   x_s = y_s - W_s x_g[cols_s]

The backward substitution is a dense GEMV against the ``W_s`` computed
*once per factorization* — not a second triangular solve — which is
what makes the per-stage critical path (max over strips, plus the small
interface solve) shorter than the unsplit solve where it is shorter
at all.  Against an unsplit LU under the same fill-reducing ordering
(:func:`~repro.sparsegrid.linsolve.factorize`), measured on this
machine on the root-5 level-5 family: ~2.2x at either ``k`` on
(0,4) and (1,3), 1.3-1.7x on (5,0), and on the other six grids
1.1-1.3x at ``k=4`` and 0.8-1.2x at ``k=2`` (below 1 on five of
them) — the table is in ``docs/intra_grid.md``.

Strip factors (``LU``, ``W_s``, ``piece_s``) enter the shared
:class:`~repro.sparsegrid.linsolve.FactorCache` keyed by
``(split-tag, strip, h)`` and the interface factor by
``(split-tag, 'schur', h)``, so the warm path amortizes the Schur
construction exactly like the unsplit path amortizes its LU.

**Determinism.**  Every reduction runs in fixed strip order on the
master; executors only parallelize *independent* per-strip operations,
each writing its own slot.  Results for a fixed ``(grid, k)`` are
deterministic; ``k=1`` is clamped away by the callers (they take the
literal unsplit path, bitwise identical by construction), and ``k>1``
matches the unsplit oracle within :data:`SPLIT_SOLVE_RTOL` — see
``docs/intra_grid.md`` for the tolerance statement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from repro.trace.recorder import emit as trace_emit

from .grid import Grid
from .linsolve import FactorCache, factorize

__all__ = [
    "SPLIT_SOLVE_RTOL",
    "SPLIT_SOLVE_TOL_FACTOR",
    "StripPlan",
    "SplitStats",
    "StripFactors",
    "SerialStripExecutor",
    "ThreadStripExecutor",
    "SchurSplitSolver",
    "split_tolerance",
    "projected_critical_seconds",
]

#: Per-solve rounding tolerance of the substructured solve relative to
#: the unsplit direct solve (both are backward-stable; the Schur route
#: merely reorders the elimination).  Observed per-stage differences are
#: ~1e-12 relative; this is the documented bound for one linear solve.
SPLIT_SOLVE_RTOL = 1.0e-9

#: End-to-end tolerance factor versus the unsplit *integration* oracle:
#: the adaptive controller sees error estimates that differ in the last
#: bits, so in principle an accept/reject decision near the threshold
#: can flip and the two runs take different step sequences.  Both stay
#: within the local-error tolerance of the true solution, so the
#: guaranteed bound on their difference is a small multiple of ``tol``
#: (typically the observed difference is ~1e-9, far below it).
SPLIT_SOLVE_TOL_FACTOR = 5.0


def split_tolerance(tol: float) -> float:
    """The stated max-norm tolerance of a ``k>1`` split subsolve versus
    the unsplit oracle at integration tolerance ``tol``."""
    return SPLIT_SOLVE_TOL_FACTOR * tol


# ----------------------------------------------------------------------
# the partition
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StripPlan:
    """A ``k``-strip partition of a grid's interior along its long axis.

    Interior unknowns are flattened x-major (``index = i*Ny + j`` over
    the interior shape ``(Nx, Ny)``); strips are contiguous row ranges
    along ``axis`` (0 = x when ``Nx >= Ny``), separated by single
    one-row separators — exactly the width the 3-point-per-axis stencil
    needs to decouple the strip blocks.
    """

    shape: tuple[int, int]
    axis: int
    k: int
    #: half-open row ranges of the strips along ``axis``
    strip_bounds: tuple[tuple[int, int], ...]
    #: the separator rows between consecutive strips
    separator_rows: tuple[int, ...]

    @staticmethod
    def effective_k(shape: tuple[int, int], k: int) -> int:
        """Clamp ``k`` so every strip keeps at least one row: ``R`` rows
        along the long axis support at most ``(R + 1) // 2`` strips."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        rows = max(shape)
        return max(1, min(k, (rows + 1) // 2))

    @classmethod
    def from_shape(cls, shape: tuple[int, int], k: int) -> "StripPlan":
        nx, ny = int(shape[0]), int(shape[1])
        if nx < 1 or ny < 1:
            raise ValueError(f"interior shape must be positive, got {shape}")
        k_eff = cls.effective_k((nx, ny), k)
        axis = 0 if nx >= ny else 1
        rows = nx if axis == 0 else ny
        strip_rows = rows - (k_eff - 1)
        base, extra = divmod(strip_rows, k_eff)
        bounds: list[tuple[int, int]] = []
        separators: list[int] = []
        offset = 0
        for s in range(k_eff):
            size = base + (1 if s < extra else 0)
            bounds.append((offset, offset + size))
            offset += size
            if s < k_eff - 1:
                separators.append(offset)
                offset += 1
        assert offset == rows
        return cls(
            shape=(nx, ny),
            axis=axis,
            k=k_eff,
            strip_bounds=tuple(bounds),
            separator_rows=tuple(separators),
        )

    @classmethod
    def for_grid(cls, grid: Grid, k: int) -> "StripPlan":
        return cls.from_shape(grid.interior_shape, k)

    # ------------------------------------------------------------------
    def _row_indices(self, lo: int, hi: int) -> np.ndarray:
        ids = np.arange(self.shape[0] * self.shape[1]).reshape(self.shape)
        block = ids[lo:hi, :] if self.axis == 0 else ids[:, lo:hi]
        return np.ascontiguousarray(block).reshape(-1)

    def strip_indices(self, s: int) -> np.ndarray:
        """Flat interior indices of strip ``s`` (sorted ascending)."""
        lo, hi = self.strip_bounds[s]
        return self._row_indices(lo, hi)

    def interface_indices(self) -> np.ndarray:
        """Flat interior indices of the separators, in separator order."""
        if not self.separator_rows:
            return np.empty(0, dtype=int)
        return np.concatenate(
            [self._row_indices(r, r + 1) for r in self.separator_rows]
        )

    @property
    def n_interface(self) -> int:
        cross = self.shape[1] if self.axis == 0 else self.shape[0]
        return (self.k - 1) * cross

    @property
    def signature(self) -> tuple:
        """The part of a factor-cache key that identifies this plan."""
        return ("split", self.k, self.axis, self.shape)


# ----------------------------------------------------------------------
# counters
# ----------------------------------------------------------------------
@dataclass
class SplitStats:
    """Counters of one split solver's lifetime (mirrored into
    :class:`~repro.sparsegrid.rosenbrock.StepStats` by the integrator)."""

    split_k: int = 1
    interface_unknowns: int = 0
    #: fresh per-strip LU + Schur-piece constructions
    strip_factorizations: int = 0
    #: per-strip triangular forward solves (one per strip per stage)
    strip_solves: int = 0
    #: dense interface (Schur) solves on the master (one per stage)
    interface_solves: int = 0
    #: halo / interface vectors exchanged (2k per stage: halos in,
    #: interface slices out)
    halo_exchanges: int = 0
    halo_bytes: int = 0
    #: strip seconds, summed over all strips (the serial cost)
    strip_factor_seconds: float = 0.0
    strip_solve_seconds: float = 0.0
    #: strip seconds, max-over-strips per call then summed (the cost a
    #: k-lane schedule pays — the critical-path composition)
    critical_strip_factor_seconds: float = 0.0
    critical_strip_solve_seconds: float = 0.0
    #: master-side dense Schur factor/solve seconds
    schur_factor_seconds: float = 0.0
    interface_solve_seconds: float = 0.0
    #: strip workers respawned after a crash (process-team executor)
    strip_respawns: int = 0


def projected_critical_seconds(stats, wall_seconds: float) -> float:
    """The k-lane critical-path wall of a split run measured serially.

    The executors measure each strip operation individually; replacing
    the serial sum of strip seconds by the per-call max-over-strips
    yields the elapsed time ``k`` dedicated strip lanes would see —
    the same hindsight-schedule methodology ``dispatch_makespan`` uses
    for whole jobs.  Master-side glue (rhs evaluations, interface
    solves, assembly) stays serial and is kept as measured.
    """
    serial_strip = stats.strip_factor_seconds + stats.strip_solve_seconds
    critical_strip = (
        stats.critical_strip_factor_seconds
        + stats.critical_strip_solve_seconds
    )
    return max(0.0, wall_seconds - serial_strip + critical_strip)


# ----------------------------------------------------------------------
# per-strip state
# ----------------------------------------------------------------------
@dataclass
class StripFactors:
    """One strip's cached factorization for a given ``h``."""

    h: float
    lu: object
    #: dense ``A_ss^-1 A_sg`` (n_s x c_s) — the backward-pass GEMV matrix
    W: np.ndarray
    #: dense ``A_gs W`` (g x c_s) — this strip's Schur contribution
    piece: np.ndarray


class _StripWorker:
    """The per-strip compute state: blocks, factors, and the running
    forward solution ``y`` of the current stage."""

    def __init__(
        self,
        strip_id: int,
        J_ss: sp.spmatrix,
        B: sp.spmatrix,
        C: sp.spmatrix,
        cols: np.ndarray,
        gamma: float,
        *,
        factor_cache: Optional[FactorCache] = None,
        cache_tag: tuple = (),
    ) -> None:
        self.strip_id = strip_id
        self.J_ss = J_ss.tocsc()
        self.B = B.tocsc()
        self.C = C.tocsr()
        self.cols = np.asarray(cols, dtype=int)
        self.gamma = gamma
        self.n = self.J_ss.shape[0]
        self._identity = sp.identity(self.n, format="csc")
        self._factor_cache = factor_cache
        self._cache_tag = cache_tag
        self.factors: Optional[StripFactors] = None
        self.y: Optional[np.ndarray] = None

    def _cache_key(self, h: float) -> tuple:
        return (self._cache_tag, self.strip_id, h)

    def prepare(self, h: float) -> tuple[np.ndarray, float, bool]:
        """Factor ``A_ss`` for ``h`` (or fetch it); returns
        ``(schur piece, seconds, was_fresh)``."""
        if self.factors is not None and self.factors.h == h:
            return self.factors.piece, 0.0, False
        if self._factor_cache is not None:
            cached = self._factor_cache.get(self._cache_key(h))
            if cached is not None:
                self.factors = cached
                return cached.piece, 0.0, False
        started = time.perf_counter()
        scale = -self.gamma * h
        lu = factorize(self._identity - (self.gamma * h) * self.J_ss)
        W = lu.solve(scale * np.asarray(self.B.todense()))
        W = np.atleast_2d(np.asarray(W))
        if W.ndim == 2 and W.shape[0] != self.n:  # pragma: no cover
            W = W.reshape(self.n, -1)
        piece = scale * np.asarray(self.C @ W)
        seconds = time.perf_counter() - started
        self.factors = StripFactors(h=h, lu=lu, W=W, piece=piece)
        if self._factor_cache is not None:
            self._factor_cache.put(self._cache_key(h), self.factors)
        return piece, seconds, True

    def forward(self, f_s: np.ndarray) -> tuple[np.ndarray, float]:
        """Strip forward solve; returns ``(halo contribution, seconds)``."""
        if self.factors is None:
            raise RuntimeError("prepare(h) must run before forward()")
        started = time.perf_counter()
        y = self.factors.lu.solve(f_s)
        halo = (-self.gamma * self.factors.h) * (self.C @ y)
        self.y = y
        return halo, time.perf_counter() - started

    def backward(self, xg_sub: np.ndarray) -> tuple[np.ndarray, float]:
        """Backward substitution via the dense ``W`` GEMV."""
        if self.y is None:
            raise RuntimeError("forward() must run before backward()")
        started = time.perf_counter()
        x = self.y - self.factors.W @ xg_sub
        return x, time.perf_counter() - started


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class SerialStripExecutor:
    """Run strip operations in the calling process, in strip order.

    This is what worker-side *sharded jobs* use: the strips run serially
    on the worker, the per-strip timings travel home in the stats, and
    the k-lane critical path is composed by
    :func:`projected_critical_seconds` — the same hindsight-schedule
    methodology the warm-path makespan metric uses.
    """

    kind = "serial"
    respawns = 0

    def start(self, workers: Sequence[_StripWorker]) -> None:
        self._workers = list(workers)

    def prepare(self, h: float) -> list[tuple[np.ndarray, float, bool]]:
        return [w.prepare(h) for w in self._workers]

    def forward(
        self, parts: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, float]]:
        return [w.forward(f) for w, f in zip(self._workers, parts)]

    def backward(
        self, parts: Sequence[np.ndarray]
    ) -> list[tuple[np.ndarray, float]]:
        return [w.backward(x) for w, x in zip(self._workers, parts)]

    def close(self) -> None:
        pass


class ThreadStripExecutor(SerialStripExecutor):
    """Run independent strip operations on a thread per strip.

    SciPy's ``splu``/``solve`` release the GIL for their numerical core,
    so on a multi-core machine the strip phase genuinely overlaps.
    Results are gathered in strip order — each thread writes only its
    own slot — so the reduction order (and the result) is identical to
    the serial executor, bitwise.
    """

    kind = "thread"

    def start(self, workers: Sequence[_StripWorker]) -> None:
        from concurrent.futures import ThreadPoolExecutor

        super().start(workers)
        self._pool = ThreadPoolExecutor(
            max_workers=len(self._workers),
            thread_name_prefix="strip",
        )

    def prepare(self, h: float) -> list[tuple[np.ndarray, float, bool]]:
        return list(self._pool.map(lambda w: w.prepare(h), self._workers))

    def forward(self, parts):
        return list(
            self._pool.map(
                lambda pair: pair[0].forward(pair[1]),
                zip(self._workers, parts),
            )
        )

    def backward(self, parts):
        return list(
            self._pool.map(
                lambda pair: pair[0].backward(pair[1]),
                zip(self._workers, parts),
            )
        )

    def close(self) -> None:
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self._pool = None


# ----------------------------------------------------------------------
# the solver
# ----------------------------------------------------------------------
class SchurSplitSolver:
    """Drop-in replacement for
    :class:`~repro.sparsegrid.linsolve.RosenbrockSystemSolver` that
    solves ``(I - gamma*h*J) x = f`` by strip substructuring.

    Exposes the same counters (``factorizations``, ``solves``,
    ``prepare_calls``, ``reuse_hits``, ``factor_cache_hits``,
    ``factor_seconds``, ``solve_seconds``) with *system-level*
    semantics — one ``solve()`` call counts once however many strips it
    touches — so the cost-model feed stays in unsplit units and
    ``work_units`` never double-counts (see the ``subsolve`` docstring).
    The per-strip breakdown lives in :attr:`split_stats`.
    """

    def __init__(
        self,
        J: sp.spmatrix,
        gamma: float,
        plan: StripPlan,
        *,
        factor_cache: Optional[FactorCache] = None,
        executor=None,
        trace_key: Optional[tuple] = None,
    ) -> None:
        if gamma <= 0:
            raise ValueError(f"gamma must be positive, got {gamma}")
        if plan.k < 2:
            raise ValueError(
                f"SchurSplitSolver needs k >= 2 strips, got {plan.k}; "
                "use RosenbrockSystemSolver for the unsplit path"
            )
        self.gamma = gamma
        self.plan = plan
        self.n = J.shape[0]
        if self.n != plan.shape[0] * plan.shape[1]:
            raise ValueError(
                f"J is {J.shape[0]}x{J.shape[1]} but the plan covers "
                f"{plan.shape[0]}x{plan.shape[1]} interior unknowns"
            )
        self._trace_key = trace_key
        self._factor_cache = factor_cache
        J_csr = J.tocsr()
        self._strip_idx = [plan.strip_indices(s) for s in range(plan.k)]
        self._iface_idx = plan.interface_indices()
        self._check_decoupled(J_csr)
        g = self._iface_idx.size
        iface = self._iface_idx
        self._J_gg = np.asarray(
            J_csr[iface][:, iface].todense(), dtype=float
        )
        self._identity_g = np.eye(g)
        workers: list[_StripWorker] = []
        for s, idx in enumerate(self._strip_idx):
            rows = J_csr[idx]
            J_ss = rows[:, idx]
            J_sg = rows[:, iface].tocsc()
            cols = np.flatnonzero(np.diff(J_sg.indptr) > 0)
            B = J_sg[:, cols]
            C = J_csr[iface][:, idx]
            workers.append(
                _StripWorker(
                    s, J_ss, B, C, cols, gamma,
                    factor_cache=factor_cache,
                    cache_tag=plan.signature,
                )
            )
        self._cols = [w.cols for w in workers]
        self.executor = executor if executor is not None else SerialStripExecutor()
        if trace_key is not None and hasattr(self.executor, "trace_key"):
            self.executor.trace_key = trace_key
        self.executor.start(workers)
        self._schur_lu = None
        self._h: Optional[float] = None
        # counters (system-level, RosenbrockSystemSolver-compatible)
        self.factorizations = 0
        self.solves = 0
        self.factor_seconds = 0.0
        self.solve_seconds = 0.0
        self.prepare_calls = 0
        self.reuse_hits = 0
        self.factor_cache_hits = 0
        self.split_stats = SplitStats(
            split_k=plan.k, interface_unknowns=g
        )

    def _check_decoupled(self, J_csr: sp.csr_matrix) -> None:
        """Assert single-row separators really decouple the strips —
        true for the 3-point-per-axis stencils this package builds, and
        cheap (O(nnz)) to verify rather than assume."""
        owner = np.full(self.n, -1, dtype=int)
        for s, idx in enumerate(self._strip_idx):
            owner[idx] = s
        coo = J_csr.tocoo()
        row_owner = owner[coo.row]
        col_owner = owner[coo.col]
        cross = (
            (row_owner >= 0) & (col_owner >= 0) & (row_owner != col_owner)
        )
        if bool(cross.any()):
            raise ValueError(
                "strip partition does not decouple the operator: the "
                "stencil couples distinct strips across a separator"
            )

    @property
    def reuse_ratio(self) -> float:
        if self.prepare_calls == 0:
            return 0.0
        return self.reuse_hits / self.prepare_calls

    @property
    def current_h(self) -> Optional[float]:
        return self._h

    def _schur_cache_key(self, h: float) -> tuple:
        return (self.plan.signature, "schur", h)

    # ------------------------------------------------------------------
    def prepare(self, h: float) -> None:
        if h <= 0:
            raise ValueError(f"step size must be positive, got {h}")
        self.prepare_calls += 1
        if self._h is not None and h == self._h:
            self.reuse_hits += 1
            return
        stats = self.split_stats
        started = time.perf_counter()
        results = self.executor.prepare(h)
        strip_seconds = [sec for _piece, sec, _fresh in results]
        fresh = [bool(f) for _piece, _sec, f in results]
        stats.strip_factor_seconds += sum(strip_seconds)
        stats.critical_strip_factor_seconds += max(strip_seconds)
        stats.strip_factorizations += sum(fresh)
        for s, (piece, sec, was_fresh) in enumerate(results):
            if was_fresh:
                trace_emit(
                    "strip_factor",
                    key=self._trace_key,
                    worker=f"strip-{s}",
                    strip=s,
                    h=h,
                    seconds=sec,
                )
        schur_lu = None
        if self._factor_cache is not None and not any(fresh):
            schur_lu = self._factor_cache.get(self._schur_cache_key(h))
        if schur_lu is None:
            t_schur = time.perf_counter()
            S = self._identity_g - (self.gamma * h) * self._J_gg
            for s, (piece, _sec, _f) in enumerate(results):
                S[:, self._cols[s]] -= piece
            schur_lu = sla.lu_factor(S)
            stats.schur_factor_seconds += time.perf_counter() - t_schur
            if self._factor_cache is not None:
                self._factor_cache.put(self._schur_cache_key(h), schur_lu)
            any_fresh = True
        else:
            any_fresh = any(fresh)
        self._schur_lu = schur_lu
        self._h = h
        if any_fresh or any(fresh):
            self.factorizations += 1
        else:
            # every strip factor and the interface factor came from the
            # cross-run cache: system-level, this prepare reused
            self.reuse_hits += 1
            self.factor_cache_hits += 1
        self.factor_seconds += time.perf_counter() - started

    # ------------------------------------------------------------------
    def solve(self, rhs: np.ndarray) -> np.ndarray:
        if self._schur_lu is None or self._h is None:
            raise RuntimeError("prepare(h) must be called before solve()")
        stats = self.split_stats
        started = time.perf_counter()
        rhs = np.asarray(rhs, dtype=float)
        parts = [rhs[idx] for idx in self._strip_idx]
        f_g = rhs[self._iface_idx]

        fwd = self.executor.forward(parts)
        fwd_seconds = [sec for _halo, sec in fwd]
        g_rhs = f_g.copy()
        for halo, _sec in fwd:
            g_rhs -= halo

        t_iface = time.perf_counter()
        x_g = sla.lu_solve(self._schur_lu, g_rhs)
        iface_dt = time.perf_counter() - t_iface
        stats.interface_solve_seconds += iface_dt
        stats.interface_solves += 1
        trace_emit(
            "schur_solve",
            key=self._trace_key,
            seconds=iface_dt,
            interface_unknowns=int(self._iface_idx.size),
        )

        bwd = self.executor.backward([x_g[cols] for cols in self._cols])
        bwd_seconds = [sec for _x, sec in bwd]

        x = np.empty(self.n, dtype=float)
        x[self._iface_idx] = x_g
        for idx, (x_s, _sec) in zip(self._strip_idx, bwd):
            x[idx] = x_s

        k = self.plan.k
        halo_bytes = int(
            k * g_rhs.nbytes + sum(x_g[c].nbytes for c in self._cols)
        )
        stats.strip_solves += k
        stats.halo_exchanges += 2 * k
        stats.halo_bytes += halo_bytes
        stats.strip_solve_seconds += sum(fwd_seconds) + sum(bwd_seconds)
        stats.critical_strip_solve_seconds += max(fwd_seconds) + max(
            bwd_seconds
        )
        trace_emit(
            "halo_exchange",
            key=self._trace_key,
            exchanges=2 * k,
            payload_bytes=halo_bytes,
        )
        stats.strip_respawns = getattr(self.executor, "respawns", 0)
        self.solves += 1
        self.solve_seconds += time.perf_counter() - started
        return x

    def close(self) -> None:
        self.executor.close()
