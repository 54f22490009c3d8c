"""Spatial operators: consistency, boundary coupling, schemes."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.sparsegrid import Grid, inhomogeneous_problem, manufactured_problem
from repro.sparsegrid.discretize import SpatialOperator
from repro.sparsegrid.problem import AdvectionDiffusionProblem
from repro.sparsegrid.registry import PROBLEMS, make_problem


# ----------------------------------------------------------------------
# The reference: the operator assembled by 1-D difference stencils,
# Kronecker products, diagonal velocity scalings and a row/column
# selection of the full-grid matrix — the formulation the stencil
# builder replaced, kept here verbatim so the builder is held to its
# bits (values *and* the order a row stores them in).
# ----------------------------------------------------------------------
def _interior_diags(n_nodes: int, diagonals: dict[int, float]) -> sp.spmatrix:
    arrays, offsets = [], []
    for offset, value in diagonals.items():
        length = n_nodes - abs(offset)
        diag = np.full(length, value)
        # diagonal element k of offset d lives at row (k - min(d, 0));
        # blank the entries that would land on row 0 or row n_nodes-1
        rows = np.arange(length) - min(offset, 0)
        diag[(rows == 0) | (rows == n_nodes - 1)] = 0.0
        arrays.append(diag)
        offsets.append(offset)
    mat = sp.diags(arrays, offsets, format="csr")
    mat.eliminate_zeros()
    return mat


def _second_difference(n_nodes: int, h: float) -> sp.spmatrix:
    c = 1.0 / (h * h)
    return _interior_diags(n_nodes, {-1: c, 0: -2.0 * c, 1: c})


def _difference(n_nodes: int, h: float, kind: str) -> sp.spmatrix:
    if kind == "minus":
        return _interior_diags(n_nodes, {-1: -1.0 / h, 0: 1.0 / h})
    if kind == "plus":
        return _interior_diags(n_nodes, {0: -1.0 / h, 1: 1.0 / h})
    return _interior_diags(n_nodes, {-1: -0.5 / h, 1: 0.5 / h})


def reference_operator(grid, problem, scheme):
    """``(J, C)`` by the Kronecker formulation."""
    nx, ny = grid.nx, grid.ny
    xx, yy = grid.meshgrid()
    a1 = np.asarray(problem.velocity_x(xx, yy), dtype=float).reshape(-1)
    a2 = np.asarray(problem.velocity_y(xx, yy), dtype=float).reshape(-1)

    ix = sp.identity(nx + 1, format="csr")
    iy = sp.identity(ny + 1, format="csr")
    lap = problem.diffusion * (
        sp.kron(_second_difference(nx + 1, grid.hx), iy, format="csr")
        + sp.kron(ix, _second_difference(ny + 1, grid.hy), format="csr")
    )

    if scheme == "upwind":
        dxm = sp.kron(_difference(nx + 1, grid.hx, "minus"), iy, format="csr")
        dxp = sp.kron(_difference(nx + 1, grid.hx, "plus"), iy, format="csr")
        dym = sp.kron(ix, _difference(ny + 1, grid.hy, "minus"), format="csr")
        dyp = sp.kron(ix, _difference(ny + 1, grid.hy, "plus"), format="csr")
        adv = (
            sp.diags(np.maximum(a1, 0.0)) @ dxm
            + sp.diags(np.minimum(a1, 0.0)) @ dxp
            + sp.diags(np.maximum(a2, 0.0)) @ dym
            + sp.diags(np.minimum(a2, 0.0)) @ dyp
        )
    else:
        dxc = sp.kron(_difference(nx + 1, grid.hx, "central"), iy, format="csr")
        dyc = sp.kron(ix, _difference(ny + 1, grid.hy, "central"), format="csr")
        adv = sp.diags(a1) @ dxc + sp.diags(a2) @ dyc

    full = (lap - adv).tocsr()

    interior_mask = np.zeros((nx + 1, ny + 1), dtype=bool)
    interior_mask[1:-1, 1:-1] = True
    flat_mask = interior_mask.reshape(-1)
    interior_idx = np.flatnonzero(flat_mask)
    boundary_idx = np.flatnonzero(~flat_mask)

    selected = full[interior_idx, :]
    J = selected[:, interior_idx].tocsr()
    C = selected[:, boundary_idx].tocsr()
    return J, C


def assert_same_csr(built, reference, label):
    assert built.shape == reference.shape, label
    assert np.array_equal(built.indptr, reference.indptr), label
    # stored order included: the matvec sums a row in this order
    assert np.array_equal(built.indices, reference.indices), label
    assert np.array_equal(built.data, reference.data), label


def family(roots, max_level):
    """Every grid ``(l, m)`` with ``l + m <= max_level`` at each root."""
    return [
        Grid(root, l, diagonal - l)
        for root in roots
        for diagonal in range(max_level + 1)
        for l in range(diagonal + 1)
    ]


class TestAgainstKroneckerReference:
    @pytest.mark.parametrize("scheme", ["upwind", "central"])
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_registry_problems_bitwise(self, name, scheme):
        problem = make_problem(name)
        for grid in family(roots=(0, 1, 2, 3), max_level=6):
            J, C = reference_operator(grid, problem, scheme)
            op = SpatialOperator(grid, problem, scheme=scheme)
            assert_same_csr(op.J, J, f"J {grid} {scheme}")
            assert_same_csr(op.C, C, f"C {grid} {scheme}")

    FIELDS = {
        "zero": lambda x, y: np.zeros(np.broadcast(x, y).shape),
        "positive": lambda x, y: np.full(np.broadcast(x, y).shape, 0.7),
        "negative": lambda x, y: np.full(np.broadcast(x, y).shape, -0.3),
        # positive on the x = 0, 1 lines, negative on y = 0, 1 only
        "rim": lambda x, y: np.where(
            (y == 0) | (y == 1), -1.0, ((x == 0) | (x == 1)) * 1.0
        ),
        "signs": lambda x, y: np.sign(np.sin(7.0 * x + 3.0 * y)),
    }

    @pytest.mark.parametrize("scheme", ["upwind", "central"])
    @pytest.mark.parametrize("vy", sorted(FIELDS))
    @pytest.mark.parametrize("vx", sorted(FIELDS))
    def test_velocity_fields_with_zeros_bitwise(self, vx, vy, scheme):
        """Fields that vanish in a direction, on the rim only, or
        changing sign node by node: the stored order then depends on
        which advection terms are present (``discretize._descending``)."""
        zero = self.FIELDS["zero"]
        for diffusion in (0.0, 0.01):
            problem = AdvectionDiffusionProblem(
                name="fields",
                velocity_x=self.FIELDS[vx],
                velocity_y=self.FIELDS[vy],
                diffusion=diffusion,
                initial=zero,
                boundary=lambda x, y, t: zero(x, y),
            )
            for grid in family(roots=(0, 1, 2), max_level=2):
                J, C = reference_operator(grid, problem, scheme)
                op = SpatialOperator(grid, problem, scheme=scheme)
                assert_same_csr(op.J, J, f"J {grid} D={diffusion}")
                assert_same_csr(op.C, C, f"C {grid} D={diffusion}")


class TestStructure:
    def test_operator_shapes(self):
        grid = Grid(2, 1, 0)
        op = SpatialOperator(grid, manufactured_problem())
        n_int = grid.n_interior
        n_bnd = grid.n_nodes - n_int
        assert op.J.shape == (n_int, n_int)
        assert op.C.shape == (n_int, n_bnd)

    def test_index_partition_complete(self):
        grid = Grid(2, 0, 1)
        op = SpatialOperator(grid, manufactured_problem())
        all_idx = np.sort(np.concatenate([op.interior_idx, op.boundary_idx]))
        assert np.array_equal(all_idx, np.arange(grid.n_nodes))

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            SpatialOperator(Grid(2, 0, 0), manufactured_problem(), scheme="magic")

    def test_assembly_time_recorded(self):
        op = SpatialOperator(Grid(2, 1, 1), manufactured_problem())
        assert op.assembly_seconds > 0

    def test_nnz_positive(self):
        op = SpatialOperator(Grid(2, 1, 1), manufactured_problem())
        assert op.nnz > 0


class TestConsistency:
    """Apply the discrete operator to the exact solution: the residual
    against the exact time derivative must shrink with refinement."""

    def truncation_error(self, problem, level, scheme):
        grid = Grid(2, level, level)
        op = SpatialOperator(grid, problem, scheme=scheme)
        t = 0.1
        xx, yy = grid.meshgrid()
        u_full = problem.exact(xx, yy, t)
        u_int = op.interior_of(u_full)
        # exact du/dt at interior nodes
        eps = 1e-6
        dudt = (
            problem.exact(xx, yy, t + eps) - problem.exact(xx, yy, t - eps)
        ) / (2 * eps)
        dudt_int = op.interior_of(dudt)
        residual = op.rhs(u_int, t) - dudt_int
        return float(np.max(np.abs(residual)))

    def test_upwind_first_order(self):
        problem = manufactured_problem(diffusion=0.05)
        errors = [self.truncation_error(problem, lvl, "upwind") for lvl in (1, 2, 3)]
        # halving h should roughly halve the upwind truncation error
        assert errors[1] < 0.7 * errors[0]
        assert errors[2] < 0.7 * errors[1]

    def test_central_second_order(self):
        problem = manufactured_problem(diffusion=0.05)
        errors = [self.truncation_error(problem, lvl, "central") for lvl in (1, 2, 3)]
        assert errors[1] < 0.35 * errors[0]
        assert errors[2] < 0.35 * errors[1]

    def test_central_more_accurate_than_upwind(self):
        problem = manufactured_problem(diffusion=0.05)
        up = self.truncation_error(problem, 3, "upwind")
        ce = self.truncation_error(problem, 3, "central")
        assert ce < up

    def test_anisotropic_grid_consistent(self):
        problem = manufactured_problem(diffusion=0.05)
        grid = Grid(2, 3, 0)
        op = SpatialOperator(grid, problem)
        xx, yy = grid.meshgrid()
        t = 0.1
        u_int = op.interior_of(problem.exact(xx, yy, t))
        eps = 1e-6
        dudt = op.interior_of(
            (problem.exact(xx, yy, t + eps) - problem.exact(xx, yy, t - eps))
            / (2 * eps)
        )
        residual = op.rhs(u_int, t) - dudt
        # consistency in the coarse (y) direction bounds the error
        assert np.max(np.abs(residual)) < 2.0


class TestBoundaryCoupling:
    def test_inhomogeneous_boundary_enters_forcing(self):
        problem = inhomogeneous_problem()
        op = SpatialOperator(Grid(2, 1, 1), problem)
        f_with = op.forcing(0.0)
        assert np.any(np.abs(op.C @ op.boundary_values(0.0)) > 0)
        assert np.linalg.norm(f_with) > 0

    def test_homogeneous_boundary_gives_zero_coupling(self):
        problem = manufactured_problem()
        op = SpatialOperator(Grid(2, 1, 1), problem)
        assert np.allclose(op.C @ op.boundary_values(0.3), 0.0)

    def test_full_solution_roundtrip(self):
        problem = inhomogeneous_problem()
        grid = Grid(2, 1, 2)
        op = SpatialOperator(grid, problem)
        u_int = np.arange(grid.n_interior, dtype=float)
        full = op.full_solution(u_int, t=0.2)
        assert full.shape == grid.shape
        assert np.array_equal(op.interior_of(full), u_int)

    def test_full_solution_boundary_values(self):
        problem = inhomogeneous_problem()
        grid = Grid(2, 1, 1)
        op = SpatialOperator(grid, problem)
        t = 0.4
        full = op.full_solution(np.zeros(grid.n_interior), t)
        xx, yy = grid.meshgrid()
        exact_boundary = problem.boundary(xx, yy, t)
        assert np.allclose(full[0, :], exact_boundary[0, :])
        assert np.allclose(full[-1, :], exact_boundary[-1, :])
        assert np.allclose(full[:, 0], exact_boundary[:, 0])
        assert np.allclose(full[:, -1], exact_boundary[:, -1])

    def test_initial_interior_matches_problem(self):
        problem = manufactured_problem()
        grid = Grid(2, 1, 1)
        op = SpatialOperator(grid, problem)
        xx, yy = grid.interior_meshgrid()
        assert np.allclose(
            op.initial_interior(), problem.initial(xx, yy).reshape(-1)
        )


class TestUpwindDirection:
    def test_upwind_follows_velocity_sign(self):
        """For pure advection with a > 0, the upwind operator uses the
        left neighbour: the row for node i has a negative coefficient on
        i-1 in x."""
        import scipy.sparse as sp

        from repro.sparsegrid.problem import AdvectionDiffusionProblem

        problem = AdvectionDiffusionProblem(
            name="pure-advection",
            velocity_x=lambda x, y: np.ones(np.broadcast(x, y).shape),
            velocity_y=lambda x, y: np.zeros(np.broadcast(x, y).shape),
            diffusion=0.0,
            initial=lambda x, y: np.zeros(np.broadcast(x, y).shape),
            boundary=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
        )
        grid = Grid(2, 0, 0)
        op = SpatialOperator(grid, problem, scheme="upwind")
        J = op.J.toarray()
        ny_int = grid.ny - 1
        # interior node (i, j) couples to (i-1, j): offset -ny_int
        diag_lower = np.diagonal(J, -ny_int)
        assert np.all(diag_lower >= 0)  # -a * (-1/h) > 0 on the left neighbour
        assert np.all(np.diagonal(J) <= 0)
