"""Grids, differentiation matrices, quadrature, and BC-constrained solves.

The oracles here are mathematical identities: D_k r^k = k!, exact quadrature
of low-degree polynomials, and boundary-value problems with known closed-form
solutions. The k! bound is asserted only where double precision can hold it
(measured in docs/calibration.md); the error grows like eps * n^(2k).
"""

import dataclasses
import math
import pathlib
import warnings

import numpy as np
import pytest
from scipy.linalg import lu_factor

import hamsolve
from hamsolve import (
    BcSystem,
    BoundaryCondition,
    ConfigError,
    GridMismatchError,
    HamConfig,
    LinearOperator,
    SingularOperatorError,
    SingularSystemError,
    Workspace,
    assemble_linear,
    bc_row,
    bc_row_indices,
    build_grid,
    case_ids,
    get_case,
    homotopy_jacobian,
    integrate,
)
from hamsolve.grids import (
    MAX_DIFF_ORDER,
    _chebdif,
    _clencurt,
    _fd_first,
    _fd_second,
    _lobatto_reference,
    lu_condition,
)

CHEB = "chebyshev-lobatto"


@pytest.mark.parametrize("n,kmax", [(8, 4), (10, 4), (12, 4), (16, 3), (64, 2)])
def test_factorial_identity(n, kmax):
    g = build_grid(CHEB, n, 0.0, 1.0)
    for k in range(1, kmax + 1):
        got = g.diff_matrix(k) @ g.nodes**k
        assert np.max(np.abs(got - math.factorial(k))) < 1e-8, (n, k)


def test_factorial_identity_scaled_domain():
    g = build_grid(CHEB, 12, -2.0, 3.0)
    for k in range(1, 5):
        got = g.diff_matrix(k) @ g.nodes**k
        assert np.max(np.abs(got - math.factorial(k))) < 1e-7


def test_second_matrix_is_direct_not_squared():
    g = build_grid(CHEB, 64, 0.0, 1.0)
    d1, d2 = g.diff_matrix(1), g.diff_matrix(2)
    # the direct construction differs from D1 @ D1 only at roundoff scale
    rel = np.max(np.abs(d2 - d1 @ d1)) / np.max(np.abs(d2))
    assert rel < 1e-6


def test_spectral_derivative_of_sin():
    g = build_grid(CHEB, 32, 0.0, 1.0)
    got = g.diff_matrix(1) @ np.sin(np.pi * g.nodes)
    assert np.max(np.abs(got - np.pi * np.cos(np.pi * g.nodes))) < 1e-10


class TestQuadrature:
    def test_exact_on_constants_and_quadratics(self):
        g = build_grid(CHEB, 16, 0.0, 2.0)
        assert integrate(g, np.ones(g.n)) == pytest.approx(2.0, abs=1e-14)
        assert integrate(g, g.nodes**2) == pytest.approx(8.0 / 3.0, abs=1e-13)

    def test_sin_squared(self):
        g = build_grid(CHEB, 32, 0.0, 1.0)
        val = integrate(g, np.sin(np.pi * g.nodes) ** 2)
        assert val == pytest.approx(0.5, abs=1e-12)

    def test_uniform_trapezoid(self):
        g = build_grid("uniform-fd", 101, 0.0, 1.0)
        # trapezoid is exact on affine functions
        assert integrate(g, 3.0 * g.nodes + 1.0) == pytest.approx(2.5, abs=1e-13)


class TestBuildGrid:
    def test_nodes_ascending_endpoints_pinned(self):
        for kind in (CHEB, "uniform-fd"):
            g = build_grid(kind, 17, 0.25, 1.75)
            assert g.nodes[0] == 0.25 and g.nodes[-1] == 1.75
            assert np.all(np.diff(g.nodes) > 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            build_grid("legendre", 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            build_grid(CHEB, 7, 0.0, 1.0)
        with pytest.raises(ConfigError):
            build_grid(CHEB, 16, 1.0, 1.0)

    def test_diff_order_bounds(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            g.diff_matrix(0)
        with pytest.raises(ConfigError):
            g.diff_matrix(5)

    def test_check_length(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(GridMismatchError):
            g.check_length(np.zeros(15))


class TestInterpolate:
    def test_spectral_accuracy(self):
        g = build_grid(CHEB, 64, 0.0, 1.0)
        f = np.sin(np.pi * g.nodes)
        for x in (0.013, 0.37, 0.5, 0.862):
            assert abs(g.interpolate(f, x) - math.sin(math.pi * x)) < 1e-13

    def test_node_hit_is_exact(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        f = np.cos(g.nodes)
        assert g.interpolate(f, float(g.nodes[5])) == f[5]

    def test_outside_domain(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            g.interpolate(np.zeros(16), 1.5)

    def test_deterministic(self):
        g = build_grid(CHEB, 32, 0.0, 3.0)
        f = np.tanh(g.nodes)
        assert len({g.interpolate(f, 1.234) for _ in range(20)}) == 1


def test_uniform_fd_exact_on_quadratics():
    g = build_grid("uniform-fd", 21, 0.0, 1.0)
    f = g.nodes**2
    assert np.max(np.abs(g.diff_matrix(1) @ f - 2 * g.nodes)) < 1e-11
    assert np.max(np.abs(g.diff_matrix(2) @ f - 2.0)) < 1e-9


class TestBcSolves:
    def test_linear_interpolant(self):
        # u'' = 0, u(0)=0, u(1)=1  ->  u = r
        g = build_grid(CHEB, 16, 0.0, 1.0)
        op = LinearOperator.from_strings(("0", "0", "1"))
        bcs = (
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 0, 1.0),
        )
        u = BcSystem(assemble_linear(op, g), bcs, g).solve(np.zeros(g.n))
        assert np.max(np.abs(u - g.nodes)) < 1e-10

    def test_manufactured_sin(self):
        # u'' = -pi^2 sin(pi r), Dirichlet zero  ->  sin(pi r)
        g = build_grid(CHEB, 32, 0.0, 1.0)
        op = LinearOperator.from_strings(("0", "0", "1"))
        bcs = (
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 0, 0.0),
        )
        rhs = -np.pi**2 * np.sin(np.pi * g.nodes)
        u = BcSystem(assemble_linear(op, g), bcs, g).solve(rhs)
        assert np.max(np.abs(u - np.sin(np.pi * g.nodes))) < 1e-8

    def test_first_order_exponential(self):
        # u' + u = 0, u(0)=1  ->  exp(-r)
        g = build_grid(CHEB, 24, 0.0, 1.0)
        op = LinearOperator.from_strings(("1", "1"))
        bcs = (BoundaryCondition("left", 0, 1.0),)
        u = BcSystem(assemble_linear(op, g), bcs, g).solve(np.zeros(g.n))
        assert np.max(np.abs(u - np.exp(-g.nodes))) < 1e-11

    def test_neumann_condition(self):
        # u'' = 2, u(0)=0, u'(1)=2  ->  u = r^2
        g = build_grid(CHEB, 16, 0.0, 1.0)
        op = LinearOperator.from_strings(("0", "0", "1"))
        bcs = (
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 1, 2.0),
        )
        u = BcSystem(assemble_linear(op, g), bcs, g).solve(np.full(g.n, 2.0))
        assert np.max(np.abs(u - g.nodes**2)) < 1e-10

    def test_homogeneous_override(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        op = LinearOperator.from_strings(("0", "0", "1"))
        bcs = (
            BoundaryCondition("left", 0, 3.0),
            BoundaryCondition("right", 0, 7.0),
        )
        system = BcSystem(assemble_linear(op, g), bcs, g)
        hom = system.solve(np.zeros(g.n), bc_values=(0.0, 0.0))
        assert np.max(np.abs(hom)) < 1e-12
        inhom = system.solve(np.zeros(g.n))
        assert inhom[0] == pytest.approx(3.0, abs=1e-12)
        assert inhom[-1] == pytest.approx(7.0, abs=1e-12)

    def test_bc_order_must_be_below_operator_order(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            BcSystem(np.eye(g.n), (BoundaryCondition("left", 1, 0.0),), g)

    def test_bc_location_validation(self):
        with pytest.raises(ConfigError):
            BoundaryCondition("top", 0, 0.0)
        with pytest.raises(ConfigError):
            BoundaryCondition("left", -1, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_bc_value_must_be_finite(self, value):
        with pytest.raises(ConfigError):
            BoundaryCondition("left", 0, value)

    def test_columns_are_solved_independently(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        bcs = (BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 0, 1.0))
        system = BcSystem(g.diff_matrix(2), bcs, g)
        # a non-finite column is solved, not rejected, and its neighbour
        # comes out as it does beside a finite column
        clean = np.stack([np.zeros(g.n), np.sin(g.nodes)], axis=1)
        dirty = np.stack([np.full(g.n, np.inf), np.sin(g.nodes)], axis=1)
        got = system.solve(dirty)
        assert got.shape == (g.n, 2)
        assert not np.any(np.isfinite(got[1:-1, 0]))
        np.testing.assert_array_equal(got[:, 1], system.solve(clean)[:, 1])


def test_bc_rows_and_indices():
    g = build_grid(CHEB, 16, 0.0, 1.0)
    row = bc_row(g, BoundaryCondition("left", 0, 0.0))
    assert row[0] == 1.0 and np.count_nonzero(row) == 1
    drow = bc_row(g, BoundaryCondition("right", 1, 0.0))
    np.testing.assert_array_equal(drow, g.diff_matrix(1)[-1])
    bcs = (
        BoundaryCondition("left", 0, 0.0),
        BoundaryCondition("left", 1, 0.0),
        BoundaryCondition("right", 0, 0.0),
    )
    assert bc_row_indices(g, bcs) == [0, 1, 15]


def test_singular_leading_coefficient():
    g = build_grid(CHEB, 16, 0.0, 1.0)
    op = LinearOperator.from_strings(("1", "r"))  # r vanishes at the left node
    with pytest.raises(SingularOperatorError):
        assemble_linear(op, g)


def test_singular_bc_system():
    g = build_grid(CHEB, 16, 0.0, 1.0)
    # first-derivative matrix with one Dirichlet row is rank deficient:
    # D1 u = 0 admits any constant, and one interior row replacement
    # does not pin it because the matrix rows already sum to zero.
    A = np.zeros((g.n, g.n))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError):
            BcSystem(A, (BoundaryCondition("left", 0, 0.0),), g)


def test_non_finite_bc_system():
    g = build_grid(CHEB, 16, 0.0, 1.0)
    A = np.eye(g.n)
    A[5, 7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError):
            BcSystem(A, (BoundaryCondition("left", 0, 0.0),), g)


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("case_id", case_ids())
def test_condition_matches_exact_one_norm(case_id, n):
    # the estimate is a lower bound in general; on these matrices it is
    # exact up to roundoff (docs/calibration.md)
    system = Workspace(get_case(case_id).spec.with_grid_n(n), HamConfig()).lopt
    exact = np.linalg.cond(system.matrix, 1)
    assert system.condition == pytest.approx(exact, rel=1e-10)


@pytest.mark.parametrize("case_id", ["riccati-tanh-short", "riccati-tanh-long"])
def test_condition_repeats_bitwise(case_id):
    # LAPACK's dgecon gave two values on these matrices, depending on where
    # its work arrays landed in memory; path.csv needs one
    system = Workspace(get_case(case_id).spec.with_grid_n(256), HamConfig()).lopt
    lu = lu_factor(system.matrix)
    held, values = [], set()
    for stride in (97, 257):
        for k in range(60):
            held.append(np.empty(stride * k + 1))  # moves the next allocations
            values.add(lu_condition(lu, system.matrix))
    assert values == {system.condition}


def test_workspaces_form_no_inverse(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("dense inverse formed")

    monkeypatch.setattr(np.linalg, "cond", forbidden)
    monkeypatch.setattr(np.linalg, "inv", forbidden)
    for case_id in case_ids():
        for lopt_mode in ("use-L", "frechet-at-u0"):
            ws = Workspace(get_case(case_id).spec, HamConfig(lopt_mode=lopt_mode))
            assert 1.0 <= ws.lopt.condition < math.inf


def test_source_forms_no_dense_inverse():
    # condition numbers come from an LU the code already has
    # (grids.lu_condition); the inverse costs several factorizations
    package = pathlib.Path(hamsolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for forbidden in ("linalg.cond(", "linalg.inv("):
            assert forbidden not in source, (path.name, forbidden)


class TestLobattoReference:
    """The Chebyshev-Lobatto data on [-1, 1] is built once per n and shared."""

    def test_built_once_per_size(self, count_calls):
        _lobatto_reference.cache_clear()
        calls = count_calls("hamsolve.grids", "_chebdif")
        for a, b in ((0.0, 1.0), (-2.0, 3.0), (0.5, 0.7)):
            build_grid(CHEB, 40, a, b)
        assert len(calls) == 1
        build_grid(CHEB, 41, 0.0, 1.0)
        assert len(calls) == 2

    def test_reference_is_read_only(self):
        nodes, diffs, weights = _lobatto_reference(16)
        for arr in (nodes, *diffs, weights):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_grids_of_one_size_share_no_arrays(self):
        # on [-1, 1] the scale is 1, where sharing the reference is tempting
        first = build_grid(CHEB, 16, -1.0, 1.0)
        second = build_grid(CHEB, 16, -1.0, 1.0)
        before = second.diff_matrix(1).copy()
        first.diff_matrix(1)[:] = 0.0
        first.nodes[:] = 0.0
        first.quad_weights[:] = 0.0
        np.testing.assert_array_equal(second.diff_matrix(1), before)
        third = build_grid(CHEB, 16, -1.0, 1.0)
        np.testing.assert_array_equal(third.diff_matrix(1), before)
        np.testing.assert_array_equal(third.nodes, second.nodes)
        np.testing.assert_array_equal(third.quad_weights, second.quad_weights)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (0.3, 2.7), (-5.0, 1e-3)])
    def test_scaled_reference_equals_direct_construction_bitwise(self, a, b):
        n = 33
        x, DM = _chebdif(n, MAX_DIFF_ORDER)
        asc = np.arange(n - 1, -1, -1)
        scale = 2.0 / (b - a)
        g = build_grid(CHEB, n, a, b)
        for k in range(MAX_DIFF_ORDER):
            np.testing.assert_array_equal(g.diff_matrix(k + 1), DM[k][np.ix_(asc, asc)] * scale ** (k + 1))
        np.testing.assert_array_equal(g.quad_weights, _clencurt(n)[asc] / scale)
        nodes = a + (b - a) * (x[asc] + 1.0) / 2.0
        nodes[0], nodes[-1] = a, b
        np.testing.assert_array_equal(g.nodes, nodes)


def test_fd_stencils_equal_row_by_row_assembly():
    n, h = 12, 0.37
    D1 = np.zeros((n, n))
    D2 = np.zeros((n, n))
    for i in range(1, n - 1):
        D1[i, i - 1] = -0.5 / h
        D1[i, i + 1] = 0.5 / h
        D2[i, i - 1 : i + 2] = np.array([1.0, -2.0, 1.0]) / h**2
    np.testing.assert_array_equal(_fd_first(n, h)[1:-1], D1[1:-1])
    np.testing.assert_array_equal(_fd_second(n, h)[1:-1], D2[1:-1])


def test_uniform_fd_forms_third_and_fourth_orders_on_request():
    # D_3 = D_1 D_2 and D_4 = D_2 D_2 are dense O(n^3) products; a
    # second-order problem's workspace, series and jacobian never read them
    spec = dataclasses.replace(get_case("manufactured-quad").spec, grid_kind="uniform-fd")
    ws = Workspace(spec, HamConfig(hbar=-1.0))
    ws.run(order=5)
    homotopy_jacobian(ws, 0.5, ws.u0)
    grid = ws.grid
    assert grid._diffs[2] is None and grid._diffs[3] is None
    D1, D2 = grid.diff_matrix(1), grid.diff_matrix(2)
    for order, product in ((3, D1 @ D2), (4, D2 @ D2)):
        D = grid.diff_matrix(order)
        assert D.tobytes() == product.tobytes()
        assert grid.diff_matrix(order) is D


def test_stacked_quadrature_equals_single_calls_bitwise():
    g = build_grid(CHEB, 32, 0.0, 2.0)
    stack = np.cos(np.outer(np.arange(5.0), g.nodes))[:, :, None]
    got = integrate(g, stack)
    assert got.shape == (5, 1)
    for m in range(5):
        assert got[m, 0] == integrate(g, stack[m, :, 0])
    with pytest.raises(GridMismatchError):
        integrate(g, np.zeros((5, 31, 1)))
