"""Grids, differentiation matrices, quadrature, and BC-constrained solves.

The oracles here are mathematical identities: D_k r^k = k!, exact quadrature
of low-degree polynomials, and boundary-value problems with known closed-form
solutions. The k! bound is asserted only where double precision can hold it
(measured in docs/calibration.md); the error grows like eps * n^(2k).
"""

import ast
import dataclasses
import inspect
import math
import pathlib
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgecon, dlange

import hamsolve
import hamsolve.continuation as continuation
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
    trace_workspace,
)
from hamsolve.expressions import MAX_DERIVATIVE_ORDER
from hamsolve.grids import (
    _chebdif,
    _clencurt,
    _fd_first,
    _fd_second,
    _alternating,
    _lobatto_reference,
    LU,
    add_operator,
)

from conftest import run_in_child

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
        with pytest.raises(ConfigError):
            build_grid(CHEB, 16, 0.0, 1.0).diff_matrix(1.5)

    @pytest.mark.parametrize("n", [8.5, 16.0])
    def test_size_must_be_an_integer(self, n):
        with pytest.raises(ConfigError):
            build_grid(CHEB, n, 0.0, 1.0)
        with pytest.raises(ConfigError):
            Workspace(dataclasses.replace(get_case("linear-poisson").spec, n=n), HamConfig())

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0), (math.nan, 1.0), ("a", 1.0), (0.0, None)])
    def test_domain_must_be_finite(self, a, b):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError):
                build_grid(CHEB, 16, a, b)

    def test_problem_domain_is_checked_by_the_same_rule(self):
        spec = get_case("linear-poisson").spec
        with pytest.raises(ConfigError, match="domain end a"):
            dataclasses.replace(spec, a="x")

    def test_numeric_domain_ends_pass(self):
        g = build_grid(CHEB, 16, "0", np.float64(1.0))
        want = build_grid(CHEB, 16, 0.0, 1.0)
        assert (g.a, g.b) == (0.0, 1.0) and type(g.a) is float
        np.testing.assert_array_equal(g.nodes, want.nodes)

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

    def test_sample_is_a_fresh_array_per_node(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        np.testing.assert_array_equal(g.sample(hamsolve.Const(2.0)), np.full(16, 2.0))
        with pytest.raises(ConfigError):
            g.sample(hamsolve.Const(math.inf))
        r = g.sample(hamsolve.Coord())
        np.testing.assert_array_equal(r, g.nodes)
        assert not np.shares_memory(r, g.nodes)

    @pytest.mark.parametrize(
        "text",
        [
            "1e300*1e300",
            "1e300*1e300 + r",
            "-1e300*1e300*(1 + r)",
            "exp(1000*r)",
            "(1e300*r)*1e300 + r",
            "-(1e200*r)^2*(1 + r)",
        ],
    )
    def test_sample_rejects_non_finite_values(self, text):
        # 1e300*1e300 is inf without a numpy warning; a constant part that
        # is not finite is rejected when its node is built, the last three
        # only where they are sampled (inf at r = 1)
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            g.sample(hamsolve.parse_expr(text))

    @pytest.mark.parametrize("field", ["s", "H"])
    def test_non_finite_source_or_weight_is_a_config_error(self, field):
        spec, config = get_case("riccati-tanh-short").spec, HamConfig()
        inf = hamsolve.parse_expr("exp(1000*r)")  # inf at r = 1
        if field == "s":
            spec = dataclasses.replace(spec, s=inf)
        else:
            config = dataclasses.replace(config, H=inf)
        with pytest.raises(ConfigError):
            Workspace(spec, config)


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

    def test_point_must_be_a_real(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            g.interpolate(np.zeros(16), "x")

    def test_point_is_any_real_argument(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        f = np.sin(np.pi * g.nodes)
        for x in ("0.5", np.float64(0.5)):
            assert g.interpolate(f, x) == g.interpolate(f, 0.5)

    def test_uniform_fd_is_piecewise_linear(self):
        # the probe that hscan and trace read on uniform-fd problems
        g = build_grid("uniform-fd", 21, 0.0, 1.0)
        f = g.nodes**2
        assert g.interpolate(f, float(g.nodes[7])) == f[7]
        mid = 0.5 * (g.nodes[7] + g.nodes[8])
        assert g.interpolate(f, mid) == pytest.approx(0.5 * (f[7] + f[8]), rel=1e-15)

    def test_deterministic(self):
        g = build_grid(CHEB, 32, 0.0, 3.0)
        f = np.tanh(g.nodes)
        assert len({g.interpolate(f, 1.234) for _ in range(20)}) == 1

    @pytest.mark.parametrize("kind, n", [(CHEB, 17), (CHEB, 32), ("uniform-fd", 21)])
    def test_columns_are_each_columns_own_call_bitwise(self, kind, n):
        # one weight vector for all K columns, one dot each: a single
        # matrix-vector product would round differently
        g = build_grid(kind, n, -0.3, 2.1)
        U = np.random.default_rng(n).standard_normal((n, 17))
        for x in (0.77, 1.0, -0.3, 2.1, float(g.nodes[n // 2])):
            got = g.interpolate(U, x)
            assert got.shape == (17,)
            want = np.array([g.interpolate(U[:, k], x) for k in range(17)])
            assert got.tobytes() == want.tobytes()

    def test_columns_not_a_stack(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(GridMismatchError):
            g.interpolate(np.zeros((2, 16, 3)), 0.5)


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

    def test_bc_order_must_be_below_operator_order(self):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        with pytest.raises(ConfigError):
            BcSystem(np.eye(g.n), (BoundaryCondition("left", 1, 0.0),), g)

    def test_bc_location_validation(self):
        with pytest.raises(ConfigError):
            BoundaryCondition("top", 0, 0.0)
        with pytest.raises(ConfigError):
            BoundaryCondition("left", -1, 0.0)
        for order in (1.5, True):
            with pytest.raises(ConfigError):
                BoundaryCondition("right", order, 0.0)
        assert BoundaryCondition("right", np.int64(1), 0.0).derivative_order == 1

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "x", None])
    def test_bc_value_must_be_finite(self, value):
        with pytest.raises(ConfigError):
            BoundaryCondition("left", 0, value)

    @pytest.mark.parametrize("value", ["1", np.float64(1.0), 1], ids=["str", "float64", "int"])
    def test_bc_value_is_stored_as_a_float(self, value):
        bc = BoundaryCondition("left", 0, value)
        assert bc.value == 1.0 and type(bc.value) is float

    @pytest.mark.parametrize("shape", [(15, 15), (16, 17), (17, 17)])
    def test_matrix_shape_must_match_the_grid(self, shape):
        g = build_grid(CHEB, 16, 0.0, 1.0)
        bcs = (BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 0, 1.0))
        with pytest.raises(GridMismatchError):
            BcSystem(np.eye(*shape), bcs, g)


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


@pytest.mark.parametrize("n", [64, 128, 192, 256])
@pytest.mark.parametrize("case_id", case_ids())
def test_condition_repeats_bitwise(case_id, n):
    # LAPACK's dgecon gave two values on the riccati matrices at n = 256,
    # depending on where its work arrays landed in memory; path.csv needs
    # one. trace-fine's problems and sizes, with dlacn2's second test
    # vector built anew and then read from its cache
    system = Workspace(get_case(case_id).spec.with_grid_n(n), HamConfig(hbar=1.0)).lopt
    lu = LU(np.array(system.matrix, order="F"))
    _alternating.cache_clear()
    held, values = [], set()
    for stride in (97, 257):
        for k in range(60):
            held.append(np.empty(stride * k + 1))  # moves the next allocations
            values.add(lu.condition())
    assert values == {system.condition}


def test_alternating_vector_is_the_signed_linspace_bitwise_and_read_only():
    # LU.condition's cached test vector: solves take copies of it
    for n in (8, 64, 257):
        want = np.linspace(1.0, 2.0, n)
        want[1::2] *= -1.0
        alt = _alternating(n)
        assert alt.tobytes() == want.tobytes()
        assert not alt.flags.writeable
        assert _alternating(n) is alt


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
    # (grids.LU.condition); the inverse costs several factorizations
    package = pathlib.Path(hamsolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for forbidden in ("linalg.cond(", "linalg.inv("):
            assert forbidden not in source, (path.name, forbidden)


def test_continuation_builds_and_factors_jacobians_in_its_corrector_alone():
    # Newton's state lives in one object: no other code in the tracer
    # builds or factors a jacobian
    source = pathlib.Path(continuation.__file__).read_text(encoding="utf-8")
    corrector = inspect.getsource(continuation._Corrector)
    outside = source.replace(corrector, "")
    for call in ("LU(", "add_frechet("):
        assert call in corrector and call not in outside, call


def test_tracer_spells_G_in_one_combiner():
    # G's terms are computed once, in _parts, and its eps-combination and
    # BC rows are written once, in _residual: homotopy_residual, Newton,
    # the tangent and the endpoint update all form G through the two, and
    # the corrector's one write to the BC rows is the jacobian's
    source = pathlib.Path(continuation.__file__).read_text(encoding="utf-8")
    corrector = inspect.getsource(continuation._Corrector)
    jacobian = inspect.getsource(continuation._Corrector.jacobian)
    residual = inspect.getsource(continuation._residual)
    parts = inspect.getsource(continuation._parts)
    outside = source.replace(residual, "").replace(parts, "").replace(jacobian, "")
    for term in ("1.0 - eps", "eps * ws.config.hbar", "operator_values", "bc.value"):
        assert term not in outside, term
    assert "operator_values" not in corrector
    assert "lopt.rows] =" not in corrector.replace(jacobian, "")
    for user in (
        continuation.homotopy_residual,
        continuation._Corrector.newton,
        continuation._Corrector.tangent,
        continuation._Corrector.polish,
    ):
        assert "_residual(ws, " in inspect.getsource(user), user
    # G's parts travel as arguments: the corrector keeps none, and no code
    # in the tracer tells two points apart by identity (only `is None`)
    assert "self.parts" not in corrector
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            for op, right in zip(node.ops, node.comparators):
                if isinstance(op, (ast.Is, ast.IsNot)):
                    assert isinstance(right, ast.Constant) and right.value is None, ast.unparse(node)


def test_lapack_is_called_from_grids_alone():
    # every factorization, solve and condition estimate goes through grids.LU
    package = pathlib.Path(hamsolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        for entry in ("dgetrf", "dgetrs"):
            assert (entry in source) == (path.name == "grids.py"), (path.name, entry)


class TestLU:
    """grids.LU: getrf in place in a column-major array, getrs solves, and
    the Hager/dlacn2 condition estimate."""

    @staticmethod
    def _lu(A):
        return LU(np.array(A, order="F"))

    def _matrix(self, n=12):
        rng = np.random.default_rng(7)
        return rng.standard_normal((n, n)) + n * np.eye(n)

    def test_block_columns_are_solved_on_their_own(self):
        # a column of an (n, K) block is bitwise what it gets in any other
        # block, whatever its neighbours and position. Against a single
        # column it agrees to roundoff only: OpenBLAS's triangular solve
        # with one right-hand side rounds differently from one with several
        A = self._matrix()
        lu = self._lu(A)
        rng = np.random.default_rng(8)
        B = rng.standard_normal((A.shape[0], 5))
        got = lu.solve(np.array(B, order="F"))
        for k in range(B.shape[1]):
            other = rng.standard_normal((A.shape[0], 3))
            other[:, 1] = B[:, k]
            assert lu.solve(np.array(other, order="F"))[:, 1].tobytes() == got[:, k].tobytes()
            np.testing.assert_allclose(got[:, k], lu.solve(B[:, k].copy()), rtol=1e-14, atol=0)
        np.testing.assert_allclose(A @ got, B, rtol=0, atol=1e-12)

    def test_columns_are_solved_independently(self):
        # the march solves its (n, K) blocks, one column per hbar, here: a
        # non-finite column (a diverged hbar) is solved, not rejected, and
        # its neighbour comes out as it does beside a finite column
        lu = self._lu(self._matrix())
        nodes = np.linspace(0.0, 1.0, 12)
        clean = np.stack([np.zeros(12), np.sin(nodes)], axis=1)
        dirty = np.stack([np.full(12, np.inf), np.sin(nodes)], axis=1)
        got = lu.solve(np.array(dirty, order="F"))
        assert got.shape == (12, 2)
        assert not np.any(np.isfinite(got[:, 0]))
        np.testing.assert_array_equal(got[:, 1], lu.solve(np.array(clean, order="F"))[:, 1])

    def test_block_is_solved_in_place(self):
        lu = self._lu(self._matrix())
        rhs = np.ones((12, 3), order="F")
        assert lu.solve(rhs) is rhs

    def test_factors_in_place_after_reading_the_norm(self):
        # the array given holds the factors, and the 1-norm that condition()
        # reads is the matrix's own, taken before the factors overwrote it
        A = self._matrix()
        a = np.array(A, order="F")
        lu = LU(a)
        assert lu.factors is a
        assert not np.array_equal(a, A)
        assert np.float64(lu.norm).tobytes() == np.linalg.norm(A, 1).tobytes()

    def test_trans_solves_the_transpose(self):
        A = self._matrix()
        b = np.arange(1.0, 13.0)
        x = self._lu(A).solve(b.copy(), trans=1)
        np.testing.assert_allclose(A.T @ x, b, rtol=0, atol=1e-12)
        assert not np.allclose(A @ x, b)

    def test_condition_is_dgecons_estimate(self):
        # the same estimator as LAPACK's dgecon, and so a lower bound on
        # the exact condition number, which it misses on this matrix
        A = self._matrix()
        lu = self._lu(A)
        rcond, info = dgecon(lu.factors, np.abs(A).sum(axis=0).max(), norm="1")
        assert info == 0
        assert lu.condition() == pytest.approx(1.0 / rcond, rel=1e-14)
        assert lu.condition() < np.linalg.cond(A, 1)

    def test_factoring_touches_no_warning_state(self, monkeypatch):
        # the process-wide warning filters are not swapped per factorization
        def touched(*args, **kwargs):
            raise AssertionError("warning state touched")

        A = self._matrix()
        A[:, 3] = 0.0
        with monkeypatch.context() as patched:  # undone before pytest reports
            patched.setattr(warnings, "catch_warnings", touched)
            patched.setattr(warnings, "simplefilter", touched)
            lu = self._lu(A)
        assert not np.all(np.isfinite(lu.solve(np.ones(A.shape[0]))))

    def test_zero_pivot_is_not_finite_without_a_warning(self):
        A = self._matrix()
        A[:, 3] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lu = self._lu(A)
            x = lu.solve(np.ones(A.shape[0]))
            assert not np.all(np.isfinite(x))
            assert lu.condition() == math.inf

    def test_threads_share_one_lu(self):
        # scipy's getrs wrapper shifts the pivots it is given to 1-based and
        # back in place, with the GIL released: two threads solving with one
        # array of pivots read each other's shifted copy, which aborted the
        # process or gave a wrong solve. The check runs in a child process,
        # so an abort fails this test instead of ending the test run
        out = run_in_child("""
            import threading
            import numpy as np
            from hamsolve import HamConfig, Workspace, get_case
            from hamsolve.grids import LU

            def in_two_threads(task, want):
                bad = []
                def work():
                    bad.extend(got.tobytes() != want.tobytes() for got in task())
                threads = [threading.Thread(target=work) for _ in range(2)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                return sum(bad)

            rng = np.random.default_rng(0)
            lu = LU(np.array(rng.standard_normal((128, 128)) + 128.0 * np.eye(128), order="F"))
            b = rng.standard_normal(128)
            solves = in_two_threads(lambda: [lu.solve(b.copy()) for _ in range(3000)], lu.solve(b.copy()))
            spec = get_case("riccati-tanh-long").spec.with_grid_n(128)
            ws = Workspace(spec, HamConfig(order=40))
            want = np.stack(ws.run().orders)
            runs = in_two_threads(lambda: [np.stack(ws.run().orders) for _ in range(20)], want)
            print(solves, runs)
        """)
        assert out == ["0", "0"]


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
        # on [-1, 1] the scale is 1, where sharing the reference is tempting;
        # a grid's arrays are read-only, so the memory itself is compared
        def arrays(g):
            return (g.nodes, g.quad_weights, *(g.diff_matrix(k) for k in range(1, MAX_DERIVATIVE_ORDER + 1)))

        first = build_grid(CHEB, 16, -1.0, 1.0)
        second = build_grid(CHEB, 16, -1.0, 1.0)
        nodes, diffs, weights = _lobatto_reference(16)
        for mine in arrays(first):
            for other in (*arrays(second), nodes, weights, *diffs):
                assert not np.shares_memory(mine, other)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (0.3, 2.7), (-5.0, 1e-3)])
    def test_scaled_reference_equals_direct_construction_bitwise(self, a, b):
        n = 33
        x, DM = _chebdif(n, MAX_DERIVATIVE_ORDER)
        asc = np.arange(n - 1, -1, -1)
        scale = 2.0 / (b - a)
        g = build_grid(CHEB, n, a, b)
        for k in range(MAX_DERIVATIVE_ORDER):
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


@pytest.mark.parametrize("kind", [CHEB, "uniform-fd"])
def test_third_and_fourth_orders_are_formed_on_request(kind):
    # Chebyshev-Lobatto scales its reference D_3 and D_4, and uniform-fd
    # forms the dense O(n^3) products D_1 D_2 and D_2 D_2, on the first
    # request; a second-order problem's workspace, series and jacobian
    # never read them
    spec = dataclasses.replace(get_case("manufactured-quad").spec, grid_kind=kind)
    ws = Workspace(spec, HamConfig(hbar=-1.0, order=5))
    ws.run()
    homotopy_jacobian(ws, 0.5, ws.u0)
    grid = ws.grid
    assert grid._diffs[2] is None and grid._diffs[3] is None
    if kind == CHEB:
        reference = _lobatto_reference(grid.n)[1]
        scale = 2.0 / (grid.b - grid.a)
        expected = {k: reference[k - 1] * scale**k for k in (3, 4)}
    else:
        D1, D2 = grid.diff_matrix(1), grid.diff_matrix(2)
        expected = {3: D1 @ D2, 4: D2 @ D2}
    for order, want in expected.items():
        D = grid.diff_matrix(order)
        assert D.tobytes() == want.tobytes()
        assert not D.flags.writeable
        assert grid.diff_matrix(order) is D


@pytest.mark.parametrize(
    "coeffs",
    [
        ("0", "0", "1"),
        ("r", "0", "1"),
        ("0", "1 - r", "0", "0", "2"),
        ("0", "-r", "-1"),
        ("0*r", "0", "1"),
        ("1", "0*r", "r + 1", "2"),
        ("0", "0", "1 + r", "-2"),
    ],
    ids=[
        "second-order",
        "zero-first-order-term",
        "fourth-order-without-third",
        "negative-zero-first-term",
        "unfolded-zero-term",
        "third-order-with-unfolded-zero-first-term",
        "third-order",
    ],
)
@pytest.mark.parametrize("kind", [CHEB, "uniform-fd"])
def test_assembly_skips_zero_coefficients_bitwise(kind, coeffs, count_calls):
    # a term that is zero at every node is not added, and its D_k is not
    # formed; the matrix is bitwise the sum over every term onto zeros,
    # also where the first term, written straight into the matrix, has
    # -0.0 entries that the next term does not turn into +0.0 (-r is -0.0
    # at r = 0, and so are -r and -1 times a zero of D_1 and D_2). A
    # coefficient that is the constant 0 is not even sampled; 0*r is not
    # folded, so it is sampled, found zero and skipped
    op = LinearOperator.from_strings(coeffs)
    grid = build_grid(kind, 20, 0.0, 1.5)
    samples = count_calls("hamsolve.grids", "Grid.sample")
    A = assemble_linear(op, grid)
    assert len(samples) == sum(c.folded != 0.0 for c in op.coeffs)
    assert [D is not None for D in grid._diffs[2:]] == [op.order == 3, op.order == 4]
    fresh = build_grid(kind, 20, 0.0, 1.5)
    want = np.zeros((fresh.n, fresh.n))
    for k, c in enumerate(op.coeffs):
        values = fresh.sample(c)
        want += np.diag(values) if k == 0 else values[:, None] * fresh.diff_matrix(k)
    assert A.tobytes() == want.tobytes()


def test_one_norm_is_numpys():
    # LU takes ||A||_1 as LAPACK's 1-norm of the column-major array it
    # factors, which sums each column row by row, as numpy.linalg.norm's
    # formula does: bitwise equal, on entries of very different sizes,
    # where the order of the sum shows, and on non-finite ones
    rng = np.random.default_rng(3)
    wide = rng.standard_normal((40, 40)) * 10.0 ** rng.integers(-12, 12, (40, 40))
    for A in (rng.standard_normal((9, 9)), wide, np.diag([1.0, -np.inf, 2.0]), np.full((4, 4), np.nan)):
        want = np.linalg.norm(A, 1)
        assert np.abs(A).sum(axis=0).max().tobytes() == want.tobytes()
        assert np.float64(dlange("1", np.array(A, order="F"))).tobytes() == want.tobytes()
        assert np.float64(LU(np.array(A, order="F")).norm).tobytes() == want.tobytes()


class TestAllocations:
    """No n x n array that is not kept: tracemalloc sees numpy's buffers,
    and a grid forms a D_k only when something reads it."""

    def test_condition_forms_no_n_by_n_array(self):
        n = 128
        A = np.random.default_rng(4).standard_normal((n, n)) + n * np.eye(n)
        lu = LU(np.array(A, order="F"))
        lu.condition()
        tracemalloc.start()
        try:
            lu.condition()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    def test_jacobian_of_an_n_that_reads_u_prime_forms_no_n_by_n_array(self):
        # u'' + 0.5 u u' = 1 + r: each diag(dN/du^(k)) D_k is formed in the
        # corrector's own work array (a fresh n x n product per term before)
        n = 128
        spec = hamsolve.ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=hamsolve.parse_expr("0.5*u*u'"),
            s=hamsolve.parse_expr("1 + r"),
            bcs=(BoundaryCondition("left", 0, 0.2), BoundaryCondition("right", 0, -0.3)),
            n=n,
        )
        ws = Workspace(spec, HamConfig(hbar=1.0, H=hamsolve.parse_expr("1 + 0.5*r")))
        corrector = continuation._Corrector(ws)
        u = ws.u0 + 0.1 * np.sin(np.pi * ws.grid.nodes)
        corrector.jacobian(0.5, u)
        tracemalloc.start()
        try:
            corrector.jacobian(0.5, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8

    @pytest.mark.parametrize(
        "case_id, unread",
        [("linear-poisson", 1), ("manufactured-quad", 1), ("riccati-tanh-short", 2)],
    )
    @pytest.mark.parametrize("kind", [CHEB, "uniform-fd"])
    def test_workspace_forms_only_the_diff_matrices_it_reads(self, kind, case_id, unread):
        # a u'' problem with Dirichlet data and N free of u' never reads
        # D_1 with use-L; a riccati problem never reads D_2. Neither does
        # a series, a jacobian or a trace on the workspace
        spec = dataclasses.replace(get_case(case_id).spec, grid_kind=kind)
        ws = Workspace(spec, HamConfig(hbar=1.0, order=5))
        ws.run(hbar=-1.0)
        homotopy_jacobian(ws, 0.5, ws.u0)
        trace_workspace(ws, initial_steps=4)
        assert ws.grid._diffs[unread - 1] is None
        assert ws.grid._diffs[2 - unread] is not None


@pytest.mark.parametrize("layout", ["C", "F"])
def test_operator_terms_formed_in_a_work_array_are_bitwise_fresh_ones(layout):
    g = build_grid(CHEB, 24, 0.0, 2.0)
    rng = np.random.default_rng(11)
    coeffs = {k: rng.standard_normal(g.n) for k in range(4)}
    start = np.array(rng.standard_normal((g.n, g.n)), order=layout)
    fresh, kept = start.copy(order=layout), start.copy(order=layout)
    add_operator(fresh, g.diff_matrix, coeffs)
    add_operator(kept, g.diff_matrix, coeffs, np.empty_like(kept))
    assert fresh.tobytes() == kept.tobytes()


def test_stacked_quadrature_equals_single_calls_bitwise():
    g = build_grid(CHEB, 32, 0.0, 2.0)
    stack = np.cos(np.outer(np.arange(5.0), g.nodes))[:, :, None]
    got = integrate(g, stack)
    assert got.shape == (5, 1)
    for m in range(5):
        assert got[m, 0] == integrate(g, stack[m, :, 0])
    with pytest.raises(GridMismatchError):
        integrate(g, np.zeros((5, 31, 1)))
