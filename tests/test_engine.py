"""Series engine: zeroth solve, order-m recursion, run, residuals.

Primary oracles: hand-derived series terms for the Riccati problem (the
reduced parameter reproduces the Maclaurin series of tanh term by term), a
sympy-derived set of coefficients at hbar = -1/2 (independent symbolic
implementation of the same recursion, frozen in docs/calibration.md), and
the closed-form behavior of purely linear problems where every order beyond
the first must vanish identically.
"""

import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsolve import (
    BoundaryCondition,
    ConfigError,
    HamConfig,
    LinearOperator,
    ProblemSpec,
    RangeError,
    SingularSystemError,
    Workspace,
    case_ids,
    check_equivalence,
    get_case,
    hpm_config,
    hpm_recursion,
    jets,
    optimal_workspace,
    parse_expr,
    parse_problem_text,
    partial_sum,
    run_ham,
)
from hamsolve.grids import GRID_KINDS, BcSystem, _lobatto_reference, assemble_linear, build_grid
from hamsolve.engine import mean_square
from hamsolve.expressions import U, max_u_order
from hamsolve.jets import jet_expand
from hamsolve.problem import series_diverges

from conftest import exp_problem, run_in_child

TANH = "riccati-tanh-short"
POISSON = "linear-poisson"
EPS = np.finfo(float).eps


@pytest.fixture
def tanh_ws():
    case = get_case(TANH)
    return Workspace(case.spec, HamConfig(order=3))


class TestHandSeries:
    """tanh problem at hbar = -1: the series is the Maclaurin series."""

    def test_orders_match_taylor(self, tanh_ws):
        sol = tanh_ws.run(hbar=-1.0)
        r = tanh_ws.grid.nodes
        assert np.max(np.abs(sol.orders[0])) == 0.0
        assert np.max(np.abs(sol.orders[1] - r)) < 1e-13
        assert np.max(np.abs(sol.orders[2])) == 0.0  # exact cancellation
        assert np.max(np.abs(sol.orders[3] + r**3 / 3)) < 1e-13

    def test_even_orders_cancel_bitwise(self, tanh_ws):
        # the folded coefficient c_m = 1 + hbar is exactly 0.0 at -1
        sol = Workspace(tanh_ws.problem, HamConfig(order=6)).run(hbar=-1.0)
        for m in (2, 4, 6):
            assert np.max(np.abs(sol.orders[m])) == 0.0

    def test_residual_history_frozen(self, tanh_ws):
        # exact values: 1, 1/5, 1/5, 4/81 - 4/297 + 1/1053
        sol = tanh_ws.run(hbar=-1.0)
        want = (1.0, 0.2, 0.2, 0.0368643701976978)
        np.testing.assert_allclose(sol.residual_history, want, rtol=1e-9)

    def test_sympy_frozen_orders_at_half(self, tanh_ws):
        # independent symbolic recursion at hbar = -1/2 (docs/calibration.md)
        sol = Workspace(tanh_ws.problem, HamConfig(order=6)).run(hbar=-0.5)
        r = tanh_ws.grid.nodes
        want3 = r / 8 - r**3 / 24
        want5 = r / 32 - r**3 / 16 + r**5 / 240
        want6 = r / 64 - 5 * r**3 / 96 + r**5 / 96
        assert np.max(np.abs(sol.orders[3] - want3)) < 1e-13
        assert np.max(np.abs(sol.orders[5] - want5)) < 1e-13
        assert np.max(np.abs(sol.orders[6] - want6)) < 1e-13


class TestLinearProblem:
    def test_one_step_exactness(self):
        case = get_case(POISSON)
        sol = run_ham(case.spec, HamConfig(hbar=-1.0, order=3))
        grid = case.spec.make_grid()
        u1 = partial_sum(sol, 1)
        assert np.max(np.abs(u1 - np.sin(np.pi * grid.nodes))) < 1e-12
        # all higher orders vanish identically
        assert sol.per_order_norms[2] == 0.0
        assert sol.per_order_norms[3] == 0.0
        assert sol.residual_history[1] < 1e-12

    def test_orders_follow_geometric_law(self):
        # for N = 0, L_opt = L:  u_{m+1} = (1 + hbar) u_m  for m >= 1
        case = get_case(POISSON)
        sol = run_ham(case.spec, HamConfig(hbar=-0.9, order=5))
        for m in range(1, 5):
            np.testing.assert_allclose(
                sol.orders[m + 1], 0.1 * sol.orders[m], rtol=1e-10, atol=1e-14
            )

    def test_residual_history_decreases(self):
        case = get_case(POISSON)
        sol = run_ham(case.spec, HamConfig(hbar=-0.9, order=6))
        h = sol.residual_history
        assert all(b < a for a, b in zip(h[1:], h[2:]))
        # analytic decay rate is (1+hbar)^2 = 0.01 per order
        np.testing.assert_allclose(h[3] / h[2], 0.01, rtol=1e-6)


class TestZerothOrder:
    def test_homogeneous_bcs_give_zero(self):
        case = get_case(POISSON)
        u0 = Workspace(case.spec, HamConfig()).u0
        assert np.max(np.abs(u0)) == 0.0

    def test_inhomogeneous_bcs_give_core_solution(self):
        problem = ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            bcs=(
                BoundaryCondition("left", 0, 0.0),
                BoundaryCondition("right", 0, 1.0),
            ),
        )
        u0 = Workspace(problem, HamConfig()).u0
        grid = problem.make_grid()
        assert np.max(np.abs(u0 - grid.nodes)) < 1e-10

    # backward error of the u_0 solve in units of eps ||A|| ||u_0||: at most
    # 1.604 measured, frozen at 8 (docs/calibration.md, Zeroth-order solve)
    BACKWARD_ERROR_C = 8.0

    @pytest.mark.parametrize("kind", GRID_KINDS)
    @pytest.mark.parametrize(
        "lopt_mode",
        ["use-L", "frechet-at-u0", LinearOperator.from_strings(("1", "0", "1"))],
        ids=["use-L", "frechet-at-u0", "user-L"],
    )
    def test_large_boundary_data_solve_to_roundoff(self, kind, lopt_mode):
        # u'' + N = 0; N = u^2 gives frechet-at-u0 a core of its own
        eps = np.finfo(float).eps
        for nonlinear in ("0", "u^2"):
            for left, right in ((1.0, 2.0), (800.0, 800.0), (100.0, 0.0)):
                for n in (16, 32, 48, 64, 96, 128, 192, 256):
                    problem = ProblemSpec(
                        a=0.0,
                        b=1.0,
                        L=LinearOperator.from_strings(("0", "0", "1")),
                        N=parse_expr(nonlinear),
                        bcs=(
                            BoundaryCondition("left", 0, left),
                            BoundaryCondition("right", 0, right),
                        ),
                        grid_kind=kind,
                        n=n,
                    )
                    ws = Workspace(problem, HamConfig(lopt_mode=lopt_mode))
                    A = ws.lopt.matrix
                    b = np.zeros(n)
                    b[[0, n - 1]] = left, right
                    backward = np.max(np.abs(A @ ws.u0 - b))
                    scale = eps * np.max(np.sum(np.abs(A), axis=1)) * np.max(np.abs(ws.u0))
                    assert backward <= self.BACKWARD_ERROR_C * scale, (nonlinear, left, right, n)

    @pytest.mark.parametrize("n", [96, 128, 256])
    def test_manufactured_problem_with_boundary_data_at_fine_grids(self, n):
        # u'' + u^2 = s with u(0) = 1, u(1) = 2: exact 1 + r^2
        problem = ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("2 + (1 + r^2)^2"),
            bcs=(
                BoundaryCondition("left", 0, 1.0),
                BoundaryCondition("right", 0, 2.0),
            ),
            n=n,
            exact_solution=parse_expr("1 + r^2"),
        )
        ws = Workspace(problem, HamConfig(order=20))
        best = optimal_workspace(ws, (-1.5, -0.05))
        series = ws.run(hbar=best.hbar_star)
        error = np.max(np.abs(partial_sum(series, 20) - problem.exact_values(ws.grid)))
        assert error < 1e-10


class TestLoptModes:
    def test_use_l_matches_assembled_operator(self):
        case = get_case(POISSON)
        system = Workspace(case.spec, HamConfig(lopt_mode="use-L")).lopt
        grid = case.spec.make_grid()
        interior = system.interior
        d2 = grid.diff_matrix(2)
        np.testing.assert_array_equal(system.matrix[interior], d2[interior])

    def test_frechet_mode_linearizes_at_bootstrap_u0(self):
        # u0 bootstraps to r (from plain L), so the core is D2 + diag(2r)
        problem = ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("2 + r^2"),
            bcs=(
                BoundaryCondition("left", 0, 0.0),
                BoundaryCondition("right", 0, 1.0),
            ),
        )
        system = Workspace(problem, HamConfig(lopt_mode="frechet-at-u0")).lopt
        grid = problem.make_grid()
        want = grid.diff_matrix(2) + np.diag(2.0 * grid.nodes)
        interior = system.interior
        assert np.max(np.abs(system.matrix[interior] - want[interior])) < 1e-10

    def test_user_operator(self):
        case = get_case(TANH)
        sub = LinearOperator.from_strings(("1", "1"))  # u' + u
        system = Workspace(case.spec, HamConfig(lopt_mode=sub)).lopt
        grid = case.spec.make_grid()
        want = np.eye(grid.n) + grid.diff_matrix(1)
        np.testing.assert_array_equal(system.matrix[system.interior], want[system.interior])

    def test_user_operator_order_mismatch(self):
        case = get_case(POISSON)  # two BCs
        sub = LinearOperator.from_strings(("1", "1"))  # order 1
        with pytest.raises(ConfigError):
            Workspace(case.spec, HamConfig(lopt_mode=sub))

    def test_frechet_core_solves_the_problem(self):
        # dN/du(u_0) = 1 here, so the core is not L; grouping the rhs anyway
        # sums to (Lc - p L)(w - u_0) = p hbar H F(w), an error of 0.16
        # (docs/calibration.md, "Cores other than L")
        problem = exp_problem()
        ws = Workspace(problem, HamConfig(lopt_mode="frechet-at-u0", order=30))
        series = ws.run(hbar=-1.0)
        error = np.max(np.abs(partial_sum(series, 30) - problem.exact_values(ws.grid)))
        assert error < 1e-7

    @pytest.mark.parametrize("case_id", case_ids())
    def test_frechet_core_equal_to_l_runs_as_use_l(self, case_id):
        # on the builtins dN/du(u_0) = 0, so the core is L's matrix and L
        # folds out of the solve: the series is use-L's, bitwise
        spec = get_case(case_id).spec
        use_l = Workspace(spec, HamConfig(order=20))
        frechet = Workspace(spec, HamConfig(lopt_mode="frechet-at-u0", order=20))
        for hbar in (-1.0, -0.3):
            want = use_l.run(hbar=hbar)
            got = frechet.run(hbar=hbar)
            np.testing.assert_array_equal(np.stack(got.orders), np.stack(want.orders))
            assert got.residual_history == want.residual_history


class TestMthOrderRhs:
    """The order-m right-hand side, seen through the orders run solves."""

    def test_first_order_rhs_is_one_on_riccati(self, tanh_ws):
        # rhs_1 = 1 with u(0) = 0 gives u_1 = r
        u1 = tanh_ws.run(hbar=-1.0).orders[1]
        assert np.max(np.abs(u1 - tanh_ws.grid.nodes)) < 1e-14

    def test_first_order_rhs_scales_linearly_in_hbar(self, tanh_ws):
        u1 = tanh_ws.run(hbar=-1.0).orders[1]
        u1_doubled = tanh_ws.run(hbar=-2.0).orders[1]
        np.testing.assert_array_equal(u1_doubled, 2.0 * u1)

    def test_second_order_rhs_at_reduced_hbar(self, tanh_ws):
        # rhs_2 = (hbar + 1) L u_1 + hbar D_1[N]; at hbar=-1 only -D_1 stays,
        # and D_1[u^2] = 2 u_0 u_1 = 0 since u_0 = 0
        u2 = tanh_ws.run(hbar=-1.0).orders[2]
        assert np.max(np.abs(u2)) == 0.0


class TestRun:
    def test_order_zero_returns_only_u0(self):
        case = get_case(POISSON)
        sol = run_ham(case.spec, HamConfig(order=0))
        assert len(sol.orders) == 1
        assert sol.truncation_order == 0
        assert not sol.diverged

    def test_partial_sums_satisfy_bcs(self):
        problem = ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("2 + r^4"),
            bcs=(
                BoundaryCondition("left", 0, 0.0),
                BoundaryCondition("right", 0, 1.0),
            ),
        )
        for hbar in (-1.0, -0.7, -1.3):
            sol = run_ham(problem, HamConfig(hbar=hbar, order=6))
            for upto in range(7):
                u = partial_sum(sol, upto)
                assert abs(u[0] - 0.0) < 1e-10
                assert abs(u[-1] - 1.0) < 1e-10

    def test_divergence_flag(self):
        case = get_case("riccati-tanh-long")
        sol = run_ham(case.spec, HamConfig(hbar=-1.0, order=15))
        assert sol.diverged
        # nonzero norms grow geometrically; zero orders do not reset the streak
        nz = [v for v in sol.per_order_norms if v > 0.0]
        assert all(b > a for a, b in zip(nz, nz[1:]))

    def test_no_flag_when_converging(self):
        case = get_case(TANH)
        sol = run_ham(case.spec, HamConfig(hbar=-1.0, order=10))
        assert not sol.diverged

    def test_config_snapshot_on_result(self):
        case = get_case(POISSON)
        ws = Workspace(case.spec, HamConfig(order=2))
        sol = ws.run(hbar=-0.8)
        assert sol.config.hbar == -0.8
        assert sol.config.order == 2
        assert sol.truncation_order == 2

    def test_validation(self):
        # a bad hbar or order is a typed error before any arithmetic runs,
        # so no RuntimeWarning from a NaN or infinite hbar escapes first
        case = get_case(POISSON)
        ws = Workspace(case.spec, HamConfig())
        for hbar in (0.0, float("nan"), float("inf"), -float("inf")):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError):
                    ws.run(hbar=hbar)
        with pytest.raises(ConfigError):
            HamConfig(order=-1)

    @pytest.mark.parametrize("order", [2.5, 2.7, True])
    def test_order_must_be_an_integer(self, order):
        # the order is validated once, by HamConfig; a workspace has no other
        with pytest.raises(ConfigError):
            HamConfig(order=order)


class TestResiduals:
    def test_zero_guess_on_riccati_gives_one(self):
        ws = Workspace(get_case(TANH).spec, HamConfig())
        val = mean_square(ws.grid, ws.operator_values(np.zeros(ws.grid.n)))
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_exact_solution_near_machine_floor(self):
        case = get_case("manufactured-quad")
        ws = Workspace(case.spec, HamConfig())
        val = mean_square(ws.grid, ws.operator_values(case.spec.exact_values(ws.grid)))
        assert val < 1e-16

    def test_tanh_partial_sum_residual_frozen(self):
        # M = 10 at hbar = -1 on [0,1]: measured 4.5e-4 band (calibration)
        case = get_case(TANH)
        sol = run_ham(case.spec, HamConfig(hbar=-1.0, order=10))
        val = sol.residual_history[-1]
        assert 1e-5 < val < 1e-3

    def test_partial_sum_range(self):
        case = get_case(POISSON)
        sol = run_ham(case.spec, HamConfig(order=2))
        with pytest.raises(RangeError):
            partial_sum(sol, 3)
        with pytest.raises(RangeError):
            partial_sum(sol, -1)
        with pytest.raises(RangeError):
            partial_sum(sol, 1.5)
        np.testing.assert_array_equal(partial_sum(sol, np.int64(2)), partial_sum(sol, 2))


def test_zero_weight_rejected():
    case = get_case(POISSON)
    with pytest.raises(ConfigError):
        Workspace(case.spec, HamConfig(H=parse_expr("0")))
    # odd n puts a node exactly at the midpoint where this H vanishes
    spec65 = case.spec.with_grid_n(65)
    with pytest.raises(ConfigError):
        Workspace(spec65, HamConfig(H=parse_expr("r - 0.5")))


def _bare_grid(ws):
    # a grid of the workspace's kind and size, built outside any workspace
    return build_grid(ws.grid.kind, ws.grid.n, ws.grid.a, ws.grid.b)


def _bare_system(ws):
    grid = _bare_grid(ws)
    return BcSystem(assemble_linear(ws.problem.L, grid), ws.problem.bcs, grid)


@pytest.mark.parametrize(
    "array",
    [
        lambda ws: ws.A_L,
        lambda ws: ws.s_vals,
        lambda ws: ws.H_vals,
        lambda ws: ws.u0,
        lambda ws: ws.lopt.matrix,
        lambda ws: ws.lopt.interior,
        lambda ws: ws.grid.nodes,
        lambda ws: ws.grid.quad_weights,
        lambda ws: ws.grid.diff_matrix(1),
        lambda ws: ws.grid.diff_matrix(2),
        lambda ws: ws.grid.diff_matrix(3),  # uniform-fd forms it on first request
        # the grid and the BC system freeze their own arrays as they build them
        lambda ws: _bare_grid(ws).nodes,
        lambda ws: _bare_grid(ws).quad_weights,
        lambda ws: _bare_grid(ws).diff_matrix(1),
        lambda ws: _bare_grid(ws).diff_matrix(2),
        lambda ws: _bare_system(ws).matrix,
    ],
    ids=[
        "A_L", "s_vals", "H_vals", "u0", "lopt.matrix", "lopt.interior", "nodes", "quad_weights", "D1", "D2", "D3",
        "bare-grid-nodes", "bare-grid-quad_weights", "bare-grid-D1", "bare-grid-D2", "bare-BcSystem-matrix",
    ],
)
@pytest.mark.parametrize("kind", GRID_KINDS)
def test_workspace_arrays_are_read_only(array, kind):
    # the engine, the tracer and the oracle read the same arrays
    ws = Workspace(replace(get_case(POISSON).spec, grid_kind=kind), HamConfig())
    with pytest.raises(ValueError):
        array(ws)[0] = 1.0


POISSON_SPEC = get_case(POISSON).spec


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"s": parse_expr("1 + u")}, "s must be an expression in r alone"),
        ({"N": U(3)}, "above the linear operator order"),
        ({"bcs": (POISSON_SPEC.bcs[0], ("right", 0, 0.0))}, "not a boundary condition"),
        # failed only when a workspace built the BC system
        (
            {"bcs": (POISSON_SPEC.bcs[0], BoundaryCondition("right", 2, 0.0))},
            r"BC derivative order of an order-2 operator must be an integer in 0\.\.1, got 2",
        ),
        # each failed later, inside Grid.sample, eval_expr or L.order
        ({"N": None}, "N must be an expression"),
        ({"s": 1.0}, "s must be an expression"),
        ({"exact_solution": 1.0}, "exact_solution must be an expression"),
        ({"L": None}, "L must be a LinearOperator"),
        # each failed only when a grid was built (``grids.checked_grid``)
        ({"n": 7}, "grid size must be an integer >= 8, got 7"),
        ({"a": 1.0, "b": 0.0}, r"domain \[1\.0, 0\.0\] is empty"),
        ({"grid_kind": "spline"}, "unknown grid kind 'spline'"),
        ({"a": math.nan}, "domain end a must be a finite real, got nan"),
        ({"b": True}, "domain end b must be a finite real, got True"),
    ],
    ids=[
        "s-of-u", "N-above-L", "bc-not-a-condition", "bc-order-above-L", "N-none", "s-a-float", "exact-a-float", "L-none",
        "grid-n-7", "grid-b-below-a", "grid-kind-spline", "grid-a-nan", "grid-b-true",
    ],
)
def test_problem_rules(changes, message):
    with pytest.raises(ConfigError, match=message):
        replace(POISSON_SPEC, **changes)


@pytest.mark.parametrize(
    "changes, message",
    [
        ({"lopt_mode": "use-M"}, "unknown linear-core mode"),
        ({"lopt_mode": 2}, "mode name or a LinearOperator"),
        ({"H": 1.0}, "H must be an expression"),
        ({"H": parse_expr("1 + u")}, "H must be an expression in r alone"),
        ({"hbar": "x"}, "hbar must be a nonzero finite real"),
    ],
    ids=["unknown-mode", "mode-of-another-type", "H-not-an-expression", "H-of-u", "hbar-not-a-number"],
)
def test_config_rules(changes, message):
    with pytest.raises(ConfigError, match=message):
        HamConfig(**changes)


def test_numeric_strings_and_numpy_integers_are_accepted():
    config = HamConfig(hbar="-0.5", order=np.int64(3))
    assert config.hbar == -0.5
    assert len(run_ham(POISSON_SPEC, config).orders) == 4


def _batch_recursion(ws, hbar, order):
    """u_0..u_order with D_{m-1}[N] recomputed in full at every order: the
    batch jet path the engine ran before its jets went online, in the
    folded form of a use-L, H = 1 workspace: u_m = c_m u_{m-1} + the
    solution for hbar (D_{m-1}[N] - delta_{m,1} s), c_1 = 0, c_m = 1 + hbar."""
    N, grid = ws.problem.N, ws.grid
    orders = [ws.u0]
    for m in range(1, order + 1):
        stack = grid.derivative_stack(np.stack(orders)[:, :, None], max_u_order(N))
        u_jets = {k: d[:, :, 0] for k, d in stack.items()}
        forcing = jet_expand(N, grid.nodes, u_jets, m)[m - 1]
        if m == 1:
            forcing = forcing - ws.s_vals
        rhs = hbar * forcing
        rhs[ws.lopt.rows] = 0.0  # homogeneous BCs
        solution = ws.lopt.lu.solve(rhs)
        orders.append(solution if m == 1 else (1.0 + hbar) * orders[m - 1] + solution)
    return orders


def _burgers_problem():
    # u'' + u u' = s with exact sin(pi r): a nonlinearity in u'
    return ProblemSpec(
        a=0.0,
        b=1.0,
        L=LinearOperator.from_strings(("0", "0", "1")),
        N=parse_expr("u*u'"),
        s=parse_expr("-pi^2*sin(pi*r) + pi*sin(pi*r)*cos(pi*r)"),
        bcs=(
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 0, 0.0),
        ),
    )


class TestOnlineJets:
    @pytest.mark.parametrize("hbar", [-1.0, -0.3])
    @pytest.mark.parametrize(
        "problem", [get_case("riccati-tanh-long").spec, _burgers_problem()],
        ids=["tanh-long", "u*u'"],
    )
    def test_run_equals_batch_recursion_bitwise(self, problem, hbar):
        ws = Workspace(problem, HamConfig(order=40))
        sol = ws.run(hbar=hbar)
        want = _batch_recursion(ws, hbar, 40)
        assert len(sol.orders) == len(want)
        for got, ref in zip(sol.orders, want):
            np.testing.assert_array_equal(got, ref)

    def test_einsum_calls_grow_linearly_in_order(self, monkeypatch):
        # counts, not timings: each order steps every tape node once, so
        # doubling M doubles the kernel calls (the batch path quadrupled them)
        spec = get_case("riccati-tanh-long").spec
        workspaces = [Workspace(spec, HamConfig(hbar=-0.3, order=order)) for order in (20, 40)]
        calls = []
        einsum = jets._einsum  # the tape's one einsum kernel

        def counting(*args, **kwargs):
            calls.append(1)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(jets, "_einsum", counting)
        counts = []
        for ws in workspaces:
            calls.clear()
            ws.run()
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] / counts[0] <= 2.2


BATCH_PROBLEMS = [get_case(c).spec for c in case_ids()] + [exp_problem()]
BATCH_IDS = list(case_ids()) + ["exp"]


class TestRunMany:
    @pytest.mark.parametrize("order", [10, 40, 80])
    @pytest.mark.parametrize("hbar", [-1.0, -0.3])
    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_one_column_is_run_bitwise(self, problem, hbar, order):
        ws = Workspace(problem, HamConfig(order=order))
        series = ws.run(hbar=hbar)
        batch = ws.run_many([hbar])
        np.testing.assert_array_equal(batch.partial_sums[:, 0], partial_sum(series, order))
        assert batch.residuals[0] == series.residual_history[-1]
        assert batch.diverged[0] == series.diverged

    def test_overflowing_column_leaves_the_other_alone(self):
        ws = Workspace(get_case("riccati-tanh-long").spec, HamConfig(order=120))
        batch = ws.run_many([-40.0, -0.3])
        assert not np.isfinite(batch.residuals[0]) or batch.residuals[0] > 1e100
        assert batch.diverged[0]
        single = partial_sum(ws.run(hbar=-0.3), 120)
        err = np.max(np.abs(batch.partial_sums[:, 1] - single)) / np.max(np.abs(single))
        assert err < 1e-12
        assert not batch.diverged[1]

    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_seventeen_columns_match_single_runs(self, problem):
        # partial sums, not residuals: a converged series' residual is a
        # difference of nearly equal terms and magnifies roundoff. The
        # scale has a floor of 1: linear-poisson's sum at hbar = -2 is
        # 1 - (1 + hbar)^20 = 0 times the solution, pure roundoff
        ws = Workspace(problem, HamConfig(order=20))
        hbars = np.linspace(-2.0, -0.01, 17)
        batch = ws.run_many(hbars)
        for k, h in enumerate(hbars):
            U = partial_sum(ws.run(hbar=h), 20)
            err = np.max(np.abs(batch.partial_sums[:, k] - U))
            assert err <= 1e-10 * max(1.0, np.max(np.abs(U)))

    @pytest.mark.parametrize("n", [32, 64, 128])
    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_residuals_equal_the_per_column_loop_bitwise(self, problem, n):
        # one stacked quadrature over a contiguous (K, n, 1) copy; the
        # reference is the loop it replaced, one mean_square per column
        ws = Workspace(problem.with_grid_n(n), HamConfig(order=12))
        hbars = np.linspace(-2.0, -0.01, 17)
        batch = ws.run_many(hbars)
        f = ws.operator_values(batch.partial_sums)
        want = np.array([mean_square(ws.grid, f[:, k]) for k in range(hbars.size)])
        assert batch.residuals.tobytes() == want.tobytes()

    @pytest.mark.parametrize("K", [2, 3, 17, 41])
    @pytest.mark.parametrize("n", [16, 33, 64, 128, 256])
    def test_mean_square_of_a_block_is_each_columns_own_bitwise(self, n, K):
        # every column takes its own quadrature dot, the value it gets alone
        grid = build_grid("chebyshev-lobatto", n, 0.0, 1.0)
        f = np.random.default_rng(n * K).standard_normal((n, K))
        want = np.array([mean_square(grid, f[:, k]) for k in range(K)])
        assert mean_square(grid, f).tobytes() == want.tobytes()
        assert mean_square(grid, np.stack([f, f])).tobytes() == np.stack([want, want]).tobytes()

    def test_repeat_is_bitwise_identical(self):
        ws = Workspace(exp_problem(), HamConfig(order=20))
        hbars = np.linspace(-2.0, -0.01, 17)
        first = ws.run_many(hbars)
        second = ws.run_many(hbars)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        ws = Workspace(get_case(POISSON).spec, HamConfig())
        for hbars in ([], [-1.0, 0.0], [float("nan")]):
            with pytest.raises(ConfigError):
                ws.run_many(hbars)


# docs/calibration.md, "One series for every hbar": the largest measured
# max|U_M - run| / (eps max_i sum_k C(M, k) |hbar|^k |v_k(i)|) is 3.8e3
IDENTITY_C = 2e4
IDENTITY_PROBLEMS = {cid: get_case(cid).spec for cid in case_ids()}
IDENTITY_PROBLEMS["exp"] = exp_problem()


class TestPerturbationSeries:
    """One weak-nonlinearity series v_k gives the partial sum at every hbar:
    U_M(hbar) = sum_k C(M, k) hbar^k v_k (docs/recursions.md)."""

    def test_zeroth_term_is_u0(self):
        ws = Workspace(exp_problem(), HamConfig(lopt_mode="frechet-at-u0", order=5))
        v = ws.perturbation_series()
        assert v.shape == (6, ws.grid.n)
        assert v[0].tobytes() == ws.u0.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(IDENTITY_PROBLEMS)),
        mode=st.sampled_from(["use-L", "frechet-at-u0"]),
        weight=st.sampled_from(["1", "1 + r"]),
        order=st.integers(0, 30),
        hbar=st.floats(-2.5, 1.5).filter(lambda h: abs(h) >= 0.01),
    )
    def test_one_series_gives_every_hbar(self, name, mode, weight, order, hbar):
        config = HamConfig(lopt_mode=mode, H=parse_expr(weight), order=order)
        ws = Workspace(IDENTITY_PROBLEMS[name], config)
        weights = [math.comb(order, k) * hbar**k for k in range(order + 1)]
        terms = np.array(weights)[:, None] * ws.perturbation_series()
        run = partial_sum(ws.run(hbar=hbar), order)
        bound = IDENTITY_C * EPS * np.max(np.sum(np.abs(terms), axis=0))
        assert np.max(np.abs(terms.sum(axis=0) - run)) <= bound


class TestStackedResidualHistory:
    """The history is one F(U) over the stacked partial sums; each entry is
    bitwise what that partial sum gives on its own."""

    @pytest.mark.parametrize("hbar", [-1.0, -0.3])
    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_entries_equal_single_residuals_bitwise(self, problem, hbar):
        ws = Workspace(problem, HamConfig(order=20))
        series = ws.run(hbar=hbar)
        assert len(series.residual_history) == 21
        for m, value in enumerate(series.residual_history):
            assert value == mean_square(ws.grid, ws.operator_values(partial_sum(series, m)))

    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_oracle_entries_equal_single_residuals_bitwise(self, problem):
        ws = Workspace(problem, hpm_config())
        series = hpm_recursion(problem, 20)
        for m, value in enumerate(series.residual_history):
            assert value == mean_square(ws.grid, ws.operator_values(partial_sum(series, m)))

    def test_one_operator_evaluation_per_series(self, count_calls):
        ws = Workspace(exp_problem(), HamConfig(order=30))
        calls = count_calls("hamsolve.engine", "operator_values")
        ws.run()
        assert len(calls) == 1
        hpm_recursion(exp_problem(), 30)
        assert len(calls) == 2


class TestDivergenceMargin:
    def test_roundoff_drift_is_not_growth(self):
        assert not series_diverges([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 3e-12])
        assert series_diverges([1.0, 1.001, 1.002, 1.003])

    @pytest.mark.parametrize("order", [10, 40])
    def test_equal_norms_do_not_flag(self, order):
        # linear-poisson at hbar = -2: u_m = -u_{m-1} in exact arithmetic,
        # so the norms only drift in the last bits
        ws = Workspace(get_case(POISSON).spec, HamConfig(order=order))
        assert not ws.run(hbar=-2.0).diverged
        assert not ws.run_many([-2.0]).diverged[0]
        assert not ws.run_many(np.linspace(-2.0, -0.1, 17)).diverged[0]

    @pytest.mark.parametrize("order", [10, 40, 100])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 192, 256])
    def test_equal_norms_are_equal_bitwise(self, n, order, monkeypatch):
        # c_m = 1 + hbar = -1 and N = 0, so the folded march negates u_{m-1}
        # and adds the solution of a zero rhs: no round trip through L to drift
        ws = Workspace(get_case(POISSON).spec.with_grid_n(n), HamConfig(order=order))
        norms = ws.run(hbar=-2.0).per_order_norms[1:]
        assert norms == (norms[0],) * order
        marched = []
        march = Workspace._march

        def recording(self, hbars):
            marched.append(march(self, hbars))
            return marched[-1]

        monkeypatch.setattr(Workspace, "_march", recording)
        ws.run_many(np.full(17, -2.0))  # the norms of its 17 columns' orders
        columns = np.max(np.abs(marched[0][1:]), axis=1)
        assert columns.shape == (order, 17)
        assert (columns == columns[0, 0]).all()

    def test_non_finite_norm_flags(self):
        assert series_diverges([0.0, 1e300, float("nan"), float("nan")])
        assert series_diverges([1.0, float("inf")])
        assert series_diverges([1.0, 0.5, float("nan"), 0.1])
        # an overflowing weight: norms 0, 1e300, then not finite
        spec = get_case(TANH).spec
        ws = Workspace(spec, HamConfig(H=parse_expr("1e300")))
        series = ws.run()
        batch = ws.run_many([-1.0, -0.5])
        assert not np.isfinite(series.per_order_norms[2])
        assert series.diverged
        assert batch.diverged.all()

    def test_geometric_growth_still_flags(self):
        ws = Workspace(get_case("riccati-tanh-long").spec, HamConfig(order=15))
        assert ws.run(hbar=-1.0).diverged
        assert ws.run_many([-1.0]).diverged[0]


class TestFold:
    """Where the core is L's own and H = 1, L u_{m-1} folds out of the
    march's solves (engine module docstring), so the march never reads
    A_L; any other workspace does, once per order."""

    @staticmethod
    def _marches(ws):
        return ws._march(np.array([-1.0, -0.3])), ws.perturbation_series()

    @staticmethod
    def _poisoned(problem, config):
        ws = Workspace(problem, config)
        ws.A_L = np.full_like(ws.A_L, np.nan)
        return ws

    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_folding_march_reads_no_A_L(self, problem):
        config = HamConfig(order=12)
        want = self._marches(Workspace(problem, config))
        poisoned = self._poisoned(problem, config)
        assert poisoned._folds
        for got, ref in zip(self._marches(poisoned), want):
            assert got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "config",
        [HamConfig(lopt_mode="frechet-at-u0", order=12), HamConfig(H=parse_expr("1 + r"), order=12)],
        ids=["frechet-at-u0", "H = 1 + r"],
    )
    def test_other_marches_read_A_L(self, config):
        poisoned = self._poisoned(exp_problem(), config)
        assert not poisoned._folds
        for orders in self._marches(poisoned):
            assert not np.isfinite(orders[1:]).any()


class TestSharedSetUp:
    """Consecutive workspaces on one problem and core share its set-up
    (``engine._problem_set_up``). Every test here builds on problems of its
    own, fresh from ``get_case`` or built in the test, so no set-up left by
    an earlier test is ever theirs."""

    SHARED = ("grid", "A_L", "s_vals", "lopt", "u0")

    def test_next_workspace_on_the_problem_shares_the_set_up(self):
        problem = get_case("manufactured-quad").spec
        first = Workspace(problem, HamConfig())
        second = Workspace(problem, HamConfig(hbar=-0.5, order=7, H=parse_expr("2 - r")))
        for name in self.SHARED:
            assert getattr(second, name) is getattr(first, name)
        assert second.H_vals is not first.H_vals and not second.unit_weight
        fresh = Workspace(replace(problem), second.config)
        assert fresh.grid is not second.grid
        assert _bits(second.run()) == _bits(fresh.run())

    def test_nothing_is_shared_across_equal_copies_or_cores(self):
        # an equal copy is another problem, and an equal user core another
        # core: equal expressions can differ in the sign of a zero
        problem = get_case("manufactured-quad").spec
        copy = replace(problem)
        core, twin = (LinearOperator.from_strings(("0", "0", "1")) for _ in range(2))
        assert copy == problem and twin == core
        modes = [(problem, "use-L"), (copy, "use-L"), (copy, "frechet-at-u0"), (copy, core), (copy, twin)]
        built = [Workspace(p, HamConfig(lopt_mode=mode)) for p, mode in modes]
        for before, after in zip(built, built[1:]):
            for name in self.SHARED:
                assert getattr(after, name) is not getattr(before, name)
        assert Workspace(copy, HamConfig(lopt_mode=twin, order=3)).lopt is built[-1].lopt

    def test_at_most_one_set_up_stays_alive(self):
        system = weakref.ref(Workspace(get_case(POISSON).spec, HamConfig()).lopt)
        gc.collect()
        assert system() is not None  # the memo's slot holds it
        Workspace(get_case(TANH).spec, HamConfig())
        gc.collect()
        assert system() is None

    def test_a_set_up_that_raises_is_not_kept(self, count_calls):
        # u'' with Neumann data at both ends: the BC system is singular
        neumann = (BoundaryCondition("left", 1, 0.0), BoundaryCondition("right", 1, 0.0))
        problem = replace(POISSON_SPEC, bcs=neumann)
        grids = count_calls("hamsolve.grids", "build_grid")
        for _ in range(2):
            with pytest.raises(SingularSystemError):
                Workspace(problem, HamConfig())
        assert len(grids) == 2

    def test_threads_building_workspaces_repeat_one_thread_bitwise(self):
        # four threads, each building two workspaces per problem in turn,
        # so the slot changes hands between and within builds; run in a
        # child process like TestLU's thread check
        out = run_in_child("""
            import sys, threading
            import numpy as np
            from hamsolve import HamConfig, Workspace, get_case

            problems = [get_case("riccati-tanh-long").spec, get_case("manufactured-quad").spec]
            configs = [HamConfig(order=20), HamConfig(order=12, hbar=-0.5)]

            def results(problem):
                return [np.stack(Workspace(problem, c).run().orders).tobytes() for c in configs]

            want = [results(p) for p in problems]
            bad = []

            def work(first):
                for i in range(60):
                    k = (first + i) % 2
                    bad.append(results(problems[k]) != want[k])

            sys.setswitchinterval(1e-5)
            threads = [threading.Thread(target=work, args=(k % 2,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            print(sum(bad), len(bad), sum(t.is_alive() for t in threads))
        """, timeout=300)
        assert out == ["0", "240", "0"]


tenths = st.integers(-10, 10).map(lambda k: f"{k / 10:.1f}")


@st.composite
def problem_texts(draw):
    """Problem-file text: u'' + c1 u' + c0 u + N(u) = s with Dirichlet data,
    on a random interval, grid and series configuration."""
    a = draw(st.integers(-10, 10)) / 10
    b = a + draw(st.integers(5, 20)) / 10
    return (
        f"[domain]\na = {a!r}\nb = {b!r}\nkind = {draw(st.sampled_from(GRID_KINDS))}\n"
        f"n = {draw(st.sampled_from([16, 24, 32]))}\n\n"
        f"[operator]\nL = {draw(tenths)}, {draw(tenths)}, 1\n"
        f"N = {draw(tenths)}*u^2 + {draw(tenths)}*u*u'\n"
        f"s = {draw(tenths)} + {draw(tenths)}*r\n\n"
        f"[bcs]\nbc = left, 0, {draw(tenths)}\nbc = right, 0, {draw(tenths)}\n\n"
        f"[ham]\nhbar = {draw(st.sampled_from(['-1.5', '-1', '-0.6', '-0.3']))}\n"
        f"order = {draw(st.integers(0, 12))}\n"
    )


def _bits(series):
    return (
        [u.tobytes() for u in series.orders],
        np.array(series.residual_history).tobytes(),
        np.array(series.per_order_norms).tobytes(),
        series.diverged,
    )


@settings(max_examples=40, deadline=None)
@given(text=problem_texts())
def test_runs_repeat_bitwise_from_cold_and_warm_caches(text):
    # the warm workspace is built on a fresh parse of the same text, so it
    # builds its own set-up (a second workspace on the same problem object
    # would share the first's) on the cached Lobatto reference
    parsed = parse_problem_text(text)
    _lobatto_reference.cache_clear()
    cold = Workspace(parsed.problem, parsed.config).run()
    again = parse_problem_text(text)
    warm = Workspace(again.problem, again.config).run()
    if parsed.problem.grid_kind == "chebyshev-lobatto":
        info = _lobatto_reference.cache_info()
        assert (info.misses, info.hits) == (1, 1)
    assert _bits(cold) == _bits(warm)


@settings(max_examples=40, deadline=None)
@given(text=problem_texts())
def test_engine_matches_oracle_on_random_problem_files(text):
    # the equivalence check runs the engine at hbar = -1 with use-L and
    # H = 1 whatever the file's [ham] block says; u_0 is nonzero, so the
    # two agree to the default 1e-10 relative tolerance, not bitwise
    parsed = parse_problem_text(text)
    report = check_equivalence(parsed.problem, order=max(parsed.config.order, 1))
    assert report.passed, report.as_dict()
