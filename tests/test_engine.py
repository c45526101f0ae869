"""Series engine: zeroth solve, order-m recursion, run, residuals.

Primary oracles: hand-derived series terms for the Riccati problem (the
reduced parameter reproduces the Maclaurin series of tanh term by term), a
sympy-derived set of coefficients at hbar = -1/2 (independent symbolic
implementation of the same recursion, frozen in docs/calibration.md), and
the closed-form behavior of purely linear problems where every order beyond
the first must vanish identically.
"""

import warnings

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
    Workspace,
    case_ids,
    check_equivalence,
    get_case,
    hpm_config,
    hpm_recursion,
    optimal_workspace,
    parse_expr,
    parse_problem_text,
    partial_sum,
    run_ham,
)
from hamsolve.grids import GRID_KINDS, _lobatto_reference
from hamsolve.jets import jet_expand, series_jets
from hamsolve.problem import series_diverges

TANH = "riccati-tanh-short"
POISSON = "linear-poisson"


@pytest.fixture
def tanh_ws():
    case = get_case(TANH)
    return Workspace(case.spec, HamConfig(order=3))


class TestHandSeries:
    """tanh problem at hbar = -1: the series is the Maclaurin series."""

    def test_orders_match_taylor(self, tanh_ws):
        sol = tanh_ws.run(hbar=-1.0, order=3)
        r = tanh_ws.grid.nodes
        assert np.max(np.abs(sol.orders[0])) == 0.0
        assert np.max(np.abs(sol.orders[1] - r)) < 1e-13
        assert np.max(np.abs(sol.orders[2])) == 0.0  # exact cancellation
        assert np.max(np.abs(sol.orders[3] + r**3 / 3)) < 1e-13

    def test_even_orders_cancel_bitwise(self, tanh_ws):
        # the grouped rhs coefficient hbar*H + chi is exactly 0.0 at -1
        sol = tanh_ws.run(hbar=-1.0, order=6)
        for m in (2, 4, 6):
            assert np.max(np.abs(sol.orders[m])) == 0.0

    def test_residual_history_frozen(self, tanh_ws):
        # exact values: 1, 1/5, 1/5, 4/81 - 4/297 + 1/1053
        sol = tanh_ws.run(hbar=-1.0, order=3)
        want = (1.0, 0.2, 0.2, 0.0368643701976978)
        np.testing.assert_allclose(sol.residual_history, want, rtol=1e-9)

    def test_sympy_frozen_orders_at_half(self, tanh_ws):
        # independent symbolic recursion at hbar = -1/2 (docs/calibration.md)
        sol = tanh_ws.run(hbar=-0.5, order=6)
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


class TestMthOrderRhs:
    """The order-m right-hand side, seen through the orders run solves."""

    def test_first_order_rhs_is_one_on_riccati(self, tanh_ws):
        # rhs_1 = 1 with u(0) = 0 gives u_1 = r
        u1 = tanh_ws.run(hbar=-1.0, order=1).orders[1]
        assert np.max(np.abs(u1 - tanh_ws.grid.nodes)) < 1e-14

    def test_first_order_rhs_scales_linearly_in_hbar(self, tanh_ws):
        u1 = tanh_ws.run(hbar=-1.0, order=1).orders[1]
        u1_doubled = tanh_ws.run(hbar=-2.0, order=1).orders[1]
        np.testing.assert_array_equal(u1_doubled, 2.0 * u1)

    def test_second_order_rhs_at_reduced_hbar(self, tanh_ws):
        # rhs_2 = (hbar + 1) L u_1 + hbar D_1[N]; at hbar=-1 only -D_1 stays,
        # and D_1[u^2] = 2 u_0 u_1 = 0 since u_0 = 0
        u2 = tanh_ws.run(hbar=-1.0, order=2).orders[2]
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
        ws = Workspace(case.spec, HamConfig(order=4))
        sol = ws.run(hbar=-0.8, order=2)
        assert sol.config.hbar == -0.8
        assert sol.config.order == 2
        assert sol.truncation_order == 2

    def test_validation(self):
        # a bad hbar or order is a typed error before any arithmetic runs,
        # so no RuntimeWarning from a NaN or infinite hbar escapes first
        case = get_case(POISSON)
        ws = Workspace(case.spec, HamConfig())
        bad = [{"hbar": h} for h in (0.0, float("nan"), float("inf"), -float("inf"))]
        for kwargs in bad + [{"order": -1}]:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ConfigError):
                    ws.run(**kwargs)


    @pytest.mark.parametrize("order", [2.5, 2.7, True])
    def test_order_must_be_an_integer(self, order):
        # at the parent run cast 2.7 to 2 and HamConfig took 2.5 and True
        ws = Workspace(get_case(POISSON).spec, HamConfig())
        with pytest.raises(ConfigError):
            HamConfig(order=order)
        with pytest.raises(ConfigError):
            ws.run(order=order)
        with pytest.raises(ConfigError):
            ws.run_many([-1.0], order)


class TestResiduals:
    def test_zero_guess_on_riccati_gives_one(self):
        ws = Workspace(get_case(TANH).spec, HamConfig())
        val = ws.squared_residual(np.zeros(ws.grid.n))
        assert val == pytest.approx(1.0, abs=1e-13)

    def test_exact_solution_near_machine_floor(self):
        case = get_case("manufactured-quad")
        ws = Workspace(case.spec, HamConfig())
        val = ws.squared_residual(case.spec.exact_values(ws.grid))
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


def test_zero_weight_rejected():
    case = get_case(POISSON)
    with pytest.raises(ConfigError):
        Workspace(case.spec, HamConfig(H=parse_expr("0")))
    # odd n puts a node exactly at the midpoint where this H vanishes
    spec65 = case.spec.with_grid_n(65)
    with pytest.raises(ConfigError):
        Workspace(spec65, HamConfig(H=parse_expr("r - 0.5")))


def _batch_recursion(ws, hbar, order):
    """u_0..u_order with D_{m-1}[N] recomputed in full at every order: the
    batch jet path the engine ran before its jets went online."""
    N, grid = ws.problem.N, ws.grid
    homogeneous = np.zeros(len(ws.problem.bcs))
    orders = [ws.u0]
    for m in range(1, order + 1):
        forcing = jet_expand(N, grid.nodes, series_jets(grid, orders[:m], N), m)[m - 1]
        if m == 1:
            forcing = forcing - ws.s_vals
        chi = 0.0 if m == 1 else 1.0
        t = ws.A_L @ orders[m - 1]
        rhs = (hbar * ws.H_vals + chi) * t + hbar * (ws.H_vals * forcing)
        orders.append(ws.lopt.solve(rhs, bc_values=homogeneous))
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
        ws = Workspace(get_case("riccati-tanh-long").spec, HamConfig(hbar=-0.3))
        calls = []
        einsum = np.einsum

        def counting(*args, **kwargs):
            calls.append(1)
            return einsum(*args, **kwargs)

        monkeypatch.setattr(np, "einsum", counting)
        counts = []
        for order in (20, 40):
            calls.clear()
            ws.run(order=order)
            counts.append(len(calls))
        assert counts[0] > 0
        assert counts[1] / counts[0] <= 2.2


def _exp_problem():
    # u'' + exp(u) = s with exact sin(pi r): a transcendental nonlinearity
    return ProblemSpec(
        a=0.0,
        b=1.0,
        L=LinearOperator.from_strings(("0", "0", "1")),
        N=parse_expr("exp(u)"),
        s=parse_expr("-pi^2*sin(pi*r) + exp(sin(pi*r))"),
        bcs=(
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 0, 0.0),
        ),
    )


BATCH_PROBLEMS = [get_case(c).spec for c in case_ids()] + [_exp_problem()]
BATCH_IDS = list(case_ids()) + ["exp"]


class TestRunMany:
    @pytest.mark.parametrize("order", [10, 40, 80])
    @pytest.mark.parametrize("hbar", [-1.0, -0.3])
    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_one_column_is_run_bitwise(self, problem, hbar, order):
        ws = Workspace(problem, HamConfig())
        series = ws.run(hbar=hbar, order=order)
        batch = ws.run_many([hbar], order)
        np.testing.assert_array_equal(batch.partial_sums[:, 0], partial_sum(series, order))
        assert batch.residuals[0] == series.residual_history[-1]
        assert batch.diverged[0] == series.diverged

    def test_overflowing_column_leaves_the_other_alone(self):
        ws = Workspace(get_case("riccati-tanh-long").spec, HamConfig())
        batch = ws.run_many([-40.0, -0.3], 120)
        assert not np.isfinite(batch.residuals[0]) or batch.residuals[0] > 1e100
        assert batch.diverged[0]
        single = partial_sum(ws.run(hbar=-0.3, order=120), 120)
        err = np.max(np.abs(batch.partial_sums[:, 1] - single)) / np.max(np.abs(single))
        assert err < 1e-12
        assert not batch.diverged[1]

    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_seventeen_columns_match_single_runs(self, problem):
        # partial sums, not residuals: a converged series' residual is a
        # difference of nearly equal terms and magnifies roundoff. The
        # scale has a floor of 1: linear-poisson's sum at hbar = -2 is
        # 1 - (1 + hbar)^20 = 0 times the solution, pure roundoff
        ws = Workspace(problem, HamConfig())
        hbars = np.linspace(-2.0, -0.01, 17)
        batch = ws.run_many(hbars, 20)
        for k, h in enumerate(hbars):
            U = partial_sum(ws.run(hbar=h, order=20), 20)
            err = np.max(np.abs(batch.partial_sums[:, k] - U))
            assert err <= 1e-10 * max(1.0, np.max(np.abs(U)))

    def test_repeat_is_bitwise_identical(self):
        ws = Workspace(_exp_problem(), HamConfig())
        hbars = np.linspace(-2.0, -0.01, 17)
        first = ws.run_many(hbars, 20)
        second = ws.run_many(hbars, 20)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_validation(self):
        ws = Workspace(get_case(POISSON).spec, HamConfig())
        for hbars, order in (([], 3), ([-1.0, 0.0], 3), ([float("nan")], 3), ([-1.0], -1)):
            with pytest.raises(ConfigError):
                ws.run_many(hbars, order)


class TestStackedResidualHistory:
    """The history is one F(U) over the stacked partial sums; each entry is
    bitwise what that partial sum gives on its own."""

    @pytest.mark.parametrize("hbar", [-1.0, -0.3])
    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_entries_equal_single_residuals_bitwise(self, problem, hbar):
        ws = Workspace(problem, HamConfig())
        series = ws.run(hbar=hbar, order=20)
        assert len(series.residual_history) == 21
        for m, value in enumerate(series.residual_history):
            assert value == ws.squared_residual(partial_sum(series, m))

    @pytest.mark.parametrize("problem", BATCH_PROBLEMS, ids=BATCH_IDS)
    def test_oracle_entries_equal_single_residuals_bitwise(self, problem):
        ws = Workspace(problem, hpm_config())
        series = hpm_recursion(problem, 20)
        for m, value in enumerate(series.residual_history):
            assert value == ws.squared_residual(partial_sum(series, m))

    def test_one_operator_evaluation_per_series(self, count_calls):
        ws = Workspace(_exp_problem(), HamConfig())
        calls = count_calls("hamsolve.engine", "operator_values")
        ws.run(order=30)
        assert len(calls) == 1
        hpm_recursion(_exp_problem(), 30)
        assert len(calls) == 2


class TestDivergenceMargin:
    def test_roundoff_drift_is_not_growth(self):
        assert not series_diverges([1.0, 1.0 + 1e-12, 1.0 + 2e-12, 1.0 + 3e-12])
        assert series_diverges([1.0, 1.001, 1.002, 1.003])

    @pytest.mark.parametrize("order", [10, 40])
    def test_equal_norms_do_not_flag(self, order):
        # linear-poisson at hbar = -2: u_m = -u_{m-1} in exact arithmetic,
        # so the norms only drift in the last bits
        ws = Workspace(get_case(POISSON).spec, HamConfig())
        assert not ws.run(hbar=-2.0, order=order).diverged
        assert not ws.run_many([-2.0], order).diverged[0]
        assert not ws.run_many(np.linspace(-2.0, -0.1, 17), order).diverged[0]

    def test_non_finite_norm_flags(self):
        assert series_diverges([0.0, 1e300, float("nan"), float("nan")])
        assert series_diverges([1.0, float("inf")])
        assert series_diverges([1.0, 0.5, float("nan"), 0.1])
        # an overflowing weight: norms 0, 1e300, then not finite
        spec = get_case(TANH).spec
        ws = Workspace(spec, HamConfig(H=parse_expr("1e300")))
        series = ws.run()
        batch = ws.run_many([-1.0, -0.5], 10)
        assert not np.isfinite(series.per_order_norms[2])
        assert series.diverged
        assert batch.diverged.all()

    def test_geometric_growth_still_flags(self):
        ws = Workspace(get_case("riccati-tanh-long").spec, HamConfig())
        assert ws.run(hbar=-1.0, order=15).diverged
        assert ws.run_many([-1.0], 15).diverged[0]


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
    parsed = parse_problem_text(text)
    _lobatto_reference.cache_clear()
    cold = Workspace(parsed.problem, parsed.config).run()
    warm = Workspace(parsed.problem, parsed.config).run()
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
