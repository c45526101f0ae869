"""Embedded-family residual, jacobian, Newton correction, path tracing.

Anchors that need no reference solver: at eps = 0 the zeroth-order
function is already a root; at eps = 1 the interior rows reduce to
hbar H F(u); the map is affine in eps, so values at interior eps are the
convex combination of the endpoint values. The linear benchmark gives the
whole path in closed form: u(eps) = eps * u(1).
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

import hamsolve.continuation as continuation
from hamsolve import (
    ConfigError,
    ContinuationPath,
    HamConfig,
    LinearOperator,
    PathAbortError,
    PathStep,
    SingularSystemError,
    Workspace,
    bc_row,
    case_ids,
    error_vs_exact,
    get_case,
    homotopy_jacobian,
    homotopy_residual,
    newton_at,
    parse_expr,
    parse_problem_text,
    trace_path,
    trace_workspace,
)
from hamsolve.continuation import MAX_HALVINGS, NEWTON_MAX_ITERS
from hamsolve.expressions import max_u_order
from hamsolve.grids import LU
from hamsolve.jets import PartialsTape

from conftest import exp_problem

LINEAR = get_case("linear-poisson")
TANH_SHORT = get_case("riccati-tanh-short")
MANUFACTURED = get_case("manufactured-quad")


def smooth_field(grid):
    # an arbitrary BC-violating test function, any smooth values will do
    return np.sin(2.0 * np.pi * grid.nodes) + 0.3 * grid.nodes**2 + 0.1


class TestResidual:
    @pytest.mark.parametrize("eps", [-0.1, 1.1, 2.0, "x", None])
    def test_eps_range_checked(self, eps):
        ws = Workspace(LINEAR.spec, HamConfig())
        with pytest.raises(ConfigError):
            homotopy_residual(ws, eps, ws.u0)
        with pytest.raises(ConfigError):
            homotopy_jacobian(ws, eps, ws.u0)
        with pytest.raises(ConfigError):
            newton_at(ws, eps, ws.u0)

    def test_eps_is_any_real_argument(self):
        ws = Workspace(LINEAR.spec, HamConfig())
        u = smooth_field(ws.grid)
        want = homotopy_residual(ws, 0.5, u)
        for eps in ("0.5", np.float64(0.5)):
            np.testing.assert_array_equal(homotopy_residual(ws, eps, u), want)

    def test_zeroth_order_is_root_at_eps_zero(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(MANUFACTURED.spec, config)
        g0 = homotopy_residual(ws, 0.0, ws.u0)
        assert float(np.max(np.abs(g0))) < 1e-9

    def test_interior_at_eps_one_is_scaled_operator(self):
        config = HamConfig(hbar=-0.7)
        ws = Workspace(MANUFACTURED.spec, config)
        w = smooth_field(ws.grid)
        g1 = homotopy_residual(ws, 1.0, w)
        expected = config.hbar * ws.H_vals * ws.operator_values(w)
        interior = ws.lopt.interior
        np.testing.assert_allclose(
            g1[interior], expected[interior], rtol=1e-12, atol=1e-12
        )

    def test_boundary_rows_carry_bc_residual(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(LINEAR.spec, config)
        w = smooth_field(ws.grid)
        for eps in (0.0, 0.4, 1.0):
            g = homotopy_residual(ws, eps, w)
            # Dirichlet rows: value minus prescribed data, eps-independent
            assert g[0] == pytest.approx(w[0], abs=1e-12)
            assert g[-1] == pytest.approx(w[-1], abs=1e-12)

    @pytest.mark.parametrize("eps", [0.25, 0.5, 0.75])
    def test_affine_interpolation_in_eps(self, eps):
        config = HamConfig(hbar=-1.3)
        ws = Workspace(TANH_SHORT.spec, config)
        w = smooth_field(ws.grid)
        g0 = homotopy_residual(ws, 0.0, w)
        g1 = homotopy_residual(ws, 1.0, w)
        ge = homotopy_residual(ws, eps, w)
        np.testing.assert_allclose(
            ge, (1.0 - eps) * g0 + eps * g1, rtol=1e-12, atol=1e-13
        )


class TestJacobian:
    def test_matches_finite_differences(self):
        spec = MANUFACTURED.spec.with_grid_n(16)
        config = HamConfig(hbar=-0.9)
        ws = Workspace(spec, config)
        u = ws.u0 + 0.2 * np.sin(np.pi * ws.grid.nodes)
        eps = 0.37
        J = homotopy_jacobian(ws, eps, u)
        h = 1e-6
        J_fd = np.empty_like(J)
        for j in range(ws.grid.n):
            e = np.zeros(ws.grid.n)
            e[j] = h
            gp = homotopy_residual(ws, eps, u + e)
            gm = homotopy_residual(ws, eps, u - e)
            J_fd[:, j] = (gp - gm) / (2.0 * h)
        scale = 1.0 + np.abs(J)
        assert float(np.max(np.abs(J - J_fd) / scale)) < 1e-5

    @pytest.mark.parametrize("eps", [0.0, 0.37, 1.0])
    def test_equals_the_plain_expression_bitwise(self, eps):
        # homotopy_jacobian scales and adds in place; the roundings must be
        # those of the formula written out
        ws = Workspace(MANUFACTURED.spec, HamConfig(hbar=-0.9))
        u = ws.u0 + 0.2 * np.sin(np.pi * ws.grid.nodes)
        df = ws.A_L.copy()
        PartialsTape(ws.problem.N, ws.grid.nodes).add_frechet(df, ws.grid, u)
        expected = (1.0 - eps) * ws.lopt.matrix + (eps * -0.9) * (
            ws.H_vals[:, None] * df
        )
        expected[ws.lopt.rows] = ws.lopt.matrix[ws.lopt.rows]
        np.testing.assert_array_equal(homotopy_jacobian(ws, eps, u), expected)

    def test_bc_rows_do_not_depend_on_eps(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(LINEAR.spec, config)
        u = smooth_field(ws.grid)
        Ja = homotopy_jacobian(ws, 0.1, u)
        Jb = homotopy_jacobian(ws, 0.9, u)
        for i in ws.lopt.rows:
            np.testing.assert_array_equal(Ja[i], Jb[i])


class TestNewton:
    def test_zero_iterations_at_converged_start(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(MANUFACTURED.spec, config)
        result = newton_at(ws, 0.0, ws.u0)
        assert result.converged
        assert result.newton_iters == 0
        np.testing.assert_array_equal(result.u, ws.u0)

    def test_linear_family_converges_in_one_step(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(LINEAR.spec, config)
        result = newton_at(ws, 0.7, np.zeros(ws.grid.n))
        assert result.converged
        assert result.newton_iters <= 2
        g = homotopy_residual(ws, 0.7, result.u)
        assert float(np.max(np.abs(g))) < 1e-8

    def test_polish_near_exact_solution(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(MANUFACTURED.spec, config)
        exact = MANUFACTURED.spec.exact_values(ws.grid)
        start = exact + 1e-3 * np.sin(3.0 * np.pi * ws.grid.nodes)
        result = newton_at(ws, 1.0, start)
        assert result.converged
        assert error_vs_exact(MANUFACTURED, result.u, ws.grid) < 1e-8


class TestNewtonIterationLimit:
    """Newton's exit when it runs out of iterations (limits 0 and 1)."""

    @pytest.mark.parametrize("limit", [0, 1])
    def test_unconverged_step_at_the_limit(self, limit, monkeypatch):
        monkeypatch.setattr(continuation, "NEWTON_MAX_ITERS", limit)
        ws = Workspace(TANH_SHORT.spec, HamConfig(hbar=1.0))
        step = newton_at(ws, 1.0, np.zeros(ws.grid.n))
        assert not step.converged
        assert step.newton_iters == limit
        assert math.isnan(step.jac_condition)

    def test_trace_aborts_after_the_predicted_points_it_accepts(self, monkeypatch):
        # with no update allowed, a step is accepted only where the tangent
        # prediction itself passes the stop test: at the smallest
        # increments, whose prediction error is O(deps^2)
        monkeypatch.setattr(continuation, "NEWTON_MAX_ITERS", 0)
        ws = Workspace(TANH_SHORT.spec, HamConfig(hbar=1.0))
        with pytest.raises(PathAbortError, match=r"near eps=0\.000610352:") as info:
            trace_workspace(ws)
        steps = info.value.path.steps
        assert [step.eps for step in steps] == [0.0, 2.0**-12, 2.0**-11, 2.0**-11 + 2.0**-13]
        assert all(step.newton_iters == 0 and step.converged for step in steps)


class TestSeriesIsThePath:
    """G(eps, u) is the deformation equation at p = eps with hbar = -h, h
    the tracer's hbar, so Newton's point at eps is the series at hbar -h
    summed at p = eps. Bounds: docs/calibration.md."""

    @staticmethod
    def gap(ws, step, hbar, order):
        """Sup distance from the step's point to the series at hbar summed
        at p = step.eps through each order 0..order."""
        series = Workspace(ws.problem, replace(ws.config, order=order)).run(hbar=hbar)
        summed = np.cumsum([u * step.eps**m for m, u in enumerate(series.orders)], axis=0)
        return np.max(np.abs(step.u - summed), axis=1)

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize(
        "problem, lopt_mode",
        [(get_case(c).spec, "use-L") for c in case_ids()]
        + [(exp_problem(), "frechet-at-u0"), (exp_problem(), LinearOperator.from_strings(("1", "0", "1")))],
        ids=list(case_ids()) + ["exp-frechet-at-u0", "exp-user-core"],
    )
    def test_newton_point_is_the_summed_series(self, problem, lopt_mode, h):
        ws = Workspace(problem, HamConfig(hbar=h, lopt_mode=lopt_mode))
        gaps = {}
        for eps, order in ((0.05, 10), (0.2, 30)):
            step = newton_at(ws, eps, ws.u0)
            assert step.converged
            gaps[eps] = self.gap(ws, step, -h, order)
            assert gaps[eps][-1] < 1e-10
            # the control: the same sum at the tracer's own sign is far off
            assert self.gap(ws, step, h, order)[-1] > 1e-2
        # geometric decay in M at eps = 0.05, down to Newton's floor
        assert gaps[0.05][5] < max(1e-3 * gaps[0.05][2], 1e-10)


USER_CORE = LinearOperator.from_strings(("1", "0", "1"))  # u + u''
NON_L_CORES = [
    (exp_problem(), "frechet-at-u0"),
    (exp_problem(), USER_CORE),
]


class TestTangentPredictor:
    """Each try at a new eps starts Newton from u + (target - eps) t, with
    J t = -dG/deps solved on the LU Newton holds; at eps = 1 one full
    Newton update polishes the endpoint. Bounds: docs/calibration.md."""

    @pytest.mark.parametrize("h", [1.0, 0.5])
    @pytest.mark.parametrize(
        "problem, lopt_mode",
        [(get_case(c).spec, "use-L") for c in case_ids()] + NON_L_CORES,
        ids=list(case_ids()) + ["exp-frechet-at-u0", "exp-user-core"],
    )
    def test_tangent_at_eps_zero_is_the_first_order(self, problem, lopt_mode, h):
        # u(eps) is the series at hbar -h summed at p = eps, so du/deps at
        # eps = 0 is its u_1
        ws = Workspace(problem, HamConfig(hbar=h, lopt_mode=lopt_mode))
        t = continuation._Corrector(ws).tangent(continuation._parts(ws, ws.u0))
        u1 = ws.run(hbar=-h).orders[1]
        assert float(np.max(np.abs(t - u1))) <= 1e-13 * float(np.max(np.abs(u1)))

    @pytest.mark.parametrize(
        "make_ws",
        [lambda c=c: _builtin(c, 32) for c in case_ids()]
        + [
            lambda: Workspace(TANH_SHORT.spec, HamConfig(hbar=1.0, H=parse_expr("exp(-r)"))),
            lambda: _from_text(WITH_U_PRIME.format(kind="chebyshev-lobatto")),
            lambda: Workspace(exp_problem(), HamConfig(hbar=1.0, lopt_mode="frechet-at-u0")),
        ],
        ids=list(case_ids()) + ["non-unit-H", "u-prime", "exp-frechet-at-u0"],
    )
    def test_tangent_from_kept_parts_equals_two_residuals_bitwise(self, make_ws, count_calls):
        # at u_0 and at two points Newton accepts, the tangent from the G
        # parts Newton returned evaluates no F and is bitwise the solve of
        # G(0, u) - G(1, u) with the LU the corrector holds
        ws = make_ws()
        corrector = continuation._Corrector(ws)
        u, eps, t = ws.u0, 0.0, corrector.tangent(continuation._parts(ws, ws.u0))
        assert t.tobytes() == ws.lopt.lu.solve(homotopy_residual(ws, 0.0, u) - homotopy_residual(ws, 1.0, u)).tobytes()
        evaluations = count_calls("hamsolve.engine", "Workspace.operator_values")
        for target in (1.0 / 16, 1.0 / 8):
            step, parts = corrector.newton(target, u + (target - eps) * t)
            assert step.converged
            u, eps, before = step.u, target, len(evaluations)
            t = corrector.tangent(parts)
            assert len(evaluations) == before
            want = corrector.lu.solve(homotopy_residual(ws, 0.0, u) - homotopy_residual(ws, 1.0, u))
            assert t.tobytes() == want.tobytes()
        # the tangent reads the parts it is given, whichever point Newton
        # returned last
        want = corrector.lu.solve(homotopy_residual(ws, 0.0, ws.u0) - homotopy_residual(ws, 1.0, ws.u0))
        assert corrector.tangent(continuation._parts(ws, ws.u0)).tobytes() == want.tobytes()

    def test_first_try_starts_from_the_tangent(self, monkeypatch):
        ws = Workspace(TANH_SHORT.spec, HamConfig(hbar=1.0))
        starts = record_starts(monkeypatch)
        trace_workspace(ws, initial_steps=8)
        t = continuation._Corrector(ws).tangent(continuation._parts(ws, ws.u0))
        np.testing.assert_array_equal(starts[0], ws.u0 + 0.125 * t)
        assert float(np.max(np.abs(starts[0] - ws.u0))) > 0.1

    def test_singular_jacobian_falls_back_to_the_last_point(self, monkeypatch):
        # use-L at hbar = -1 with s = 0: u = 0 solves every eps, and at
        # eps = 1/2 the interior rows of J are exactly zero, so the tangent
        # there is 0/0; the next try starts from u itself
        ws = Workspace(replace(LINEAR.spec, s=parse_expr("0")), HamConfig(hbar=-1.0))
        starts = record_starts(monkeypatch)
        tangents = record_calls(monkeypatch, continuation._Corrector, "tangent")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            path = trace_workspace(ws)
        eps = [step.eps for step in path.steps]
        assert path.final.eps == 1.0 and 0.5 in eps
        half = path.steps[eps.index(0.5)]
        assert half.jac_condition == math.inf
        assert [t is None for t in tangents] == [e == 0.5 for e in eps[:-1]]
        np.testing.assert_array_equal(starts[eps.index(0.5)], half.u)
        assert all(np.all(np.isfinite(start)) for start in starts)

    def test_endpoint_update_keeps_the_accuracy(self, monkeypatch):
        # the final point passes the stop test, and the worst sup error
        # over the builtins at n 32/64/128, with the predictor and with the
        # zeroth-order start, both with the endpoint update, stays under
        # 2.19e-13, the zeroth-order tracer's worst before linear traces
        # solved with L_opt's own LU (docs/calibration.md, "Continuation").
        # Without the endpoint update a chord Newton stops at the stop
        # test's level (2.9e-11 on tanh-long), so both tracers keep it.
        # Both worsts are roundoff, and single configurations move both ways
        worst = {}
        for predictor in (True, False):
            errors = []
            with monkeypatch.context() as patch:
                if not predictor:
                    patch.setattr(continuation._Corrector, "tangent", lambda self, parts: None)
                for case_id in case_ids():
                    for n in (32, 64, 128):
                        ws = _builtin(case_id, n)
                        final = trace_workspace(ws).final
                        assert continuation._converged(final.residual_inf, final.u)
                        errors.append(error_vs_exact(get_case(case_id), final.u, ws.grid))
            worst[predictor] = max(errors)
        assert worst[True] <= 2.19e-13
        assert worst[False] <= 2.19e-13

    def test_trace_fine_factorization_count(self, monkeypatch):
        # perfbench trace-fine's traces at n <= 128, which repeat bitwise
        # for any BLAS thread count: 319 LUs with the zeroth-order start,
        # 236 with the tangent predictor, 204 with linear-poisson's solved
        # on L_opt's own LU, 105 with chord steps (docs/calibration.md)
        calls = record_calls(monkeypatch, continuation, "LU")
        for case_id in case_ids():
            for n in (64, 128):
                assert trace_workspace(_builtin(case_id, n)).final.eps == 1.0
        assert len(calls) <= 105


def record_calls(monkeypatch, holder, name):
    """What ``holder``'s function or method ``name`` returns, call by call."""
    results = []
    original = getattr(holder, name)

    def recording(*args):
        results.append(original(*args))
        return results[-1]

    monkeypatch.setattr(holder, name, recording)
    return results


def record_factored_iterates(monkeypatch):
    """The iterate of the last jacobian a trace factored at each eps."""
    factored = {}
    factor = continuation._Corrector.factor

    def recording(corrector, eps, u):
        factored[eps] = u.copy()
        return factor(corrector, eps, u)

    monkeypatch.setattr(continuation._Corrector, "factor", recording)
    return factored


def record_starts(monkeypatch):
    """The warm start of every Newton try a trace makes, in order."""
    starts = []
    newton = continuation._Corrector.newton

    def recording(corrector, eps, warm_start):
        starts.append(warm_start.copy())
        return newton(corrector, eps, warm_start)

    monkeypatch.setattr(continuation._Corrector, "newton", recording)
    return starts


class TestTracePath:
    def test_assembles_the_linear_operator_once(self, count_calls):
        # counts, not timings: every Newton jacobian reuses the workspace's
        # assembled L instead of assembling its own
        calls = count_calls("hamsolve.grids", "assemble_linear")
        path = trace_path(LINEAR.spec.with_grid_n(64), HamConfig(hbar=1.0))
        assert path.final.eps == 1.0
        assert len(calls) == 1

    def test_linear_poisson_at_n_192_takes_no_halving(self):
        path = trace_workspace(_builtin("linear-poisson", 192))
        assert [step.eps for step in path.steps] == [k / 16 for k in range(17)]

    def test_steps_carry_newton_residual(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(MANUFACTURED.spec, config)
        path = trace_workspace(ws)
        for step in path.steps:
            g = homotopy_residual(ws, step.eps, step.u)
            assert step.residual_inf == float(np.max(np.abs(g)))

    def test_initial_steps_validated(self):
        with pytest.raises(ConfigError):
            trace_path(LINEAR.spec, HamConfig(hbar=1.0), initial_steps=1)
        with pytest.raises(ConfigError):
            trace_path(LINEAR.spec, HamConfig(hbar=1.0), initial_steps=3.7)

    def test_linear_path_is_proportional(self):
        config = HamConfig(hbar=1.0)
        path = trace_path(LINEAR.spec, config, initial_steps=8)
        assert isinstance(path, ContinuationPath)
        assert path.final.eps == 1.0
        assert len(path.steps) == 9
        final_u = path.final.u
        for step in path.steps:
            assert isinstance(step, PathStep)
            assert step.converged
            assert np.isfinite(step.jac_condition)
            np.testing.assert_allclose(
                step.u, step.eps * final_u, atol=1e-9
            )
        eps = np.array([s.eps for s in path.steps])
        assert np.all(np.diff(eps) > 0)
        assert eps[0] == 0.0

    def test_endpoint_solves_the_problem(self):
        ws = Workspace(TANH_SHORT.spec, HamConfig(hbar=1.0))
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        assert error_vs_exact(TANH_SHORT, path.final.u, ws.grid) < 1e-8

    def test_endpoint_invariant_under_positive_hbar(self):
        finals = []
        for hbar in (0.5, 1.0, 2.0):
            path = trace_path(MANUFACTURED.spec, HamConfig(hbar=hbar))
            assert path.final.eps == 1.0
            finals.append(path.final.u)
        np.testing.assert_allclose(finals[0], finals[1], atol=1e-8)
        np.testing.assert_allclose(finals[2], finals[1], atol=1e-8)

    def test_newton_iteration_counts_stay_small(self):
        path = trace_path(MANUFACTURED.spec, HamConfig(hbar=1.0))
        for step in path.steps[1:]:
            assert 1 <= step.newton_iters <= 8

    def test_negative_hbar_aborts_with_partial_path(self):
        # at hbar = -1 the embedded equation for this case loses real
        # solutions before the singular crossing at eps = 1/2; the march
        # must stop and report the progress it made
        with pytest.raises(PathAbortError) as info:
            trace_path(MANUFACTURED.spec, HamConfig(hbar=-1.0))
        partial = info.value.path
        assert isinstance(partial, ContinuationPath)
        assert 0.2 < partial.final.eps < 0.5
        assert np.all(np.diff([s.eps for s in partial.steps]) > 0)
        assert all(step.converged for step in partial.steps)

    def test_negative_hbar_survivor_lands_on_wrong_branch(self):
        # the first-order case has real solutions on both sides of the
        # singular crossing, so the march survives by stepping over it,
        # at the price of a wild excursion, extra halvings, and an
        # endpoint on a spurious discrete branch. Completing a trace with
        # hbar < 0 is not the same as being trustworthy.
        healthy = trace_path(TANH_SHORT.spec, HamConfig(hbar=1.0))
        risky = trace_path(TANH_SHORT.spec, HamConfig(hbar=-1.0))
        sup = lambda p: max(float(np.max(np.abs(s.u))) for s in p.steps)
        grid = TANH_SHORT.spec.make_grid()
        assert error_vs_exact(TANH_SHORT, healthy.final.u, grid) < 1e-8
        assert risky.final.eps == 1.0
        assert error_vs_exact(TANH_SHORT, risky.final.u, grid) > 1e-2
        assert sup(risky) > 100.0 * sup(healthy)
        assert len(risky.steps) > len(healthy.steps)


# L = u'', N = 0, s = 0 with homogeneous Dirichlet data: u_0 = 0 solves
# G(eps, u) = 0 at every eps, so Newton accepts every step unchanged
SOLVED_AT_START = """
[domain]
a = 0
b = 1
n = 32

[operator]
L = 0, 0, 1
N = 0
s = 0

[bcs]
bc = left, 0, 0
bc = right, 0, 0

[ham]
hbar = 1
"""


class TestConditionEstimate:
    @pytest.mark.parametrize("case_id", case_ids())
    def test_matches_exact_condition_along_the_path(self, case_id, monkeypatch):
        # criterion 3's traces; the estimate belongs to the last jacobian
        # factored at the step's eps, at the iterate it was factored at
        # (docs/calibration.md)
        ws = Workspace(get_case(case_id).spec, HamConfig(hbar=1.0))
        factored = record_factored_iterates(monkeypatch)
        path = trace_workspace(ws, initial_steps=16)
        assert path.steps[0].jac_condition == ws.lopt.condition
        for step in path.steps[1:]:
            exact = np.linalg.cond(homotopy_jacobian(ws, step.eps, factored[step.eps]), 1)
            assert step.jac_condition == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize("below_the_limit", [True, False])
    def test_one_jacobian_and_one_factorization_per_eps_and_per_failed_chord(
        self, below_the_limit, count_calls, monkeypatch
    ):
        # N depends on u, and kappa_1(L_opt) is 3.5e9. Below the chord limit
        # an eps factors the jacobian for its first update, and a later
        # update builds and factors its own only after its chord step failed;
        # above it (the limit lowered to 1e7), every update does
        if not below_the_limit:
            monkeypatch.setattr(continuation, "CHORD_COND_LIMIT", 1e7)
        ws = Workspace(MANUFACTURED.spec.with_grid_n(128), HamConfig(hbar=1.0))
        factorizations = count_calls("hamsolve.grids", "LU.__init__")
        jacobians = count_calls("hamsolve.continuation", "_Corrector.jacobian")
        attempts = count_calls("hamsolve.continuation", "_Corrector.newton")
        chords = record_calls(monkeypatch, continuation._Corrector, "chord")
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        assert len(path.steps) == 17  # no step failed, so every update counts
        updates = sum(step.newton_iters for step in path.steps)  # the endpoint's included
        assert updates > len(path.steps) - 1
        assert len(jacobians) == len(factorizations)
        if not below_the_limit:
            assert chords == []
            assert len(factorizations) == updates
            return
        failed = sum(chord is None for chord in chords)
        assert len(chords) > failed > 0
        # every update after an eps's first one tries a chord step first
        assert updates == len(attempts) + len(chords) + 1
        assert len(factorizations) == len(attempts) + failed + 1

    def test_one_factorization_per_eps_when_n_does_not_depend_on_u(self, count_calls):
        # linear-poisson's jacobian is the same at every iterate of one eps;
        # at hbar = 0.5 it is not L_opt's own (c = 1 - eps / 2), and at
        # n = 192 Newton takes two updates at some eps even from the
        # predicted start. The endpoint update solves with the LU Newton
        # factored at eps = 1, so it adds none.
        ws = Workspace(LINEAR.spec.with_grid_n(192), HamConfig(hbar=0.5))
        attempts = count_calls("hamsolve.continuation", "_Corrector.newton")
        factorizations = count_calls("hamsolve.grids", "LU.__init__")
        jacobians = count_calls("hamsolve.continuation", "_Corrector.jacobian")
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        assert any(step.newton_iters > 1 for step in path.steps[1:-1])
        assert len(factorizations) == len(attempts)
        assert len(jacobians) == len(attempts)

    @pytest.mark.parametrize("n", [32, 64, 128])
    def test_endpoint_update_reuses_the_eps_one_lu(self, n, count_calls, monkeypatch):
        # N reads no u, the core is L and H = 1, so at hbar = 1 every J is
        # L_opt's own matrix: the 16 steps and the endpoint update solve with
        # the workspace's LU and factor none. The final step keeps the
        # update at n 32 and 64; at n = 128 the updated point's |G| (2.26e-10)
        # misses the stop test (2.0e-10) at roundoff, so the step stays
        ws = Workspace(LINEAR.spec.with_grid_n(n), HamConfig(hbar=1.0))
        factorizations = count_calls("hamsolve.grids", "LU.__init__")
        polished = record_calls(monkeypatch, continuation._Corrector, "polish")
        path = trace_workspace(ws)
        assert [step.eps for step in path.steps] == [k / 16 for k in range(17)]
        assert len(polished) == 1
        assert path.final.newton_iters == (1 if n < 128 else 0)
        assert len(factorizations) == 0
        assert all(step.jac_condition == ws.lopt.condition for step in path.steps)

    def test_steps_accepted_without_update_factor_the_jacobian(self, count_calls):
        # at hbar = 0.5 every step factors the jacobian at its accepted
        # point; the endpoint update is the one update of the trace, and
        # N = 0 reads no u, so it solves with the LU of the last step. At
        # hbar = 1 every J is L_opt's own matrix: nothing is factored
        parsed = parse_problem_text(SOLVED_AT_START)
        for hbar, lus in ((0.5, 16), (1.0, 0)):
            ws = Workspace(parsed.problem, parsed.config.with_hbar(hbar))
            factorizations = count_calls("hamsolve.grids", "LU.__init__")
            path = trace_workspace(ws)
            assert path.final.eps == 1.0
            assert [step.newton_iters for step in path.steps] == [0] * 16 + [1]
            assert len(factorizations) == lus
            for step in path.steps:
                exact = np.linalg.cond(homotopy_jacobian(ws, step.eps, step.u), 1)
                assert np.isfinite(step.jac_condition)
                assert step.jac_condition == pytest.approx(exact, rel=1e-10)
                if hbar == 1.0:
                    assert step.jac_condition == ws.lopt.condition


# Newton written out, the reference for the bitwise tests below: the
# Fréchet matrix with np.diag, the jacobian from the plain formula at every
# iterate that factors one, and lu_factor / lu_solve with their default
# finiteness checks; only the condition estimate is the library's, on a
# fresh grids.LU. Where J is L_opt's own matrix (``plain_folds``) it is
# factored from ``ws.lopt.matrix`` and its condition is ``ws.lopt.condition``.
# Where N reads u and kappa_1(L_opt) is at most CHORD_COND_LIMIT
# (``plain_chords``), each update after an eps's first one is the chord
# step with the eps's last LU when that cuts |G|_inf to CHORD_THETA of its
# value; elsewhere every update is Newton's own.
def plain_folds(ws, eps):
    """N reads no u, the core is L's own with H = 1, and c = 1 + eps (hbar - 1)
    is exactly 1, so J's interior rows c A_L and its BC rows are L_opt's."""
    return max_u_order(ws.problem.N) < 0 and ws._folds and (eps == 0.0 or ws.config.hbar == 1.0)


def plain_frechet(A_L, N, grid, u):
    A = np.array(A_L, dtype=float)
    upto = max_u_order(N)
    if upto < 0:
        return A
    partials = PartialsTape(N, grid.nodes)(grid.derivative_stack(u, upto))
    for k, pk in partials.items():
        A += np.diag(pk) if k == 0 else pk[:, None] * grid.diff_matrix(k)
    return A


def plain_jacobian(ws, eps, u):
    if plain_folds(ws, eps):
        return ws.lopt.matrix
    df = plain_frechet(ws.A_L, ws.problem.N, ws.grid, u)
    J = (1.0 - eps) * ws.lopt.matrix + (eps * ws.config.hbar) * (ws.H_vals[:, None] * df)
    J[ws.lopt.rows] = ws.lopt.matrix[ws.lopt.rows]
    return J


def plain_condition(ws, J):
    if J is ws.lopt.matrix:
        return ws.lopt.condition
    return LU(np.array(J, order="F")).condition()


def plain_converged(gnorm, u):
    return gnorm < continuation.NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))


def plain_chords(ws):
    return max_u_order(ws.problem.N) >= 0 and ws.lopt.condition <= continuation.CHORD_COND_LIMIT


def plain_newton(ws, eps, warm_start):
    """Newton's step at eps and the LU of the last jacobian it factored."""
    def accepted(u, iters, gnorm, J, lu):
        if lu is None:
            J = plain_jacobian(ws, eps, u)
            lu = lu_factor(J)
        return PathStep(eps, u, iters, plain_condition(ws, J), True, gnorm), lu

    u = warm_start.copy()
    g = homotopy_residual(ws, eps, u)
    gnorm = float(np.max(np.abs(g)))
    J = lu = None
    for it in range(NEWTON_MAX_ITERS):
        if plain_converged(gnorm, u):
            return accepted(u, it, gnorm, J, lu)
        if it > 0 and plain_chords(ws):
            delta = lu_solve(lu, -g)
            if np.all(np.isfinite(delta)):
                trial = u + delta
                g_trial = homotopy_residual(ws, eps, trial)
                t_norm = float(np.max(np.abs(g_trial)))
                if t_norm <= continuation.CHORD_THETA * gnorm:
                    u, g, gnorm = trial, g_trial, t_norm
                    continue
        J = plain_jacobian(ws, eps, u)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", LinAlgWarning)
                lu = lu_factor(J)
                delta = lu_solve(lu, -g)
        except ValueError as exc:
            raise SingularSystemError("not finite") from exc
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError("singular")
        scale = 1.0
        for _ in range(MAX_HALVINGS + 1):
            trial = u + scale * delta
            g_trial = homotopy_residual(ws, eps, trial)
            t_norm = float(np.max(np.abs(g_trial)))
            if t_norm < gnorm:
                u, g, gnorm = trial, g_trial, t_norm
                break
            scale *= 0.5
        else:
            return PathStep(eps, u, it + 1, math.nan, False, gnorm), lu
    if plain_converged(gnorm, u):
        return accepted(u, NEWTON_MAX_ITERS, gnorm, J, lu)
    return PathStep(eps, u, NEWTON_MAX_ITERS, math.nan, False, gnorm), lu


def plain_tangent(ws, u, lu):
    """J t = -dG/deps with dG/deps = -L_opt(u - u_0) + hbar H F(u) on
    interior rows and 0 on BC rows; None when t is not finite."""
    dg = -(ws.lopt.matrix @ (u - ws.u0)) + ws.config.hbar * (ws.H_vals * ws.operator_values(u))
    dg[ws.lopt.rows] = 0.0
    t = lu_solve(lu, -dg)
    return t if np.all(np.isfinite(t)) else None


def plain_endpoint_update(ws, step):
    """One full Newton update at eps = 1, kept when it passes the stop test."""
    J = plain_jacobian(ws, 1.0, step.u)
    lu = lu_factor(J)
    u = step.u + lu_solve(lu, -homotopy_residual(ws, 1.0, step.u))
    gnorm = float(np.max(np.abs(homotopy_residual(ws, 1.0, u))))
    if not plain_converged(gnorm, u):
        return step
    return PathStep(1.0, u, step.newton_iters + 1, plain_condition(ws, J), True, gnorm)


def plain_trace(ws, initial_steps=16):
    """The tracer written out: the step rule of ``trace_workspace``, each
    try started from the tangent prediction, plain_newton, plain_tangent
    and plain_endpoint_update; the partial path when it aborts."""
    u = ws.u0
    g0 = float(np.max(np.abs(homotopy_residual(ws, 0.0, u))))
    steps = [PathStep(0.0, u, 0, ws.lopt.condition, plain_converged(g0, u), g0)]
    t = plain_tangent(ws, u, lu_factor(plain_jacobian(ws, 0.0, u)))
    eps = 0.0
    deps = deps0 = 1.0 / initial_steps
    while eps < 1.0:
        target = min(eps + deps, 1.0)
        if 1.0 - target < 1e-12:
            target = 1.0
        start = u if t is None else u + (target - eps) * t
        try:
            step, lu = plain_newton(ws, target, start)
        except SingularSystemError:
            step = None
        if step is not None and step.converged:
            if target == 1.0:
                step = plain_endpoint_update(ws, step)
            else:
                t = plain_tangent(ws, step.u, lu)
            eps, u = target, step.u
            steps.append(step)
            deps = min(2.0 * deps, deps0)
        else:
            deps *= 0.5
            if deps < continuation.MIN_STEP:
                break
    return steps


def traced_steps(ws):
    """The accepted steps of a trace, the partial path if it aborts."""
    try:
        return trace_workspace(ws).steps
    except PathAbortError as exc:
        return exc.path.steps


def step_bits(step):
    return (
        step.eps,
        step.u.tobytes(),
        step.newton_iters,
        np.float64(step.jac_condition).tobytes(),
        step.converged,
        step.residual_inf,
    )


# u'' + u u' = s: N references u', so the jacobian carries a D_1 term
WITH_U_PRIME = """
[domain]
a = 0
b = 1
kind = {kind}
n = 32

[operator]
L = 0, 0, 1
N = 0.5*u*u'
s = 1 + r

[bcs]
bc = left, 0, 0.2
bc = right, 0, -0.3

[ham]
hbar = 1
H = 1 + 0.5*r
"""


# u'' + N(u, u') = s with exp, sin, tanh and sqrt in N
TRANSCENDENTAL = """
[domain]
a = 0
b = 1
n = 32

[operator]
L = 0, 0, 1
N = 0.3*exp(u) + 0.2*sin(u)*tanh(u') + 0.1*sqrt(2 + u^2)
s = 1 + r

[bcs]
bc = left, 0, 0.1
bc = right, 0, -0.2

[ham]
hbar = 1
"""


def _builtin(case_id, n):
    return Workspace(get_case(case_id).spec.with_grid_n(n), HamConfig(hbar=1.0))


def _from_text(text):
    parsed = parse_problem_text(text)
    return Workspace(parsed.problem, parsed.config)


# manufactured-quad at n = 128 fails 3 of its 19 chord steps
BITWISE_CASES = [(cid, n) for cid in case_ids() for n in (32, 64)] + [("linear-poisson", 192), ("manufactured-quad", 128)]


class TestNewtonBitwise:
    """The Newton rewrite (eps-only part formed once, no wrapper copies or
    finiteness scans, one LU per eps when N does not depend on u, L_opt's
    own LU where J is L_opt's matrix, chord steps below the limit, the
    tangent solved with the LU Newton holds) changes no bit of any iterate,
    path point or condition number against the tracer written out with
    lu_factor / lu_solve at the same iterates."""

    def _assert_same_trace(self, ws):
        got = traced_steps(ws)
        want = plain_trace(ws)
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert step_bits(a) == step_bits(b)

    @pytest.mark.parametrize("case_id,n", BITWISE_CASES)
    def test_builtin_traces(self, case_id, n):
        self._assert_same_trace(_builtin(case_id, n))

    @pytest.mark.parametrize("n", [192, 256])
    def test_traces_above_the_chord_limit_are_exact_newton(self, n, count_calls):
        # kappa_1(L_opt) is 2.7e10 at n = 192 and 1.1e11 at n = 256: every
        # update builds and factors its own jacobian, as before chord steps.
        # n = 256 aborts, and is compared up to its abort
        ws = _builtin("manufactured-quad", n)
        assert ws.lopt.condition > continuation.CHORD_COND_LIMIT
        chords = count_calls("hamsolve.continuation", "_Corrector.chord")
        self._assert_same_trace(ws)
        assert chords == []

    @pytest.mark.parametrize("kind", ["chebyshev-lobatto", "uniform-fd"])
    def test_nonconstant_weight_and_u_prime(self, kind):
        ws = _from_text(WITH_U_PRIME.format(kind=kind))
        assert np.any(ws.H_vals != 1.0)
        assert max_u_order(ws.problem.N) == 1
        self._assert_same_trace(ws)

    def test_transcendental_nonlinearity(self):
        # a trace lowers N's partials tape once and refills it at every
        # iterate; exp, sin, tanh and sqrt nodes keep rows of their own
        ws = _from_text(TRANSCENDENTAL)
        self._assert_same_trace(ws)

    @pytest.mark.parametrize(
        "make_ws, folds",
        [
            (lambda: _builtin("linear-poisson", 32), True),
            # N reads no u, so the frechet-at-u0 core is L's own matrix
            (lambda: Workspace(LINEAR.spec.with_grid_n(32), HamConfig(hbar=1.0, lopt_mode="frechet-at-u0")), True),
            (lambda: _builtin("manufactured-quad", 32), False),
            (lambda: Workspace(exp_problem(), HamConfig(hbar=1.0, lopt_mode="frechet-at-u0")), False),
            (lambda: Workspace(LINEAR.spec.with_grid_n(32), HamConfig(hbar=1.0, H=parse_expr("1 + 0.5*r"))), False),
            (lambda: Workspace(LINEAR.spec.with_grid_n(32), HamConfig(hbar=1.0, lopt_mode=USER_CORE)), False),
            (lambda: Workspace(LINEAR.spec.with_grid_n(32), HamConfig(hbar=0.5)), False),
        ],
        ids=["linear", "linear-frechet-at-u0", "n-reads-u", "exp-frechet-at-u0", "non-unit-H", "user-core", "hbar-0.5"],
    )
    def test_jacobian_is_lopt_only_where_it_folds(self, make_ws, folds, count_calls):
        # a trace that folds builds no jacobian and factors nothing; any
        # other builds and factors its own, and both match the reference
        ws = make_ws()
        jacobians = count_calls("hamsolve.continuation", "_Corrector.jacobian")
        factorizations = count_calls("hamsolve.grids", "LU.__init__")
        traced_steps(ws)
        assert (len(jacobians) == 0) == (len(factorizations) == 0) == folds
        self._assert_same_trace(ws)

    @pytest.mark.parametrize("case_id", ["manufactured-quad", "riccati-tanh-short"])
    def test_frechet_at_u0_lopt_matrix(self, case_id):
        spec = get_case(case_id).spec
        ws = Workspace(spec, HamConfig(lopt_mode="frechet-at-u0"))
        grid = ws.grid
        bootstrap = Workspace(spec, HamConfig(lopt_mode="use-L")).u0
        want = plain_frechet(ws.A_L, spec.N, grid, bootstrap)
        for i, bc in zip(ws.lopt.rows, ws.lopt.bcs):
            want[i] = bc_row(grid, bc)
        assert ws.lopt.matrix.tobytes() == want.tobytes()


# u'' + exp(u) = 0 with u = 800 at both ends: exp overflows at u_0 itself
OVERFLOWING = """
[domain]
a = 0
b = 1
n = 16

[operator]
L = 0, 0, 1
N = exp(u)

[bcs]
bc = left, 0, 800
bc = right, 0, 800

[ham]
hbar = 1
"""


class TestTypedFailures:
    """Newton's factorization and solves skip the finiteness scans; a
    non-finite or exactly singular jacobian must still raise
    SingularSystemError rather than return NaN, and a trace must count it
    as a failed step."""

    def test_overflowing_jacobian_raises(self):
        ws = _from_text(OVERFLOWING)
        assert not np.all(np.isfinite(homotopy_jacobian(ws, 0.5, ws.u0)))
        with pytest.raises(SingularSystemError):
            newton_at(ws, 0.5, ws.u0)

    def test_overflow_counts_as_failed_steps(self):
        ws = _from_text(OVERFLOWING)
        with pytest.raises(PathAbortError) as info:
            trace_workspace(ws)
        assert [step.eps for step in info.value.path.steps] == [0.0]

    def test_start_of_an_overflowing_trace_is_finite(self):
        # G(0, u) = L_opt(u - u_0) reads no F, so exp(800) never enters it
        ws = _from_text(OVERFLOWING)
        with np.errstate(over="raise", invalid="raise"):
            g = homotopy_residual(ws, 0.0, ws.u0)
        assert np.all(np.isfinite(g))
        with pytest.raises(PathAbortError) as info:
            trace_workspace(ws)
        (start,) = info.value.path.steps
        assert start.converged
        assert start.residual_inf == float(np.max(np.abs(g))) < 1e-10

    def test_exactly_singular_jacobian_raises(self):
        # use-L at hbar = -1: the interior rows of J are (1 - 2 eps) L, all
        # exactly zero at eps = 1/2, while G = s/2 there is not
        ws = Workspace(LINEAR.spec, HamConfig(hbar=-1.0))
        J = homotopy_jacobian(ws, 0.5, ws.u0)
        assert not np.any(J[ws.lopt.interior])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularSystemError):
                newton_at(ws, 0.5, ws.u0)

    def test_endpoint_polish_keeps_the_step_when_its_update_is_not_finite(self):
        # exp(800) overflows in G and in the jacobian at u_0 alike
        ws = _from_text(OVERFLOWING)
        corrector = continuation._Corrector(ws)
        with pytest.raises(SingularSystemError):
            corrector.update(1.0, ws.u0, homotopy_residual(ws, 1.0, ws.u0))
        step = PathStep(1.0, ws.u0, 3, 1.0, True, 0.0)
        assert corrector.polish(step, continuation._parts(ws, ws.u0)) is step

    def test_a_chord_step_that_is_not_finite_fails(self, count_calls):
        # without evaluating G at the non-finite point; the fresh update
        # that follows reports a singular jacobian itself
        ws = _builtin("manufactured-quad", 32)
        g = homotopy_residual(ws, 0.5, ws.u0)
        g[3] = math.inf
        evaluations = count_calls("hamsolve.engine", "Workspace.operator_values")
        assert continuation._Corrector(ws).chord(0.5, ws.u0, g, math.inf, True) is None
        assert evaluations == []

    def test_singular_eps_counts_as_a_failed_step(self, count_calls):
        attempts = count_calls("hamsolve.continuation", "_Corrector.newton")
        ws = Workspace(LINEAR.spec, HamConfig(hbar=-1.0))
        steps = traced_steps(ws)
        eps = [step.eps for step in steps]
        assert 0.5 not in eps
        assert eps[-1] > 0.5
        assert len(attempts) > len(steps) - 1
        assert all(np.all(np.isfinite(step.u)) for step in steps)
