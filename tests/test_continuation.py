"""Embedded-family residual, jacobian, Newton correction, path tracing.

Anchors that need no reference solver: at eps = 0 the zeroth-order
function is already a root; at eps = 1 the interior rows reduce to
hbar H F(u); the map is affine in eps, so values at interior eps are the
convex combination of the endpoint values. The linear benchmark gives the
whole path in closed form: u(eps) = eps * u(1).
"""

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve

import hamsolve.continuation as continuation
from hamsolve import (
    ConfigError,
    ContinuationPath,
    HamConfig,
    PathAbortError,
    PathStep,
    SingularSystemError,
    Workspace,
    bc_row,
    case_ids,
    error_vs_exact,
    frechet_at_reference,
    get_case,
    homotopy_jacobian,
    homotopy_residual,
    newton_at,
    parse_problem_text,
    trace_path,
    trace_workspace,
)
from hamsolve.continuation import MAX_HALVINGS, NEWTON_MAX_ITERS, NewtonResult
from hamsolve.expressions import max_u_order
from hamsolve.grids import factor_with_condition, lu_condition
from hamsolve.jets import expr_partials

LINEAR = get_case("linear-poisson")
TANH_SHORT = get_case("riccati-tanh-short")
MANUFACTURED = get_case("manufactured-quad")


def smooth_field(grid):
    # an arbitrary BC-violating test function, any smooth values will do
    return np.sin(2.0 * np.pi * grid.nodes) + 0.3 * grid.nodes**2 + 0.1


class TestResidual:
    @pytest.mark.parametrize("eps", [-0.1, 1.1, 2.0])
    def test_eps_range_checked(self, eps):
        ws = Workspace(LINEAR.spec, HamConfig())
        with pytest.raises(ConfigError):
            homotopy_residual(ws, eps, ws.u0)
        with pytest.raises(ConfigError):
            homotopy_jacobian(ws, eps, ws.u0)
        with pytest.raises(ConfigError):
            newton_at(ws, eps, ws.u0)

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
        df = frechet_at_reference(ws.A_L, ws.problem.N, ws.grid, u)
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
        assert result.iters == 0
        np.testing.assert_array_equal(result.u, ws.u0)

    def test_linear_family_converges_in_one_step(self):
        config = HamConfig(hbar=1.0)
        ws = Workspace(LINEAR.spec, config)
        result = newton_at(ws, 0.7, np.zeros(ws.grid.n))
        assert result.converged
        assert result.iters <= 2
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


class TestTracePath:
    def test_assembles_the_linear_operator_once(self, count_calls):
        # counts, not timings: every Newton jacobian reuses the workspace's
        # assembled L instead of assembling its own
        calls = count_calls("hamsolve.grids", "assemble_linear")
        path = trace_path(LINEAR.spec.with_grid_n(64), HamConfig(hbar=1.0))
        assert path.final.eps == 1.0
        assert len(calls) == 1

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
    def test_matches_exact_condition_along_the_path(self, case_id):
        # criterion 3's traces; the estimate belongs to the jacobian one
        # update before the accepted point (docs/calibration.md)
        ws = Workspace(get_case(case_id).spec, HamConfig(hbar=1.0))
        path = trace_workspace(ws, initial_steps=16)
        assert path.steps[0].jac_condition == ws.lopt.condition
        for step in path.steps:
            exact = np.linalg.cond(homotopy_jacobian(ws, step.eps, step.u), 1)
            assert step.jac_condition == pytest.approx(exact, rel=1e-5)

    def test_one_jacobian_and_one_factorization_per_newton_update(self, count_calls):
        # N depends on u, so every update builds and factors its own jacobian
        ws = Workspace(MANUFACTURED.spec.with_grid_n(64), HamConfig(hbar=1.0))
        factorizations = count_calls("hamsolve.continuation", "lu_factor")
        jacobians = count_calls("hamsolve.continuation", "_jacobian")
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        assert len(path.steps) == 17  # no step failed, so every update counts
        updates = sum(step.newton_iters for step in path.steps)
        assert updates > len(path.steps) - 1
        assert len(factorizations) == updates
        assert len(jacobians) == updates

    def test_one_factorization_per_eps_when_n_does_not_depend_on_u(self, count_calls):
        # linear-poisson's jacobian is the same at every iterate of one eps;
        # at n = 192 Newton takes more than one update per step
        ws = Workspace(LINEAR.spec.with_grid_n(192), HamConfig(hbar=1.0))
        attempts = count_calls("hamsolve.continuation", "_newton")
        factorizations = count_calls("hamsolve.continuation", "lu_factor")
        jacobians = count_calls("hamsolve.continuation", "_jacobian")
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        updates = sum(step.newton_iters for step in path.steps)
        assert updates > len(path.steps) - 1
        assert all(step.newton_iters > 0 for step in path.steps[1:])
        assert len(factorizations) == len(attempts)
        assert len(jacobians) == len(attempts)

    def test_steps_accepted_without_update_factor_the_jacobian(self):
        parsed = parse_problem_text(SOLVED_AT_START)
        ws = Workspace(parsed.problem, parsed.config)
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        assert all(step.newton_iters == 0 for step in path.steps)
        for step in path.steps:
            exact = np.linalg.cond(homotopy_jacobian(ws, step.eps, step.u), 1)
            assert np.isfinite(step.jac_condition)
            assert step.jac_condition == pytest.approx(exact, rel=1e-10)


# Newton as first written, the reference for the bitwise tests below: the
# Fréchet matrix with np.diag, the jacobian from the plain formula at every
# iterate, and lu_factor / lu_solve with their default finiteness checks
def plain_frechet(A_L, N, grid, u):
    A = np.array(A_L, dtype=float)
    upto = max_u_order(N)
    if upto < 0:
        return A
    partials = expr_partials(N, grid.nodes, grid.derivative_stack(u, upto))
    for k, pk in partials.items():
        A += np.diag(pk) if k == 0 else pk[:, None] * grid.diff_matrix(k)
    return A


def plain_jacobian(ws, eps, u):
    df = plain_frechet(ws.A_L, ws.problem.N, ws.grid, u)
    J = (1.0 - eps) * ws.lopt.matrix + (eps * ws.config.hbar) * (ws.H_vals[:, None] * df)
    J[ws.lopt.rows] = ws.lopt.matrix[ws.lopt.rows]
    return J


def plain_newton(ws, eps, warm_start):
    def accepted(u, iters, gnorm, J, lu):
        if lu is None:
            _, condition = factor_with_condition(plain_jacobian(ws, eps, u))
        else:
            condition = lu_condition(lu, J)
        return NewtonResult(u, iters, True, gnorm, condition)

    def converged(gnorm, u):
        return gnorm < continuation.NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))

    u = warm_start.copy()
    g = homotopy_residual(ws, eps, u)
    gnorm = float(np.max(np.abs(g)))
    J = lu = None
    for it in range(NEWTON_MAX_ITERS):
        if converged(gnorm, u):
            return accepted(u, it, gnorm, J, lu)
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
            return NewtonResult(u, it + 1, False, gnorm, math.nan)
    if converged(gnorm, u):
        return accepted(u, NEWTON_MAX_ITERS, gnorm, J, lu)
    return NewtonResult(u, NEWTON_MAX_ITERS, False, gnorm, math.nan)


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


def _builtin(case_id, n):
    return Workspace(get_case(case_id).spec.with_grid_n(n), HamConfig(hbar=1.0))


def _from_text(text):
    parsed = parse_problem_text(text)
    return Workspace(parsed.problem, parsed.config)


BITWISE_CASES = [(cid, n) for cid in case_ids() for n in (32, 64)] + [("linear-poisson", 192)]


class TestNewtonBitwise:
    """The Newton rewrite (eps-only part formed once, no wrapper copies or
    finiteness scans, one LU per eps when N does not depend on u) changes
    no bit of any iterate, path point or condition number."""

    def _assert_same_trace(self, ws, monkeypatch):
        got = traced_steps(ws)
        with monkeypatch.context() as patch:
            patch.setattr(
                continuation, "_newton", lambda ws, eps, u, arrays: plain_newton(ws, eps, u)
            )
            want = traced_steps(ws)
        assert len(got) == len(want) > 1
        for a, b in zip(got, want):
            assert step_bits(a) == step_bits(b)

    @pytest.mark.parametrize("case_id,n", BITWISE_CASES)
    def test_builtin_traces(self, case_id, n, monkeypatch):
        self._assert_same_trace(_builtin(case_id, n), monkeypatch)

    @pytest.mark.parametrize("kind", ["chebyshev-lobatto", "uniform-fd"])
    def test_nonconstant_weight_and_u_prime(self, kind, monkeypatch):
        ws = _from_text(WITH_U_PRIME.format(kind=kind))
        assert np.any(ws.H_vals != 1.0)
        assert max_u_order(ws.problem.N) == 1
        self._assert_same_trace(ws, monkeypatch)

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
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.all(np.isfinite(homotopy_jacobian(ws, 0.5, ws.u0)))
            with pytest.raises(SingularSystemError):
                newton_at(ws, 0.5, ws.u0)

    def test_overflow_counts_as_failed_steps(self):
        ws = _from_text(OVERFLOWING)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PathAbortError) as info:
                trace_workspace(ws)
        assert [step.eps for step in info.value.path.steps] == [0.0]

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

    def test_singular_eps_counts_as_a_failed_step(self, count_calls):
        attempts = count_calls("hamsolve.continuation", "_newton")
        ws = Workspace(LINEAR.spec, HamConfig(hbar=-1.0))
        steps = traced_steps(ws)
        eps = [step.eps for step in steps]
        assert 0.5 not in eps
        assert eps[-1] > 0.5
        assert len(attempts) > len(steps) - 1
        assert all(np.all(np.isfinite(step.u)) for step in steps)
