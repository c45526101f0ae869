"""Embedded-family residual, jacobian, Newton correction, path tracing.

Anchors that need no reference solver: at eps = 0 the zeroth-order
function is already a root; at eps = 1 the interior rows reduce to
hbar H F(u); the map is affine in eps, so values at interior eps are the
convex combination of the endpoint values. The linear benchmark gives the
whole path in closed form: u(eps) = eps * u(1).
"""

import numpy as np
import pytest

from hamsolve import (
    ConfigError,
    ContinuationPath,
    HamConfig,
    PathAbortError,
    PathStep,
    Workspace,
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
        ws = Workspace(LINEAR.spec.with_grid_n(64), HamConfig(hbar=1.0))
        factorizations = count_calls("hamsolve.continuation", "lu_factor")
        jacobians = count_calls("hamsolve.continuation", "homotopy_jacobian")
        path = trace_workspace(ws)
        assert path.final.eps == 1.0
        updates = sum(step.newton_iters for step in path.steps)
        assert updates > 0
        assert len(factorizations) == updates
        assert len(jacobians) == updates

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
