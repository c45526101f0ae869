"""Residual-vs-hbar scans and the bracketed minimizer.

The linear benchmark gives closed-form anchors: one series order obeys
u_{m+1} = (1 + hbar) u_m, so the residual floor sits at hbar = -1 and the
curve rises geometrically away from it. The nonlinear short-domain case
pins the frozen optimum found during calibration (docs/calibration.md).
"""

import math

import numpy as np
import pytest

from hamsolve import (
    BoundaryCondition,
    ConfigError,
    HamConfig,
    LinearOperator,
    ProblemSpec,
    Workspace,
    get_case,
    optimal_hbar,
    optimal_workspace,
    parse_expr,
    scan_hbar,
    scan_workspace,
)

LINEAR = get_case("linear-poisson").spec
TANH_SHORT = get_case("riccati-tanh-short").spec
TANH_LONG = get_case("riccati-tanh-long").spec
# u'' + exp(u) = s with exact sin(pi r)
EXP = ProblemSpec(
    a=0.0,
    b=1.0,
    L=LinearOperator.from_strings(("0", "0", "1")),
    N=parse_expr("exp(u)"),
    s=parse_expr("-pi^2*sin(pi*r) + exp(sin(pi*r))"),
    bcs=(BoundaryCondition("left", 0, 0.0), BoundaryCondition("right", 0, 0.0)),
)


class TestScanValidation:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            scan_hbar(LINEAR, HamConfig(order=2), [])

    def test_zero_in_grid_rejected(self):
        with pytest.raises(ConfigError):
            scan_hbar(LINEAR, HamConfig(order=2), [-1.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_rejected(self, bad):
        with pytest.raises(ConfigError):
            scan_hbar(LINEAR, HamConfig(order=2), [-1.0, bad])

    def test_non_monotone_rejected(self):
        with pytest.raises(ConfigError):
            scan_hbar(LINEAR, HamConfig(order=2), [-1.0, -0.5, -0.7])

    def test_decreasing_grid_allowed(self):
        curve = scan_hbar(LINEAR, HamConfig(order=2), [-0.5, -1.0, -1.5])
        assert [e.hbar for e in curve.entries] == [-0.5, -1.0, -1.5]


class TestScanLinear:
    # grid of exactly representable floats with -1.0 as a member
    GRID = [-2.0, -1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25]

    def test_floor_at_minus_one(self):
        curve = scan_hbar(LINEAR, HamConfig(order=3), self.GRID)
        best = curve.best()
        assert best.hbar == -1.0
        assert best.residual < 1e-18
        for entry in curve.entries:
            if entry.hbar != -1.0:
                assert entry.residual > 1e-12

    def test_residual_symmetric_in_one_plus_hbar(self):
        # orders scale by (1 + hbar); the residual depends on |1 + hbar|
        curve = scan_hbar(LINEAR, HamConfig(order=4), [-1.5, -1.25, -0.75, -0.5])
        r = {e.hbar: e.residual for e in curve.entries}
        assert r[-1.5] == pytest.approx(r[-0.5], rel=1e-8)
        assert r[-1.25] == pytest.approx(r[-0.75], rel=1e-8)

    def test_probe_tracks_solution_midpoint(self):
        curve = scan_hbar(LINEAR, HamConfig(order=3), self.GRID)
        at_best = curve.best()
        # at hbar = -1 the partial sum is the exact solve: sin(pi/2) = 1
        assert at_best.probe == pytest.approx(1.0, abs=1e-9)

    def test_accessor_arrays_match_entries(self):
        curve = scan_hbar(LINEAR, HamConfig(order=2), [-1.2, -1.0, -0.8])
        np.testing.assert_array_equal(curve.hbars(), [-1.2, -1.0, -0.8])
        np.testing.assert_array_equal(
            curve.residuals(), [e.residual for e in curve.entries]
        )


class TestScanDeterminism:
    def test_repeat_scan_is_bitwise_identical(self):
        grid = list(np.linspace(-1.8, -0.2, 9))
        first = scan_hbar(TANH_SHORT, HamConfig(order=6), grid)
        second = scan_hbar(TANH_SHORT, HamConfig(order=6), grid)
        assert first.entries == second.entries


class TestScanDivergedRuns:
    def test_diverged_entries_keep_finite_residuals(self):
        curve = scan_hbar(
            TANH_LONG, HamConfig(order=15), [-1.5, -1.0, -0.5]
        )
        by_hbar = {e.hbar: e for e in curve.entries}
        assert by_hbar[-1.0].diverged
        assert not by_hbar[-0.5].diverged
        for entry in curve.entries:
            assert math.isfinite(entry.residual)
        # the wild fixed-parameter residual dwarfs the tame small-|hbar| one
        assert by_hbar[-1.0].residual > 1e6
        assert curve.best().hbar == -0.5


class TestOptimalHbar:
    def test_linear_recovers_minus_one(self):
        opt = optimal_hbar(LINEAR, HamConfig(order=3), (-2.0, -0.01))
        assert abs(opt.hbar_star + 1.0) < 1e-2
        assert opt.residual_star < 1e-12

    def test_short_tanh_beats_fixed_parameter(self):
        config = HamConfig(order=10)
        opt = optimal_hbar(TANH_SHORT, config, (-1.5, -0.5))
        ws = Workspace(TANH_SHORT, config)
        fixed = ws.run(hbar=-1.0).residual_history[-1]
        assert -1.5 <= opt.hbar_star <= -0.5
        assert opt.residual_star <= fixed
        # frozen calibration values (deterministic search)
        assert opt.hbar_star == pytest.approx(-0.873790, abs=2e-3)
        assert opt.residual_star == pytest.approx(7.466118e-7, rel=1e-2)

    def test_result_is_a_probed_point(self):
        # never report a residual below what the sweep itself saw
        config = HamConfig(order=6)
        opt = optimal_hbar(TANH_SHORT, config, (-1.2, -0.6))
        sweep = scan_hbar(
            TANH_SHORT, config, list(np.linspace(-1.2, -0.6, 13))
        )
        assert opt.residual_star <= sweep.best().residual * (1 + 1e-12)

    def test_empty_bracket_rejected(self):
        with pytest.raises(ConfigError):
            optimal_hbar(LINEAR, HamConfig(order=2), (-0.5, -0.5))
        with pytest.raises(ConfigError):
            optimal_hbar(LINEAR, HamConfig(order=2), (-0.5, -1.5))

    def test_bracket_pinched_around_zero_rejected(self):
        with pytest.raises(ConfigError):
            optimal_hbar(LINEAR, HamConfig(order=2), (-5e-4, 5e-4))

    def test_straddling_bracket_searches_both_sides(self):
        opt = optimal_hbar(LINEAR, HamConfig(order=2), (-1.4, 0.6))
        # the floor lives on the negative side
        assert abs(opt.hbar_star + 1.0) < 1e-2
        assert opt.residual_star < 1e-10


SEARCHES = [
    (TANH_LONG, 15, (-2.0, -0.01)),
    (TANH_LONG, 40, (-2.0, -0.01)),
    (TANH_SHORT, 10, (-1.5, -0.5)),
    (EXP, 20, (-2.0, -0.01)),
]
SEARCH_IDS = ["tanh-long-M15", "tanh-long-M40", "tanh-short-M10", "exp-M20"]


class TestZoomSearch:
    @pytest.mark.parametrize("problem, order, bracket", SEARCHES, ids=SEARCH_IDS)
    def test_residual_star_is_the_single_run_residual(self, problem, order, bracket):
        # a batched column's residual differs from a single run's in the
        # last digits; the reported one is what run_ham gives at hbar_star
        config = HamConfig(order=order)
        opt = optimal_hbar(problem, config, bracket)
        again = Workspace(problem, config).run(hbar=opt.hbar_star)
        assert opt.residual_star == again.residual_history[-1]

    @pytest.mark.parametrize("problem, order, bracket", SEARCHES, ids=SEARCH_IDS)
    def test_five_batched_passes_and_one_run(self, problem, order, bracket, count_calls):
        passes = count_calls("hamsolve.engine", "Workspace.run_many")
        runs = count_calls("hamsolve.engine", "Workspace.run")
        optimal_hbar(problem, HamConfig(order=order), bracket)
        assert 1 <= len(passes) <= 5
        assert len(runs) == 1

    def test_straddling_bracket_passes_per_side(self, count_calls):
        passes = count_calls("hamsolve.engine", "Workspace.run_many")
        runs = count_calls("hamsolve.engine", "Workspace.run")
        optimal_hbar(LINEAR, HamConfig(order=2), (-1.4, 0.6))
        assert 2 <= len(passes) <= 2 * 5
        assert len(runs) == 1


class TestWorkspaceEntryPoints:
    def test_scan_workspace_is_scan_hbar(self):
        grid = list(np.linspace(-1.8, -0.2, 9))
        ws = Workspace(TANH_SHORT, HamConfig(order=6))
        assert scan_workspace(ws, grid) == scan_hbar(TANH_SHORT, HamConfig(order=6), grid)

    @pytest.mark.parametrize("points, passes", [(17, 1), (18, 2), (40, 3)])
    def test_scan_runs_passes_of_at_most_seventeen(self, points, passes, count_calls):
        calls = count_calls("hamsolve.engine", "Workspace.run_many")
        curve = scan_hbar(LINEAR, HamConfig(order=2), np.linspace(-2.0, -0.1, points))
        assert len(curve.entries) == points
        assert len(calls) == passes

    def test_optimal_workspace_is_optimal_hbar(self):
        ws = Workspace(TANH_SHORT, HamConfig(order=6))
        want = optimal_hbar(TANH_SHORT, HamConfig(order=6), (-1.2, -0.6))
        assert optimal_workspace(ws, (-1.2, -0.6)) == want
