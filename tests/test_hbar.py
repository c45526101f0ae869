"""Residual-vs-hbar scans and the bracketed minimizer.

The linear benchmark gives closed-form anchors: one series order obeys
u_{m+1} = (1 + hbar) u_m, so the residual floor sits at hbar = -1 and the
curve rises geometrically away from it. The nonlinear short-domain case
pins the frozen optimum found during calibration (docs/calibration.md).
"""

import math
import re

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
    Workspace,
    get_case,
    optimal_hbar,
    optimal_workspace,
    parse_expr,
    scan_hbar,
    scan_workspace,
)

from hamsolve import hbar

from conftest import exp_problem

LINEAR = get_case("linear-poisson").spec
TANH_SHORT = get_case("riccati-tanh-short").spec
TANH_LONG = get_case("riccati-tanh-long").spec
EXP = exp_problem()


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

    @pytest.mark.parametrize("bracket", [(-math.inf, -1.0), (-2.0, math.nan), (-1.0, math.inf)])
    def test_non_finite_bracket_rejected(self, bracket):
        with pytest.raises(ConfigError, match=re.escape(str(bracket))):
            optimal_hbar(LINEAR, HamConfig(order=2), bracket)

    @pytest.mark.parametrize("bracket", [("x", 1.0), (-1.0, None)])
    def test_bracket_ends_are_real_arguments(self, bracket):
        with pytest.raises(ConfigError, match="hbar bracket"):
            hbar.split_bracket(*bracket)

    def test_numeric_bracket_ends_pass(self):
        assert hbar.split_bracket("-1.5", np.float64(-0.5)) == [(-1.5, -0.5)]

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
# the batched passes of each search and whether it marches an interpolant:
# the tanh searches keep the model; exp M = 20 fails the model's guard and
# ranks an interpolant after one real pass; tanh-long M = 80 would need more
# interpolant columns than the real passes it replaces, and exp M = 40 has
# pass 1's best residual at its roundoff floor, so both zoom over real
# columns (docs/calibration.md, "Model search")
SEARCH_PATHS = [s + path for s, path in zip(SEARCHES, [(0, False)] * 3 + [(1, True)])] + [
    (TANH_LONG, 80, (-2.0, -0.01), 5, False),
    (EXP, 40, (-2.0, -0.01), 5, False),
]
PATH_IDS = SEARCH_IDS + ["tanh-long-M80", "exp-M40"]


def nonzero_bc_problem(n):
    """u'' + u^2 = 2 + (1 + r^2)^2 with u(0) = 1, u(1) = 2: exact 1 + r^2."""
    return ProblemSpec(
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


def zoom_only(ws, bracket, monkeypatch):
    """``optimal_workspace`` with neither the model nor the interpolant ever
    trusted: every side zooms over real columns."""
    with monkeypatch.context() as patch:
        patch.setattr(hbar._Columns, "__call__", lambda self, points: None)
        return optimal_workspace(ws, bracket)


def march_widths(monkeypatch) -> list:
    """A list that grows by the number of columns of each ``Workspace._march``."""
    widths = []
    march = Workspace._march

    def counting(self, hbars, *args, **kwargs):
        widths.append(len(hbars))
        return march(self, hbars, *args, **kwargs)

    monkeypatch.setattr(Workspace, "_march", counting)
    return widths


class TestZoomSearch:
    @pytest.mark.parametrize("problem, order, bracket", SEARCHES, ids=SEARCH_IDS)
    def test_residual_star_is_the_single_run_residual(self, problem, order, bracket):
        # a batched column's residual differs from a single run's in the
        # last digits; the reported one is what run_ham gives at hbar_star
        config = HamConfig(order=order)
        opt = optimal_hbar(problem, config, bracket)
        again = Workspace(problem, config).run(hbar=opt.hbar_star)
        assert opt.residual_star == again.residual_history[-1]

    @pytest.mark.parametrize(
        "problem, order, bracket, passes, interpolant", SEARCH_PATHS, ids=PATH_IDS
    )
    def test_passes_by_path_and_one_run(self, problem, order, bracket, passes, interpolant, count_calls, monkeypatch):
        # every search marches v once and hbar_star once, as a one-column
        # run_many; in between come its batched passes and at most one
        # interpolant march
        batched = count_calls("hamsolve.engine", "Workspace.run_many")
        runs = count_calls("hamsolve.engine", "Workspace.run")
        widths = march_widths(monkeypatch)
        optimal_hbar(problem, HamConfig(order=order), bracket)
        assert len(batched) == passes + 1
        assert len(runs) == 0
        between = [hbar.PASS_POINTS] * passes + ([order + 1] if interpolant else [])
        assert widths == [1] + between + [1]

    @given(
        lo=st.floats(-4.0, 4.0),
        exponent=st.floats(-6.0, math.log10(4.0)),
        as_numpy=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_pass_points_are_linspace_bitwise(self, lo, exponent, as_numpy):
        # brackets from 4 wide down to below the last zoom pass's
        # (BRACKET_TOL / (PASS_POINTS - 1)), with float or numpy-float ends
        # as the first pass and the later passes have them
        hi = lo + 10.0**exponent
        if as_numpy:
            lo, hi = np.float64(lo), np.float64(hi)
        points = hbar._pass_points(lo, hi)
        assert points.tobytes() == np.linspace(lo, hi, hbar.PASS_POINTS).tobytes()

    def test_straddling_bracket_passes_per_side(self, count_calls):
        # each side's passes, then hbar_star's one-column run_many
        batched = count_calls("hamsolve.engine", "Workspace.run_many")
        runs = count_calls("hamsolve.engine", "Workspace.run")
        optimal_hbar(LINEAR, HamConfig(order=2), (-1.4, 0.6))
        assert 2 + 1 <= len(batched) <= 2 * 5 + 1
        assert len(runs) == 0


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


class TestModelSearch:
    """The search ranks model columns, U_M(hbar) = sum_k C(M, k) hbar^k
    v_k, and falls back to real columns on a side where a column's
    residual is not above its roundoff floor; after the fallback's first
    pass it ranks interpolant columns under the same kind of guard."""

    @pytest.mark.parametrize("problem, order, bracket", SEARCHES, ids=SEARCH_IDS)
    def test_no_worse_than_the_real_column_zoom(self, problem, order, bracket, monkeypatch):
        ws = Workspace(problem, HamConfig(order=order))
        zoom = zoom_only(ws, bracket, monkeypatch)
        assert optimal_workspace(ws, bracket).residual_star <= zoom.residual_star

    @pytest.mark.parametrize(
        "problem, config, bracket",
        [(problem, HamConfig(order=order), bracket) for problem, order, bracket in SEARCHES]
        + [
            (TANH_LONG, HamConfig(order=15), (-1.0, 1.0)),
            (TANH_LONG, HamConfig(order=60), (-2.0, -0.01)),
            (TANH_LONG, HamConfig(order=80), (-2.0, -0.01)),
            (EXP, HamConfig(order=20, lopt_mode="frechet-at-u0"), (-2.0, -0.01)),
            (EXP, HamConfig(order=20, H=parse_expr("1 + r")), (-2.0, -0.01)),
            (nonzero_bc_problem(64), HamConfig(order=20), (-1.5, -0.05)),
        ],
        ids=SEARCH_IDS
        + [
            "tanh-long-M15-straddling",
            "tanh-long-M60",
            "tanh-long-M80",
            "exp-M20-frechet",
            "exp-M20-weighted",
            "nonzero-bc-n64",
        ],
    )
    def test_same_point_as_the_real_column_zoom(self, problem, config, bracket, monkeypatch):
        # measured: every pass of the model or the interpolant picks the
        # zoom's column, so the searches land on the same hbar bitwise
        # (docs/calibration.md)
        ws = Workspace(problem, config)
        assert optimal_workspace(ws, bracket) == zoom_only(ws, bracket, monkeypatch)

    def test_one_perturbation_series_per_search(self, count_calls):
        series = count_calls("hamsolve.engine", "Workspace.perturbation_series")
        optimal_hbar(TANH_LONG, HamConfig(order=15), (-1.0, 1.0))
        assert len(series) == 1

    @pytest.mark.parametrize(
        "problem, config, bracket",
        [
            (TANH_SHORT, HamConfig(H=parse_expr("1e300")), (-2.0, -0.5)),
            (TANH_LONG, HamConfig(order=60), (-400.0, -300.0)),
        ],
        ids=["overflowing-weight", "far-bracket"],
    )
    def test_no_finite_residual_raises(self, problem, config, bracket):
        # every column overflows; the search names the bracket rather than
        # report a residual_star of nan or inf
        with pytest.raises(ConfigError, match=re.escape(str(bracket))):
            optimal_hbar(problem, config, bracket)


class TestInterpolant:
    """U_M(hbar) is a polynomial of degree M in hbar, so the barycentric
    interpolant through the partial sums at M + 1 Chebyshev-Lobatto points
    is U_M itself, up to roundoff."""

    # measured maximum 1.9e3 (docs/calibration.md, "Model search")
    IDENTITY_C = 2e4

    @pytest.mark.parametrize(
        "config, bracket",
        [
            (HamConfig(order=20), (-1.53, -1.28)),
            (HamConfig(order=20, lopt_mode="frechet-at-u0"), (-1.39, -1.14)),
            (HamConfig(order=20, H=parse_expr("1 + r")), (-0.93, -0.68)),
        ],
        ids=["use-L", "frechet-at-u0", "weighted"],
    )
    def test_matches_the_real_columns(self, config, bracket):
        ws = Workspace(EXP, config)
        interpolant = hbar._interpolant(ws, *bracket, eps_norm=1.0)
        rng = np.random.default_rng(7)
        points = np.concatenate([bracket, np.sort(rng.uniform(*bracket, 15))])
        columns, terms = interpolant.columns(points)
        real = ws.run_many(points).partial_sums
        error = np.max(np.abs(columns - real), axis=0)
        assert np.all(error <= self.IDENTITY_C * hbar.EPS * terms)
