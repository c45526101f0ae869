"""The fixed-parameter oracle and the engine-equivalence check.

The oracle's first few orders on the short Riccati case are computable by
hand (w1 = r, w2 = 0, w3 = -r^3/3), which checks the oracle itself before
it is trusted to judge the engine. A source scan keeps the oracle honest:
its recursion must not delegate to the engine's. A property test compares
engine and oracle on random polynomial problems, and another compares the
oracle's stepped tape with a whole-series re-expansion at every order.
"""

import inspect
import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hamsolve import (
    BoundaryCondition,
    ConfigError,
    Const,
    Coord,
    EquivalenceReport,
    HamConfig,
    LinearOperator,
    Power,
    Product,
    ProblemSpec,
    Sum,
    U,
    Workspace,
    case_ids,
    check_equivalence,
    equivalence_workspace,
    eval_expr,
    get_case,
    hpm_config,
    hpm_recursion,
    parse_expr,
    run_ham,
)
import hamsolve.hpm as hpm
from hamsolve.expressions import max_u_order
from hamsolve.grids import GRID_KINDS, BcSystem, assemble_linear
from hamsolve.hpm import REDUCED_HBAR, _reduced_orders
from hamsolve.jets import jet_expand

from conftest import exp_problem

TANH_SHORT = get_case("riccati-tanh-short").spec
# u'' + 0.5 u u' = 1 + r: N reads u', so the oracle's leaves hold D_1 w_j
U_U_PRIME = ProblemSpec(
    a=0.0,
    b=1.0,
    L=LinearOperator.from_strings(("0", "0", "1")),
    N=parse_expr("0.5*u*u'"),
    s=parse_expr("1 + r"),
    bcs=(BoundaryCondition("left", 0, 0.2), BoundaryCondition("right", 0, -0.3)),
)
ORACLE_PROBLEMS = {**{c: get_case(c).spec for c in case_ids()}, "exp": exp_problem(), "u u'": U_U_PRIME}


class TestReducedConfig:
    def test_fixed_choices(self):
        config = hpm_config(order=7)
        assert config.lopt_mode == "use-L"
        assert config.hbar == REDUCED_HBAR == -1.0
        assert isinstance(config.H, Const)
        assert float(eval_expr(config.H, np.array([0.3]))) == 1.0
        assert config.order == 7


class TestOracleRecursion:
    def test_order_bound(self):
        with pytest.raises(ConfigError):
            hpm_recursion(TANH_SHORT, order=0)

    def test_hand_computed_orders(self):
        series = hpm_recursion(TANH_SHORT, order=3)
        grid = TANH_SHORT.make_grid()
        r = grid.nodes
        w0, w1, w2, w3 = series.orders
        np.testing.assert_array_equal(w0, np.zeros(grid.n))
        np.testing.assert_allclose(w1, r, atol=1e-12)
        np.testing.assert_allclose(w2, 0.0, atol=1e-13)
        np.testing.assert_allclose(w3, -(r**3) / 3.0, atol=1e-11)

    def test_partial_sums_approach_exact(self):
        series = hpm_recursion(TANH_SHORT, order=12)
        grid = TANH_SHORT.make_grid()
        exact = np.tanh(grid.nodes)
        total = np.zeros(grid.n)
        errors = []
        for w in series.orders:
            total = total + w
            errors.append(float(np.max(np.abs(total - exact))))
        # tanh's singularity at i pi/2 makes this a slow series: the
        # error contracts by (2/pi)^2 per two orders, no faster
        assert errors[-1] < 1e-2
        assert errors[-1] < errors[2] < errors[0]

    def test_assembles_the_linear_operator_once(self, count_calls):
        # counts, not timings: the residual history reuses the recursion's
        # own assembled L instead of assembling it again per order
        calls = count_calls("hamsolve.grids", "assemble_linear")
        series = hpm_recursion(TANH_SHORT, order=10)
        assert len(series.residual_history) == 11
        assert len(calls) == 1

    @pytest.mark.parametrize("function", [hpm_recursion, _reduced_orders], ids=lambda f: f.__name__)
    def test_recursion_source_does_not_call_the_engine(self, function):
        source = inspect.getsource(function)
        forbidden_names = (
            "mth_order_rhs", "run_ham", "Workspace", ".run(",
            "_march", "run_many", "SeriesTape",
            "_problem_set_up", "_last_set_up",  # the engine's shared set-up
        )
        for forbidden in forbidden_names:
            assert forbidden not in source


class TestEquivalence:
    @pytest.mark.parametrize("case_id", case_ids())
    def test_builtin_cases_match_bitwise(self, case_id):
        report = check_equivalence(get_case(case_id).spec, order=10)
        assert report.passed
        # reference function is zero for every builtin, so the folded
        # engine arithmetic collapses to the oracle's exactly
        assert report.max_rel_diff == 0.0
        assert len(report.per_order_rel_diff) == 11
        assert report.per_order_rel_diff[0] == 0.0

    @pytest.mark.parametrize("order", [10, 15])
    @pytest.mark.parametrize("case_id", case_ids())
    def test_divergence_flags_agree(self, case_id, order):
        # tanh-long's even orders vanish at hbar = -1; the zero norms must
        # not reset the oracle's growth streak either
        spec = get_case(case_id).spec
        engine = run_ham(spec, hpm_config(order))
        assert hpm_recursion(spec, order).diverged == engine.diverged

    def test_nonzero_reference_function(self):
        # u = r solves u'' + u^2 = r^2 with u(0) = 0, u(1) = 1; the
        # zeroth order is nonzero so the two recursions take genuinely
        # different arithmetic paths and only agree to roundoff
        spec = ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("r^2"),
            bcs=(
                BoundaryCondition("left", 0, 0.0),
                BoundaryCondition("right", 0, 1.0),
            ),
        )
        report = check_equivalence(spec, order=8)
        assert report.passed
        assert report.max_rel_diff < 1e-10

    def test_mutated_hbar_is_caught(self):
        report = check_equivalence(TANH_SHORT, order=10, hbar=-1.01)
        assert not report.passed
        assert report.max_rel_diff > 1e-3
        # order zero is shared; the mismatch appears from order one on
        assert report.per_order_rel_diff[0] <= 1e-12
        assert all(d > 1e-4 for d in report.per_order_rel_diff[1:])

    def test_tolerance_validated(self):
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, tolerance=0.0)
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, tolerance=-1e-10)

    @pytest.mark.parametrize("tolerance", [float("inf"), float("nan"), "x", None])
    def test_tolerance_must_be_finite(self, tolerance):
        # an infinite tolerance passed even the mutation control
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, order=10, tolerance=tolerance, hbar=-3.0)

    def test_order_validated(self):
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, order=0)
        with pytest.raises(ConfigError):
            equivalence_workspace(Workspace(TANH_SHORT, hpm_config(0)))

    @pytest.mark.parametrize("order", ["x", 2.5, None])
    def test_recursion_order_is_an_integer_argument(self, order):
        # a string or None failed the order < 1 comparison with TypeError
        with pytest.raises(ConfigError):
            hpm_recursion(TANH_SHORT, order)

    @pytest.mark.parametrize("hbar", [0.0, float("nan"), float("inf")])
    def test_hbar_validated(self, hbar):
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, hbar=hbar)

    @pytest.mark.parametrize("name", ORACLE_PROBLEMS)
    def test_oracle_orders_are_hpm_recursions_bitwise(self, monkeypatch, name):
        # the check's oracle runs on the workspace's grid, L, core and
        # sampled s; hpm_recursion on its own. Both must give the same bits
        problem = ORACLE_PROBLEMS[name]
        seen = []

        def recording(*args):
            seen.append(_reduced_orders(*args))
            return seen[-1]

        monkeypatch.setattr(hpm, "_reduced_orders", recording)
        check_equivalence(problem, order=10)
        (got,) = seen
        want = hpm_recursion(problem, order=10).orders
        assert got.shape == (11, problem.n)
        for m, w in enumerate(want):
            assert got[m].tobytes() == w.tobytes()

    def test_check_samples_nothing_and_solves_only_order_zero(self, count_calls):
        # counts, not timings: the oracle reads the workspace's s, and
        # orders 1..M solve through the core's LU with their BC rows zeroed
        ws = Workspace(U_U_PRIME, hpm_config(10))
        samples = count_calls("hamsolve.grids", "Grid.sample")
        solves = count_calls("hamsolve.grids", "BcSystem.solve")
        assert equivalence_workspace(ws).passed
        assert (len(samples), len(solves)) == (0, 2)

    def test_recursion_samples_s_once(self, count_calls):
        # L's coefficients that are not the constant 0 when L is assembled
        # (u'' has one), then s once for the recursion and the residuals
        samples = count_calls("hamsolve.grids", "Grid.sample")
        hpm_recursion(U_U_PRIME, order=10)
        assert len(samples) == sum(c.folded != 0.0 for c in U_U_PRIME.L.coeffs) + 1

    def test_one_set_up_and_no_re_expansion(self, count_calls):
        # counts, not timings: the oracle runs on the workspace's grid, L
        # and factored core, and steps its own tape once per order
        grids = count_calls("hamsolve.grids", "build_grid")
        assemblies = count_calls("hamsolve.grids", "assemble_linear")
        systems = count_calls("hamsolve.grids", "BcSystem.__init__")
        expansions = count_calls("hamsolve.jets", "jet_expand")
        report = check_equivalence(get_case("manufactured-quad").spec, order=10)
        assert report.passed
        assert (len(grids), len(assemblies), len(systems), len(expansions)) == (1, 1, 1, 0)

    @pytest.mark.parametrize("swap", ["another core", "other BC values"])
    def test_core_other_than_l_rejected(self, swap):
        # the oracle reads the workspace's core, so it checks that the core
        # is L's own BC system rather than trust the engine's choice
        ws = Workspace(TANH_SHORT, hpm_config())
        if swap == "another core":
            core = LinearOperator(TANH_SHORT.L.coeffs[:1] + (Const(2.0),))
            ws.lopt = Workspace(TANH_SHORT, HamConfig(lopt_mode=core)).lopt
        else:
            bcs = (BoundaryCondition("left", 0, 0.5),)
            ws.lopt = BcSystem(ws.A_L, bcs, ws.grid)
        with pytest.raises(ConfigError, match="not L's own BC system"):
            equivalence_workspace(ws)


coefficient = st.floats(-1.0, 1.0)
boundary_value = st.floats(0.1, 1.0) | st.floats(-1.0, -0.1)


@st.composite
def random_problems(draw):
    """Polynomial N in u and u', a first- or second-order L with constant
    coefficients, a linear source and nonzero Dirichlet data on [0, 1]."""
    order = draw(st.sampled_from([1, 2]))
    coeffs = [Const(draw(coefficient)) for _ in range(order)] + [Const(1.0)]
    u, du = U(0), U(1)
    monomials = (Power(u, 2.0), Power(u, 3.0), Product((u, du)))
    N = Sum(tuple(Product((Const(draw(coefficient)), m)) for m in monomials))
    s = Sum((Const(draw(coefficient)), Product((Const(draw(coefficient)), Coord()))))
    sides = ("left", "right")[:order]
    return ProblemSpec(
        a=0.0,
        b=1.0,
        L=LinearOperator(tuple(coeffs)),
        N=N,
        s=s,
        bcs=tuple(BoundaryCondition(side, 0, draw(boundary_value)) for side in sides),
        n=draw(st.sampled_from([16, 32])),
    )


@settings(max_examples=60, deadline=None)
@given(problem=random_problems())
def test_engine_matches_oracle_on_random_problems(problem):
    # u_0 is nonzero here, so engine and oracle form it differently and
    # agree to roundoff only; bitwise agreement holds for the builtins alone
    report = check_equivalence(problem, order=8)
    assert report.passed, report.as_dict()


def _batch_reexpansion(problem, grid, A, system, order):
    """w_0..w_order with C_{m-1}[N] from ``jet_expand`` over the stacked
    orders at every order: O(M^2) tape calls, the reference for the
    oracle's one stepped tape."""
    s_vals = grid.sample(problem.s)
    u_ref = system.solve(np.zeros(grid.n))
    orders = [system.solve(A @ u_ref)]
    for m in range(1, order + 1):
        stack = grid.derivative_stack(np.stack(orders)[:, :, None], max_u_order(problem.N))
        coeffs = jet_expand(problem.N, grid.nodes, {k: d[:, :, 0] for k, d in stack.items()}, m)
        rhs = s_vals - A @ orders[0] - coeffs[0] if m == 1 else -coeffs[m - 1]
        rhs[system.rows] = 0.0  # homogeneous BCs
        orders.append(system.lu.solve(rhs))
    return np.stack(orders)


@settings(max_examples=60, deadline=None)
@given(
    problem=random_problems(),
    N=st.sampled_from([None, "exp(u)", "sin(u)", "u*u'"]),
    kind=st.sampled_from(GRID_KINDS),
    order=st.integers(1, 25),
)
def test_stepped_tape_equals_batch_reexpansion_bitwise(problem, N, kind, order):
    problem = replace(problem, grid_kind=kind, N=problem.N if N is None else parse_expr(N))
    grid = problem.make_grid()
    A = assemble_linear(problem.L, grid)
    system = BcSystem(A, problem.bcs, grid)
    # a series that overflows must still agree, inf and nan included
    with np.errstate(all="ignore"):
        want = _batch_reexpansion(problem, grid, A, system, order)
        got = _reduced_orders(problem, grid, A, system, grid.sample(problem.s), order)
    assert got.shape == (order + 1, grid.n)
    np.testing.assert_array_equal(got, want)


class TestEquivalenceWorkspace:
    def test_same_report_as_the_problem_entry_point(self):
        # the workspace's own hbar is not used; its order is compared
        ws = Workspace(TANH_SHORT, HamConfig(hbar=-0.4, order=7))
        for hbar in (None, -1.01):
            got = equivalence_workspace(ws, hbar=hbar)
            want = check_equivalence(TANH_SHORT, order=7, hbar=hbar)
            assert got == want
            assert len(got.per_order_rel_diff) == 8

    def test_weight_one_at_every_node_is_the_reduced_weight(self):
        # H = 2 - 1 is another tree than H = 1, but the same weight at every
        # node, and the engine runs the H = 1 arithmetic on it
        ws = Workspace(TANH_SHORT, HamConfig(H=parse_expr("2 - 1")))
        assert ws.config.H != hpm_config().H
        assert equivalence_workspace(ws) == check_equivalence(TANH_SHORT)

    @pytest.mark.parametrize(
        "config",
        [HamConfig(lopt_mode="frechet-at-u0"), HamConfig(H=parse_expr("1 + r"))],
        ids=["frechet-at-u0", "H=1+r"],
    )
    def test_workspace_of_another_method_rejected(self, config):
        with pytest.raises(ConfigError):
            equivalence_workspace(Workspace(TANH_SHORT, config))


class TestReport:
    def test_as_dict_shape(self):
        report = check_equivalence(TANH_SHORT, order=4)
        d = report.as_dict()
        assert set(d) == {
            "max_rel_diff",
            "pass",
            "per_order_rel_diff",
            "tolerance",
        }
        assert d["pass"] is True
        assert d["tolerance"] == 1e-10
        assert len(d["per_order_rel_diff"]) == 5
        json.dumps(d)  # must be serializable as-is

    def test_report_is_frozen(self):
        report = EquivalenceReport(
            per_order_rel_diff=[0.0], max_rel_diff=0.0,
            tolerance=1e-10, passed=True,
        )
        assert report.per_order_rel_diff == (0.0,)
        with pytest.raises(Exception):
            report.max_rel_diff = 1.0
