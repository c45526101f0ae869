"""The fixed-parameter oracle and the engine-equivalence check.

The oracle's first few orders on the short Riccati case are computable by
hand (w1 = r, w2 = 0, w3 = -r^3/3), which checks the oracle itself before
it is trusted to judge the engine. A source scan keeps the oracle honest:
its recursion must not delegate to the engine's. A property test compares
engine and oracle on random polynomial problems.
"""

import inspect
import json

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
from hamsolve.hpm import REDUCED_HBAR

TANH_SHORT = get_case("riccati-tanh-short").spec


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

    def test_recursion_source_does_not_call_the_engine(self):
        source = inspect.getsource(hpm_recursion)
        forbidden_names = (
            "mth_order_rhs", "run_ham", "Workspace", ".run(",
            "_march", "run_many", "SeriesTape",
        )
        for forbidden in forbidden_names:
            assert forbidden not in source


class TestEquivalence:
    @pytest.mark.parametrize("case_id", case_ids())
    def test_builtin_cases_match_bitwise(self, case_id):
        report = check_equivalence(get_case(case_id).spec, order=10)
        assert report.passed
        # reference function is zero for every builtin, so the grouped
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

    def test_order_validated(self):
        with pytest.raises(ConfigError):
            check_equivalence(TANH_SHORT, order=0)


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


class TestEquivalenceWorkspace:
    def test_same_report_as_the_problem_entry_point(self):
        # the workspace's own hbar and order are not used
        ws = Workspace(TANH_SHORT, HamConfig(hbar=-0.4, order=3))
        for hbar in (None, -1.01):
            got = equivalence_workspace(ws, order=10, hbar=hbar)
            want = check_equivalence(TANH_SHORT, order=10, hbar=hbar)
            assert got == want

    @pytest.mark.parametrize(
        "config",
        [HamConfig(lopt_mode="frechet-at-u0"), HamConfig(H=parse_expr("1 + r"))],
        ids=["frechet-at-u0", "H=1+r"],
    )
    def test_workspace_of_another_method_rejected(self, config):
        with pytest.raises(ConfigError):
            equivalence_workspace(Workspace(TANH_SHORT, config), order=10)


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
