"""Built-in cases: the exact solutions really solve their problems."""

import numpy as np
import pytest

from hamsolve import (
    ConfigError,
    GridMismatchError,
    HamConfig,
    Workspace,
    bc_row,
    build_grid,
    builtin_cases,
    case_ids,
    error_vs_exact,
    get_case,
    partial_sum,
)

EXPECTED_IDS = (
    "linear-poisson",
    "riccati-tanh-short",
    "riccati-tanh-long",
    "manufactured-quad",
)


def test_exactly_four_cases_in_stable_order():
    assert case_ids() == EXPECTED_IDS
    assert tuple(c.id for c in builtin_cases()) == EXPECTED_IDS


@pytest.mark.parametrize("case_id", EXPECTED_IDS)
def test_exact_solution_satisfies_the_equation(case_id):
    case = get_case(case_id)
    ws = Workspace(case.spec, HamConfig())
    exact = case.spec.exact_values(ws.grid)
    # spectral differentiation of the sampled truth is the only error source
    assert float(np.max(np.abs(ws.operator_values(exact)))) < 1e-8


@pytest.mark.parametrize("case_id", EXPECTED_IDS)
def test_exact_solution_satisfies_boundary_conditions(case_id):
    case = get_case(case_id)
    grid = case.spec.make_grid()
    exact = case.spec.exact_values(grid)
    for bc in case.spec.bcs:
        assert float(bc_row(grid, bc) @ exact) == pytest.approx(
            bc.value, abs=1e-12
        )


@pytest.mark.parametrize("case_id", EXPECTED_IDS)
def test_case_metadata(case_id):
    case = get_case(case_id)
    assert case.notes
    assert case.spec.exact_solution is not None


def test_error_vs_exact_of_zero_guess():
    case = get_case("riccati-tanh-short")
    grid = case.spec.make_grid()
    err = error_vs_exact(case, np.zeros(grid.n), grid)
    assert err == float(np.tanh(1.0))


def test_error_vs_exact_on_custom_grid():
    case = get_case("linear-poisson")
    grid = build_grid("uniform-fd", 33, 0.0, 1.0)
    exact = case.spec.exact_values(grid)
    assert error_vs_exact(case, exact, grid) == 0.0
    # uniform grid has a node exactly at the midpoint
    assert error_vs_exact(case, np.zeros(grid.n), grid) == 1.0


def test_error_vs_exact_checks_length():
    case = get_case("linear-poisson")
    with pytest.raises(GridMismatchError):
        error_vs_exact(case, np.zeros(10), case.spec.make_grid())


def test_series_error_regression_band():
    # frozen during calibration: the order-10 fixed-parameter sum on the
    # short Riccati case sits at 6.307e-3 sup error (tanh's slow tail)
    case = get_case("riccati-tanh-short")
    ws = Workspace(case.spec, HamConfig(order=10))
    series = ws.run()
    err = error_vs_exact(case, partial_sum(series, 10), ws.grid)
    assert err == pytest.approx(6.307e-3, rel=1e-3)


def test_unknown_case_id_lists_available():
    with pytest.raises(ConfigError) as info:
        get_case("no-such-benchmark")
    message = str(info.value)
    for case_id in EXPECTED_IDS:
        assert case_id in message
