"""Parser and expression-tree behavior.

Oracle strategy: parse text, evaluate on arrays, compare against the same
formula written directly in numpy. Error cases pin the exception type and
the 1-based column carried by ParseError.
"""

import math

import numpy as np
import pytest

from hamsolve import (
    Call,
    ConfigError,
    Const,
    Coord,
    DomainError,
    LinearOperator,
    ParseError,
    Power,
    Product,
    Sum,
    U,
    contains_u,
    eval_expr,
    max_u_order,
    parse_expr,
)

R = np.linspace(0.1, 0.9, 7)


def test_parse_eval_roundtrip_against_numpy():
    cases = [
        ("sin(pi*r)", lambda r, u: np.sin(np.pi * r)),
        ("-pi^2*sin(pi*r)", lambda r, u: -np.pi**2 * np.sin(np.pi * r)),
        ("u'' + u^2 - 1", lambda r, u: u[2] + u[0] ** 2 - 1.0),
        ("2*r/(1 + r)", lambda r, u: 2 * r / (1 + r)),
        ("exp(-r)*tanh(u)", lambda r, u: np.exp(-r) * np.tanh(u[0])),
        ("1 - 2 - 3", lambda r, u: np.full_like(r, -4.0)),
        ("2*3^2", lambda r, u: np.full_like(r, 18.0)),
        ("-2^2", lambda r, u: np.full_like(r, -4.0)),
        ("(1 + 2)*r", lambda r, u: 3.0 * r),
        ("sqrt(r)^3", lambda r, u: np.sqrt(R) ** 3),
        ("u^(-2)", lambda r, u: u[0] ** -2.0),
        ("1.5e2*r", lambda r, u: 150.0 * r),
        ("1e-3*r", lambda r, u: 1e-3 * r),
        ("2E+2 - u", lambda r, u: 200.0 - u[0]),
    ]
    u = {0: 0.5 + R, 1: np.cos(R), 2: R**2}
    for text, want in cases:
        got = np.broadcast_to(eval_expr(parse_expr(text), R, u), R.shape)
        np.testing.assert_allclose(got, want(R, u), rtol=1e-14, err_msg=text)


def test_pi_is_math_pi():
    assert eval_expr(parse_expr("pi"), 0.0) == math.pi


def test_derivative_primes():
    assert parse_expr("u") == U(0)
    assert parse_expr("u''''") == U(4)
    assert max_u_order(parse_expr("u + r*u'''")) == 3
    assert max_u_order(parse_expr("sin(r)")) == -1
    assert contains_u(parse_expr("u'*r"))
    assert not contains_u(parse_expr("r^2"))


def test_too_many_primes_rejected():
    with pytest.raises(ParseError):
        parse_expr("u'''''")


@pytest.mark.parametrize(
    "text,column",
    [
        ("sin(r", 6),       # unclosed call
        ("1 + ", 5),        # dangling operator
        ("1 r", 3),         # trailing garbage
        ("q + 1", 2),       # unknown name, consumed before erroring
        ("u^u", 3),         # exponent must be a literal
        ("(1+2", 5),        # unclosed paren
        ("u^(2", 5),        # unclosed exponent
        ("sin u", 5),       # call without parentheses
        ("1.2.3", 1),       # two decimal points
        ("u + $", 5),       # unknown character
        ("1e400 + u", 1),   # a literal that overflows a float
        ("2*1e400", 3),
        ("u^1e400", 3),
    ],
)
def test_parse_errors_carry_columns(text, column):
    with pytest.raises(ParseError) as err:
        parse_expr(text)
    assert err.value.column == column
    assert f"column {column}" in str(err.value)
    # the location is stated once, ahead of the message
    assert str(err.value) == f"column {column}: {err.value.message}"
    assert "column" not in err.value.message


def test_empty_expression_rejected():
    with pytest.raises(ParseError):
        parse_expr("   ")
    with pytest.raises(ParseError):
        parse_expr("")


def test_eval_missing_u_order():
    with pytest.raises(ConfigError):
        eval_expr(parse_expr("u''"), R, {0: R})
    with pytest.raises(ConfigError):
        eval_expr(parse_expr("u"), R, None)


def test_eval_domain_errors():
    with pytest.raises(DomainError):
        eval_expr(parse_expr("log(r)"), np.array([-1.0, 0.5]))
    with pytest.raises(DomainError):
        eval_expr(parse_expr("sqrt(r)"), np.array([0.0, 0.5]))
    with pytest.raises(DomainError):
        eval_expr(parse_expr("u^0.5"), R, {0: np.full_like(R, -2.0)})
    with pytest.raises(DomainError):
        eval_expr(parse_expr("u^(-1)"), R, {0: np.zeros_like(R)})


def test_node_validation():
    with pytest.raises(ConfigError):
        U(5)
    for order in (1.5, True):
        with pytest.raises(ConfigError):
            U(order)
    assert U(np.int64(2)) == U(2)
    with pytest.raises(ConfigError):
        Call("sinh", Coord())


@pytest.mark.parametrize(
    "make",
    [Const, lambda v: Power(U(0), v)],
    ids=["Const", "Power"],
)
def test_constants_and_exponents_are_finite_reals(make):
    # a bad value failed only inside a solve, or gave a NaN series
    for bad in ("x", None, math.inf, -math.inf, math.nan, 1e300 * 1e300):
        with pytest.raises(ConfigError):
            make(bad)
    for good in (2, np.float64(1.5), "0.25"):
        node = make(good)
        value = node.value if isinstance(node, Const) else node.exponent
        assert type(value) is float and value == float(good)


@pytest.mark.parametrize("node", [Sum, Product])
def test_empty_sum_or_product_is_rejected_at_construction(node):
    # evaluated, it raised IndexError
    with pytest.raises(ConfigError):
        node(())


def test_walkable_tree_shapes():
    expr = parse_expr("u'' + 2*sin(pi*r)*u")
    assert isinstance(expr, Sum)
    kinds = {type(n) for n in __import__("hamsolve").walk(expr)}
    assert {Sum, Product, Call, Coord, U, Const} <= kinds


class TestLinearOperator:
    def test_from_strings_and_order(self):
        op = LinearOperator.from_strings(("0", "0", "1"))
        assert op.order == 2
        assert op.coeffs[2] == Const(1.0)

    def test_coefficient_count_bounds(self):
        with pytest.raises(ConfigError):
            LinearOperator((Const(1.0),))
        with pytest.raises(ConfigError):
            LinearOperator(tuple(Const(1.0) for _ in range(6)))

    def test_coefficients_must_be_r_only(self):
        with pytest.raises(ConfigError):
            LinearOperator((U(0), Const(1.0)))

    def test_variable_coefficients_allowed(self):
        op = LinearOperator.from_strings(("exp(r)", "1 + r^2"))
        assert op.order == 1
