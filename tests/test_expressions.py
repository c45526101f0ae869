"""Parser and expression-tree behavior.

Oracle strategy: parse text, evaluate on arrays, compare against the same
formula written directly in numpy. Error cases pin the exception type and
the 1-based column carried by ParseError.
"""

import math
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hamsolve
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
    case_ids,
    contains_u,
    eval_expr,
    get_case,
    max_u_order,
    parse_expr,
    parse_problem_text,
    walk,
)
from hamsolve.expressions import UNARY_FUNCTIONS, checked_call, checked_power

from test_jets import expression_trees
from test_perfbench_checks import load_workloads

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


# valid expressions as token lists: whitespace may stand between any two
# tokens, and a number, a name with its primes or an operator is one token
NUMBERS = st.sampled_from(["2", "0.5", "3.", ".25", "1e-3", "2E+1"])
EXPONENTS = st.one_of(
    NUMBERS.map(lambda x: [x]), NUMBERS.map(lambda x: ["-", x]), NUMBERS.map(lambda x: ["(", "+", x, ")"])
)
ATOMS = st.one_of(st.sampled_from(["u", "u'", "u''", "r", "pi"]), NUMBERS).map(lambda t: [t])
TOKENS = st.recursive(
    st.one_of(ATOMS, st.tuples(ATOMS, EXPONENTS).map(lambda p: [*p[0], "^", *p[1]])),
    lambda inner: st.one_of(
        inner.map(lambda t: ["(", *t, ")"]),
        st.tuples(st.sampled_from(sorted(UNARY_FUNCTIONS)), inner).map(lambda p: [p[0], "(", *p[1], ")"]),
        st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda p: [*p[0], p[1], *p[2]]),
        inner.map(lambda t: ["-", *t]),
        st.tuples(inner, EXPONENTS).map(lambda p: ["(", *p[0], ")", "^", *p[1]]),
    ),
    max_leaves=12,
)


@given(tokens=TOKENS, data=st.data())
def test_whitespace_between_tokens_gives_the_same_tree(tokens, data):
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "\t", "  ", " \t"]), min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    spaced = gaps[0] + "".join(token + gap for token, gap in zip(tokens, gaps[1:]))
    assert parse_expr(spaced) == parse_expr("".join(tokens))


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


@pytest.mark.parametrize(
    "make, child",
    [
        (lambda: Sum((1.0, U(0))), "a term"),
        (lambda: Product((U(0), "x")), "a factor"),
        (lambda: Power(2.0, 3.0), "a base"),
        (lambda: Call("sin", None), "a call's argument"),
    ],
    ids=["Sum", "Product", "Power", "Call"],
)
def test_children_must_be_expressions(make, child):
    # a raw number in a tree failed only when evaluated, with TypeError
    with pytest.raises(ConfigError, match=f"^{child} must be an expression, got"):
        make()


@pytest.mark.parametrize("node", [Sum, Product])
def test_empty_sum_or_product_is_rejected_at_construction(node):
    # evaluated, it raised IndexError
    with pytest.raises(ConfigError):
        node(())


def preorder(expr):
    """Every node, by the recursive definition: the node, then each
    child's pre-order in turn."""
    if isinstance(expr, Sum):
        children = expr.terms
    elif isinstance(expr, Product):
        children = expr.factors
    elif isinstance(expr, Power):
        children = (expr.base,)
    elif isinstance(expr, Call):
        children = (expr.arg,)
    else:
        children = ()
    return [expr] + [node for child in children for node in preorder(child)]


def reference_eval(expr, r, u):
    """``eval_expr`` by its recursive definition: every node evaluated,
    none read from its ``folded`` value."""
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Coord):
        return r
    if isinstance(expr, U):
        return u[expr.order]
    if isinstance(expr, Sum):
        total = reference_eval(expr.terms[0], r, u)
        for t in expr.terms[1:]:
            total = total + reference_eval(t, r, u)
        return total
    if isinstance(expr, Product):
        prod = reference_eval(expr.factors[0], r, u)
        for f in expr.factors[1:]:
            prod = prod * reference_eval(f, r, u)
        return prod
    if isinstance(expr, Power):
        return checked_power(reference_eval(expr.base, r, u), expr.exponent)
    return checked_call(expr.name, reference_eval(expr.arg, r, u))


def same_bits(got, want, shape) -> bool:
    def as_bytes(value):
        return np.broadcast_to(np.asarray(value, dtype=float), shape).tobytes()

    return as_bytes(got) == as_bytes(want)


@settings(max_examples=100, deadline=None)
@given(expr=expression_trees)
def test_walk_is_the_recursive_pre_order(expr):
    got, want = list(walk(expr)), preorder(expr)
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))
    orders = [n.order for n in want if isinstance(n, U)]
    # every node's u_order, set when it was built, is its subtree's walk
    for node in want:
        assert node.u_order == max((n.order for n in preorder(node) if isinstance(n, U)), default=-1)
    assert max_u_order(expr) == expr.u_order == max(orders, default=-1)
    assert contains_u(expr) == bool(orders)


def test_walk_is_not_bounded_by_the_recursion_limit():
    # a generator per level raised RecursionError below 3000 levels
    expr = U(1)
    for _ in range(3000):
        expr = Call("sin", expr)
    assert sum(1 for _ in walk(expr)) == 3001
    assert expr.u_order == max(n.order for n in walk(expr) if isinstance(n, U)) == 1
    assert max_u_order(expr) == 1


def test_walks_are_not_called_outside_expressions():
    # each node carries its u_order, so no module walks a tree to find it;
    # walk, max_u_order and contains_u stay public for callers outside
    package = pathlib.Path(hamsolve.__file__).parent
    for path in sorted(package.glob("*.py")):
        if path.name == "expressions.py":
            continue
        source = path.read_text(encoding="utf-8")
        for call in ("walk(", "max_u_order(", "contains_u("):
            assert call not in source, (path.name, call)


def _problem_expressions(spec):
    yield from spec.L.coeffs
    yield spec.N
    yield spec.s
    if spec.exact_solution is not None:
        yield spec.exact_solution


def _cold_solves_problems():
    workloads = load_workloads()
    rng = np.random.default_rng(1)
    return [parse_problem_text(workloads.cold_problem_text(rng)) for _ in range(32)]


def test_eval_reads_folded_values_bitwise_on_every_builtin_and_cold_solves_expression():
    # eval_expr returns a folded node's value instead of evaluating it:
    # bitwise what the recursive evaluation of that node gives
    specs = [get_case(cid).spec for cid in case_ids()]
    parsed = _cold_solves_problems()
    specs += [p.problem for p in parsed]
    exprs = [e for spec in specs for e in _problem_expressions(spec)] + [p.config.H for p in parsed]
    assert any(e.folded is not None for e in exprs)
    assert any(isinstance(e, Product) and e.folded is None and any(f.folded is not None for f in e.factors) for e in exprs)
    r = np.linspace(0.05, 1.45, 33)
    u = {0: np.sin(r) + 0.5, 1: np.cos(r), 2: -np.sin(r)}
    for expr in exprs:
        assert same_bits(eval_expr(expr, r, u), reference_eval(expr, r, u), r.shape), expr


def test_eval_of_a_non_node_is_a_type_error():
    for bad in (1.0, "u", None):
        with pytest.raises(TypeError):
            eval_expr(bad, R)


@pytest.mark.parametrize(
    "text",
    ["1e300*1e300*u^2", "u^2*1e300*1e300", "exp(1000)*u^2", "(1e200)^2*u^2", "u + (-1e200)^3", "1e-200^(-2)*u"],
)
def test_constant_past_the_range_is_rejected_at_construction(text):
    # each literal is finite; the NaN series or the OverflowError came later
    with pytest.raises(ConfigError, match="free of u and r is -?inf"):
        parse_expr(text)


def test_node_constructors_reject_a_constant_past_the_range():
    big, u2 = Const(1e300), Power(U(0), 2.0)
    for make in (
        lambda: Product((big, u2, big)),
        lambda: Sum((Product((big, big)), u2)),
        lambda: Power(Const(1e200), 2.0),
        lambda: Call("exp", Const(1000.0)),
    ):
        with pytest.raises(ConfigError):
            make()
    # the constant factors alone decide, in order: 1e300 * 1e-300 is 1
    assert Product((big, u2, Const(1e-300))).folded is None
    assert Product((big, Const(1e-300))).folded == 1e300 * 1e-300


@settings(max_examples=100, deadline=None)
@given(expr=expression_trees)
def test_folded_value_is_the_evaluation_bitwise(expr):
    # Grid.sample broadcasts a folded value, and eval_expr returns it, in
    # place of evaluating the node
    if expr.folded is not None:
        value = reference_eval(expr, 0.5, {})
        assert np.float64(value).tobytes() == np.float64(expr.folded).tobytes()
    assert expr.folded is None or not any(isinstance(n, (U, Coord)) for n in walk(expr))
    r = np.linspace(0.1, 0.9, 5)
    u = {0: 0.5 + r, 1: np.cos(r), 2: r * r}
    with np.errstate(all="ignore"):
        try:
            want = reference_eval(expr, r, u)
        except DomainError:
            with pytest.raises(DomainError):
                eval_expr(expr, r, u)
        else:
            assert same_bits(eval_expr(expr, r, u), want, r.shape)


def test_constant_outside_a_domain_is_left_to_evaluation():
    for text in ("log(0 - 1)*u", "sqrt(0 - 2)", "1/0*u", "(0 - 8)^0.5"):
        expr = parse_expr(text)
        assert expr.folded is None
        with pytest.raises(DomainError):
            eval_expr(expr, R, {0: R})


@pytest.mark.parametrize(
    "base, exponent, want",
    [(1e200, 2.0, math.inf), (-1e200, 3.0, -math.inf), (1e200, 2.5, math.inf), (-1e-200, -3.0, -math.inf)],
)
def test_power_past_the_range_is_inf_not_overflow_error(base, exponent, want):
    # Python's float power raises OverflowError where numpy's gives inf
    assert eval_expr(Power(Coord(), exponent), base) == want


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
