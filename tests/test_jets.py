"""Jet arithmetic against two independent oracles.

Polynomial trees are checked against numpy's polynomial algebra (exact
coefficient manipulation, no recurrences shared with the implementation).
Transcendental recurrences (exp, log, sin, cos, tanh, real powers) are
checked against sympy Taylor series computed symbolically per node. A
differential test feeds random trees to a tape one row at a time and
requires the batch rows bitwise.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from hamsolve import (
    Call,
    ConfigError,
    Const,
    Coord,
    DomainError,
    LinearOperator,
    Power,
    Product,
    Sum,
    U,
    assemble_linear,
    build_grid,
    frechet_at_reference,
    eval_expr,
    parse_expr,
)
from hamsolve.jets import Tape, expr_partials, jet_expand, series_jets

DEPTH = 6
WIDTH = 3


def random_jet(rng, positive=False):
    j = rng.standard_normal((DEPTH, WIDTH))
    if positive:
        j[0] = 0.5 + np.abs(j[0])
    return j


def sympy_jet_of(fn, jet):
    """Taylor rows of fn(u(t)) with u(t) = sum_m jet[m] t^m, per node."""
    t = sp.symbols("t")
    out = np.zeros_like(jet)
    for p in range(jet.shape[1]):
        upoly = sum(sp.Float(jet[m, p], 17) * t**m for m in range(jet.shape[0]))
        ser = sp.series(fn(upoly), t, 0, jet.shape[0]).removeO()
        poly = sp.Poly(ser, t)
        for m in range(jet.shape[0]):
            out[m, p] = float(poly.coeff_monomial(t**m))
    return out


def assert_jets_close(got, want, tol=1e-10):
    scale = 1.0 + np.abs(want)
    assert np.max(np.abs(got - want) / scale) < tol


def expand(expr, *jets):
    """Jet of expr with jets[k] as the jet of U(k), at nodes r = 0."""
    return jet_expand(expr, np.zeros(WIDTH), dict(enumerate(jets)), DEPTH)


def one():
    out = np.zeros((DEPTH, WIDTH))
    out[0] = 1.0
    return out


u, du = U(0), U(1)


class TestTranscendentalRecurrences:
    rng = np.random.default_rng(1112)

    def test_exp(self):
        v = random_jet(self.rng)
        assert_jets_close(expand(Call("exp", u), v), sympy_jet_of(sp.exp, v))

    def test_log(self):
        v = random_jet(self.rng, positive=True)
        assert_jets_close(expand(Call("log", u), v), sympy_jet_of(sp.log, v))

    def test_sin_cos(self):
        v = random_jet(self.rng)
        assert_jets_close(expand(Call("sin", u), v), sympy_jet_of(sp.sin, v))
        assert_jets_close(expand(Call("cos", u), v), sympy_jet_of(sp.cos, v))

    def test_tanh(self):
        v = random_jet(self.rng)
        assert_jets_close(expand(Call("tanh", u), v), sympy_jet_of(sp.tanh, v))

    def test_real_power(self):
        v = random_jet(self.rng, positive=True)
        got = expand(Power(u, 1.5), v)
        assert_jets_close(got, sympy_jet_of(lambda w: w ** sp.Rational(3, 2), v))

    def test_sqrt_via_power(self):
        v = random_jet(self.rng, positive=True)
        assert_jets_close(expand(Call("sqrt", u), v), sympy_jet_of(sp.sqrt, v))


class TestAlgebraicIdentities:
    rng = np.random.default_rng(355)

    def test_mul_matches_cauchy(self):
        a, b = random_jet(self.rng), random_jet(self.rng)
        got = expand(Product((u, du)), a, b)
        for p in range(WIDTH):
            want = P.polymul(a[:, p], b[:, p])[:DEPTH]
            np.testing.assert_allclose(got[:, p], want, rtol=1e-13, atol=1e-13)

    def test_reciprocal_inverts(self):
        v = random_jet(self.rng, positive=True)
        ident = expand(Product((u, Power(u, -1.0))), v)
        assert np.max(np.abs(ident - one())) < 1e-12

    def test_integer_power_is_repeated_mul(self):
        # the squaring chain starts from u itself, with no constant-1 factor
        v = random_jet(self.rng)
        sq = Product((u, u))
        chains = {
            2: sq,
            3: Product((u, sq)),
            4: Product((sq, sq)),
            5: Product((u, Product((sq, sq)))),
        }
        for k, want in chains.items():
            np.testing.assert_array_equal(expand(Power(u, float(k)), v), expand(want, v))

    def test_negative_integer_power(self):
        v = random_jet(self.rng, positive=True)
        got = expand(Product((Power(u, -2.0), Power(u, 2.0))), v)
        assert np.max(np.abs(got - one())) < 1e-10

    def test_pythagorean_identity(self):
        v = random_jet(self.rng)
        s, c = Call("sin", u), Call("cos", u)
        total = expand(Sum((Product((s, s)), Product((c, c)))), v)
        assert np.max(np.abs(total - one())) < 1e-12

    def test_domain_errors(self):
        bad = random_jet(self.rng)
        bad[0] = 0.0
        with pytest.raises(DomainError):
            expand(Power(u, -1.0), bad)
        with pytest.raises(DomainError):
            expand(Call("log", u), bad)
        bad[0] = -1.0
        with pytest.raises(DomainError):
            expand(Power(u, 0.5), bad)


class TestJetExpand:
    def test_composite_expression_vs_sympy(self):
        rng = np.random.default_rng(77)
        expr = parse_expr("exp(u)*sin(pi*r) + u'^2")
        r = rng.uniform(0.1, 0.9, WIDTH)
        u0 = random_jet(rng)
        u1 = random_jet(rng)
        got = jet_expand(expr, r, {0: u0, 1: u1}, DEPTH)
        t = sp.symbols("t")
        for p in range(WIDTH):
            up = sum(sp.Float(u0[m, p], 17) * t**m for m in range(DEPTH))
            dp = sum(sp.Float(u1[m, p], 17) * t**m for m in range(DEPTH))
            f = sp.exp(up) * sp.sin(sp.pi * sp.Float(r[p], 17)) + dp**2
            poly = sp.Poly(sp.series(f, t, 0, DEPTH).removeO(), t)
            want = [float(poly.coeff_monomial(t**m)) for m in range(DEPTH)]
            np.testing.assert_allclose(got[:, p], want, rtol=1e-10, atol=1e-10)

    def test_row_zero_is_pointwise_eval(self):
        expr = parse_expr("u'' + u^2 - 1")
        rng = np.random.default_rng(8)
        r = rng.uniform(0.0, 1.0, WIDTH)
        jets = {0: random_jet(rng), 2: random_jet(rng)}
        got = jet_expand(expr, r, jets, DEPTH)
        want = eval_expr(expr, r, {0: jets[0][0], 2: jets[2][0]})
        np.testing.assert_allclose(got[0], want, rtol=1e-14)

    def test_missing_or_misshaped_jets(self):
        expr = parse_expr("u''")
        r = np.zeros(WIDTH)
        with pytest.raises(ConfigError):
            jet_expand(expr, r, {0: np.zeros((DEPTH, WIDTH))}, DEPTH)
        with pytest.raises(ConfigError):
            jet_expand(expr, r, {2: np.zeros((DEPTH + 1, WIDTH))}, DEPTH)

    @pytest.mark.parametrize("expr", [U(0), Power(U(0), 1.0)], ids=["u", "u^1"])
    def test_bare_input_jet_is_returned_as_a_copy(self, expr):
        # writing into the result must not write into the caller's jet
        u = random_jet(np.random.default_rng(9))
        got = jet_expand(expr, np.zeros(WIDTH), {0: u}, DEPTH)
        assert got is not u
        np.testing.assert_array_equal(got, u)


def _positive(node):
    """A node whose constant Taylor term is at least 1."""
    return Sum((Const(1.0), Power(node, 2.0)))


def _extend(children):
    return st.one_of(
        st.lists(children, min_size=2, max_size=3).map(lambda ts: Sum(tuple(ts))),
        st.lists(children, min_size=2, max_size=3).map(lambda fs: Product(tuple(fs))),
        st.builds(Power, children, st.sampled_from([0.0, 1.0, 2.0, 3.0])),
        st.builds(
            lambda c, e: Power(_positive(c), e),
            children,
            st.sampled_from([-1.0, -2.0, 0.5, 1.5, -0.5]),
        ),
        st.builds(Call, st.sampled_from(["exp", "sin", "cos", "tanh"]), children),
        st.builds(
            lambda name, c: Call(name, _positive(c)),
            st.sampled_from(["log", "sqrt"]),
            children,
        ),
    )


expression_trees = st.recursive(
    st.one_of(
        st.builds(Const, st.floats(-2.0, 2.0)),
        st.just(Coord()),
        st.builds(U, st.integers(0, 2)),
    ),
    _extend,
    max_leaves=8,
)


@settings(max_examples=150, deadline=None)
@given(expr=expression_trees, seed=st.integers(0, 2**32 - 1))
def test_online_rows_match_batch_bitwise(expr, seed):
    # leaves hold NaN until their row arrives, so a node that read a row
    # above the one being stepped would poison its output
    rng = np.random.default_rng(seed)
    r = rng.uniform(0.1, 0.9, WIDTH)
    full = {k: 0.5 * rng.standard_normal((DEPTH, WIDTH)) for k in range(3)}
    want = jet_expand(expr, r, full, DEPTH)
    leaves = {k: np.full((DEPTH, WIDTH), np.nan) for k in range(3)}
    tape = Tape()
    root = tape.lower(expr, r, leaves, DEPTH)
    for m in range(DEPTH):
        for k, leaf in leaves.items():
            leaf[m] = full[k][m]
        tape.step(m)
        np.testing.assert_array_equal(root[: m + 1], want[: m + 1])


def test_series_jets_rows_are_derivatives():
    g = build_grid("chebyshev-lobatto", 16, 0.0, 1.0)
    orders = [np.sin(g.nodes), g.nodes**3]
    jets = series_jets(g, orders, parse_expr("u'*u"))
    assert set(jets) == {0, 1}
    np.testing.assert_array_equal(jets[0][1], orders[1])
    np.testing.assert_allclose(jets[1][1], 3 * g.nodes**2, atol=1e-10)


def directional(expr, g, base, direction):
    """Derivative of expr at base along direction, as a two-row jet."""
    bs, ds = g.derivative_stack(base, 2), g.derivative_stack(direction, 2)
    u_jets = {k: np.stack((bs[k], ds[k])) for k in range(3)}
    return jet_expand(expr, g.nodes, u_jets, 2)[1]


class TestFrechet:
    def test_apply_matches_central_differences(self):
        g = build_grid("chebyshev-lobatto", 24, 0.0, 1.0)
        expr = parse_expr("u'' + u^2 + exp(u)*u'")
        rng = np.random.default_rng(5150)
        base = rng.standard_normal(g.n) * 0.3
        direction = rng.standard_normal(g.n)
        got = directional(expr, g, base, direction)
        h = 1e-6

        def at(v):
            return eval_expr(expr, g.nodes, g.derivative_stack(v, 2))

        fd = (at(base + h * direction) - at(base - h * direction)) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(got))))
        assert np.max(np.abs(got - fd)) / scale < 1e-6

    def test_apply_linear_in_direction(self):
        g = build_grid("chebyshev-lobatto", 16, 0.0, 1.0)
        expr = parse_expr("u^2")
        rng = np.random.default_rng(99)
        base = rng.standard_normal(g.n)
        d = rng.standard_normal(g.n)
        once = directional(expr, g, base, d)
        three = directional(expr, g, base, 3.0 * d)
        np.testing.assert_allclose(three, 3.0 * once, rtol=1e-13)

    def test_partials_quadratic(self):
        expr = parse_expr("u'' + u^2")
        r = np.linspace(0.0, 1.0, 5)
        vals = {0: np.arange(5.0), 1: np.zeros(5), 2: np.ones(5)}
        parts = expr_partials(expr, r, vals)
        np.testing.assert_allclose(parts[0], 2 * vals[0], atol=1e-14)
        np.testing.assert_allclose(parts[2], np.ones(5), atol=1e-14)
        assert np.max(np.abs(parts[1])) == 0.0

    @pytest.mark.parametrize(
        "text", ["exp(u)*u''+sin(u')*r", "sqrt(2+u^2)*u'^3-log(3+u'')/(1+r)"]
    )
    def test_partials_equal_per_slot_sweeps(self, text):
        # one sweep with the slots side by side must give exactly what one
        # forward-mode sweep per slot gives
        expr = parse_expr(text)
        rng = np.random.default_rng(5)
        r = np.linspace(0.0, 1.0, 17)
        vals = {k: rng.standard_normal(r.size) for k in range(3)}
        want = {}
        for seed in range(3):
            u_jets = {}
            for k in range(3):
                jet = np.zeros((2, r.size))
                jet[0] = vals[k]
                if k == seed:
                    jet[1] = 1.0
                u_jets[k] = jet
            want[seed] = jet_expand(expr, r, u_jets, 2)[1]
        got = expr_partials(expr, r, vals)
        assert sorted(got) == [0, 1, 2]
        for k in range(3):
            np.testing.assert_array_equal(got[k], want[k])

    def test_reference_matrix_quadratic_case(self):
        # d/du [u'' + u^2] at u0 = sin(pi r) is v -> v'' + 2 sin(pi r) v
        g = build_grid("chebyshev-lobatto", 24, 0.0, 1.0)
        L = LinearOperator.from_strings(("0", "0", "1"))
        N = parse_expr("u^2")
        u0 = np.sin(np.pi * g.nodes)
        A = frechet_at_reference(assemble_linear(L, g), N, g, u0)
        want = g.diff_matrix(2) + np.diag(2.0 * u0)
        assert np.max(np.abs(A - want)) < 1e-12

    def test_reference_matrix_with_derivative_nonlinearity(self):
        g = build_grid("chebyshev-lobatto", 16, 0.0, 1.0)
        L = LinearOperator.from_strings(("0", "1"))
        N = parse_expr("u*u'")
        rng = np.random.default_rng(31)
        u0 = rng.standard_normal(g.n)
        A = frechet_at_reference(assemble_linear(L, g), N, g, u0)
        d1 = g.diff_matrix(1)
        want = d1 + np.diag(d1 @ u0) + u0[:, None] * d1
        assert np.max(np.abs(A - want)) < 1e-11

    def test_reference_matrix_pure_linear(self):
        g = build_grid("chebyshev-lobatto", 16, 0.0, 1.0)
        L = LinearOperator.from_strings(("0", "0", "1"))
        A = frechet_at_reference(assemble_linear(L, g), parse_expr("0"), g, np.zeros(g.n))
        assert np.max(np.abs(A - g.diff_matrix(2))) == 0.0

    @pytest.mark.parametrize("n_expr", ["0", "u^2", "u*u'"])
    def test_reference_matrix_is_a_new_array(self, n_expr):
        g = build_grid("chebyshev-lobatto", 16, 0.0, 1.0)
        A_L = assemble_linear(LinearOperator.from_strings(("0", "0", "1")), g)
        before = A_L.copy()
        A = frechet_at_reference(A_L, parse_expr(n_expr), g, np.sin(g.nodes))
        A += 1.0
        assert not np.shares_memory(A, A_L)
        np.testing.assert_array_equal(A_L, before)
