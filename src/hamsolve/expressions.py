"""Expression trees for operator definitions, plus the text parser.

An expression is an immutable tree built from:

* ``Const(c)`` -- a real constant
* ``Coord()`` -- the independent coordinate ``r``
* ``U(k)`` -- the k-th derivative of the unknown, 0 <= k <= 4
* ``Sum(terms)`` / ``Product(factors)`` -- n-ary sum / product
* ``Power(base, exponent)`` -- real exponent
* ``Call(name, arg)`` -- one of sin, cos, exp, log, tanh, sqrt

Trees are plain data; evaluation, Taylor-jet propagation and linearization
live in separate modules. ``log``/``sqrt`` (and non-integer powers) require
strictly positive arguments and are checked at evaluation time, never
assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Union

import numpy as np

from .errors import ConfigError, DomainError, ParseError, is_integer

MAX_DERIVATIVE_ORDER = 4

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "sqrt")


class OperatorExpr:
    """Base class of the nodes; a tree comes from ``parse_expr`` or from
    the node constructors below."""


@dataclass(frozen=True)
class Const(OperatorExpr):
    value: float


@dataclass(frozen=True)
class Coord(OperatorExpr):
    """The independent coordinate (written ``r`` in expression text)."""


@dataclass(frozen=True)
class U(OperatorExpr):
    """The unknown function's ``order``-th derivative (``u``, ``u'``, ...)."""

    order: int = 0

    def __post_init__(self):
        if not (is_integer(self.order) and 0 <= self.order <= MAX_DERIVATIVE_ORDER):
            raise ConfigError(f"derivative order {self.order!r} outside 0..{MAX_DERIVATIVE_ORDER}")


@dataclass(frozen=True)
class Sum(OperatorExpr):
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("a sum needs at least one term")


@dataclass(frozen=True)
class Product(OperatorExpr):
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("a product needs at least one factor")


@dataclass(frozen=True)
class Power(OperatorExpr):
    base: OperatorExpr
    exponent: float


@dataclass(frozen=True)
class Call(OperatorExpr):
    name: str
    arg: OperatorExpr

    def __post_init__(self):
        if self.name not in UNARY_FUNCTIONS:
            raise ConfigError(f"unknown function {self.name!r}")


def walk(expr: OperatorExpr) -> Iterator[OperatorExpr]:
    """Yield every node of the tree, root first."""
    yield expr
    if isinstance(expr, Sum):
        for t in expr.terms:
            yield from walk(t)
    elif isinstance(expr, Product):
        for f in expr.factors:
            yield from walk(f)
    elif isinstance(expr, Power):
        yield from walk(expr.base)
    elif isinstance(expr, Call):
        yield from walk(expr.arg)


def max_u_order(expr: OperatorExpr) -> int:
    """Highest derivative order of the unknown referenced, -1 if none."""
    return max((n.order for n in walk(expr) if isinstance(n, U)), default=-1)


def contains_u(expr: OperatorExpr) -> bool:
    return max_u_order(expr) >= 0


# Values for the unknown are supplied as a mapping {derivative order: value};
# values may be scalars or arrays over grid nodes.
UTable = Mapping[int, Union[float, np.ndarray]]


def eval_expr(expr: OperatorExpr, r, u: UTable | None = None):
    """Evaluate ``expr`` pointwise.

    Args:
        expr: the expression tree.
        r: coordinate value(s), scalar or ndarray.
        u: mapping from derivative order to value(s); may be omitted for
            expressions that do not reference the unknown.

    Returns:
        Scalar or ndarray matching the broadcast shape of the inputs.

    Raises:
        DomainError: log/sqrt of a non-positive value, non-integer power of
            a non-positive base, or division by zero.
        ConfigError: the expression references a derivative order missing
            from ``u``.
    """
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Coord):
        return r
    if isinstance(expr, U):
        if u is None or expr.order not in u:
            raise ConfigError(
                f"expression references u derivative order {expr.order} "
                "but no value was supplied"
            )
        return u[expr.order]
    if isinstance(expr, Sum):
        total = eval_expr(expr.terms[0], r, u)
        for t in expr.terms[1:]:
            total = total + eval_expr(t, r, u)
        return total
    if isinstance(expr, Product):
        prod = eval_expr(expr.factors[0], r, u)
        for f in expr.factors[1:]:
            prod = prod * eval_expr(f, r, u)
        return prod
    if isinstance(expr, Power):
        base = eval_expr(expr.base, r, u)
        return checked_power(base, expr.exponent)
    if isinstance(expr, Call):
        arg = eval_expr(expr.arg, r, u)
        return checked_call(expr.name, arg)
    raise TypeError(f"not an expression node: {expr!r}")


def checked_power(base, exponent: float):
    """``base ** exponent``; DomainError where that is undefined."""
    if float(exponent).is_integer():
        k = int(exponent)
        if k < 0 and np.any(np.asarray(base) == 0.0):
            raise DomainError("negative power of zero")
        return base ** k
    if np.any(np.asarray(base) <= 0.0):
        raise DomainError(
            f"non-integer power {exponent} requires a strictly positive base"
        )
    return base ** exponent


def checked_call(name: str, arg):
    """numpy's ``name`` at ``arg``; DomainError where that is undefined."""
    if name in ("log", "sqrt") and np.any(np.asarray(arg) <= 0.0):
        raise DomainError(f"{name} requires a strictly positive argument")
    return getattr(np, name)(arg)


@dataclass(frozen=True)
class LinearOperator:
    """A linear differential operator sum_k c_k(r) d^k/dr^k.

    ``coeffs[k]`` is the coefficient expression of the k-th derivative; the
    coefficients may depend on r only. The leading coefficient must be
    nonvanishing on the grid, which is checked at assembly time (it needs
    the nodes).
    """

    coeffs: tuple = field()

    def __post_init__(self):
        coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not 2 <= len(coeffs) <= MAX_DERIVATIVE_ORDER + 1:
            raise ConfigError(
                "a linear operator needs 2..5 coefficients (order 1..4), "
                f"got {len(coeffs)}"
            )
        for k, c in enumerate(coeffs):
            if not isinstance(c, OperatorExpr):
                raise ConfigError(f"coefficient {k} is not an expression")
            if contains_u(c):
                raise ConfigError(
                    f"coefficient {k} references the unknown; linear operator "
                    "coefficients may depend on r only"
                )

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def from_strings(cls, texts) -> "LinearOperator":
        return cls(tuple(parse_expr(t) for t in texts))


# ---------------------------------------------------------------------------
# Parser.  Infix grammar over u, u', u'', r, pi, numbers, sin/cos/exp/log/
# tanh/sqrt, + - * / ^ and parentheses.  '^' takes a numeric literal exponent.
# ---------------------------------------------------------------------------


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, message: str) -> ParseError:
        return ParseError(message, column=self.pos + 1)

    def take_number(self) -> float:
        self._skip_ws()
        start = self.pos
        n = len(self.text)
        while self.pos < n and (self.text[self.pos].isdigit() or self.text[self.pos] == "."):
            self.pos += 1
        if self.pos < n and self.text[self.pos] in "eE":
            mark = self.pos
            self.pos += 1
            if self.pos < n and self.text[self.pos] in "+-":
                self.pos += 1
            if self.pos < n and self.text[self.pos].isdigit():
                while self.pos < n and self.text[self.pos].isdigit():
                    self.pos += 1
            else:
                self.pos = mark  # not an exponent, e.g. '2e' followed by junk
        token = self.text[start:self.pos]
        try:
            return float(token)
        except ValueError:
            self.pos = start
            raise self.error(f"bad number literal {token!r}")

    def take_name(self) -> str:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        return self.text[start:self.pos]


def parse_expr(text: str) -> OperatorExpr:
    """Parse expression text into an OperatorExpr.

    Raises ParseError (with a 1-based column) on malformed input, unknown
    names, or derivative orders above 4.
    """
    if not isinstance(text, str) or not text.strip():
        raise ParseError("empty expression")
    toks = _Tokens(text)
    expr = _parse_sum(toks)
    if toks.peek():
        raise toks.error(f"unexpected trailing input {toks.peek()!r}")
    return expr


def _parse_sum(toks: _Tokens) -> OperatorExpr:
    terms = []
    sign = 1.0
    if toks.peek() in ("+", "-"):
        if toks.peek() == "-":
            sign = -1.0
        toks.pos += 1
    term = _parse_term(toks)
    terms.append(term if sign > 0 else Product((Const(-1.0), term)))
    while toks.peek() in ("+", "-"):
        negate = toks.peek() == "-"
        toks.pos += 1
        term = _parse_term(toks)
        terms.append(Product((Const(-1.0), term)) if negate else term)
    return terms[0] if len(terms) == 1 else Sum(tuple(terms))


def _parse_term(toks: _Tokens) -> OperatorExpr:
    factors = [_parse_factor(toks)]
    while toks.peek() in ("*", "/"):
        divide = toks.peek() == "/"
        toks.pos += 1
        nxt = _parse_factor(toks)
        factors.append(Power(nxt, -1.0) if divide else nxt)
    return factors[0] if len(factors) == 1 else Product(tuple(factors))


def _parse_factor(toks: _Tokens) -> OperatorExpr:
    base = _parse_primary(toks)
    if toks.peek() == "^":
        toks.pos += 1
        return Power(base, _parse_exponent(toks))
    return base


def _parse_exponent(toks: _Tokens) -> float:
    if toks.peek() == "(":
        toks.pos += 1
        value = _parse_exponent(toks)
        if toks.peek() != ")":
            raise toks.error("expected ')' after exponent")
        toks.pos += 1
        return value
    sign = 1.0
    if toks.peek() in ("+", "-"):
        if toks.peek() == "-":
            sign = -1.0
        toks.pos += 1
    ch = toks.peek()
    if not (ch.isdigit() or ch == "."):
        raise toks.error("exponent must be a numeric literal")
    return sign * toks.take_number()


def _parse_primary(toks: _Tokens) -> OperatorExpr:
    ch = toks.peek()
    if ch == "":
        raise toks.error("unexpected end of expression")
    if ch == "(":
        toks.pos += 1
        inner = _parse_sum(toks)
        if toks.peek() != ")":
            raise toks.error("expected ')'")
        toks.pos += 1
        return inner
    if ch == "-":
        toks.pos += 1
        return Product((Const(-1.0), _parse_factor(toks)))
    if ch.isdigit() or ch == ".":
        return Const(toks.take_number())
    if ch.isalpha():
        name = toks.take_name()
        if name == "u":
            order = 0
            while toks.pos < len(toks.text) and toks.text[toks.pos] == "'":
                order += 1
                toks.pos += 1
            if order > MAX_DERIVATIVE_ORDER:
                raise toks.error(
                    f"derivative order {order} exceeds the supported maximum "
                    f"{MAX_DERIVATIVE_ORDER}"
                )
            return U(order)
        if name == "r":
            return Coord()
        if name == "pi":
            return Const(math.pi)
        if name in UNARY_FUNCTIONS:
            if toks.peek() != "(":
                raise toks.error(f"expected '(' after {name}")
            toks.pos += 1
            arg = _parse_sum(toks)
            if toks.peek() != ")":
                raise toks.error(f"expected ')' closing {name}(...)")
            toks.pos += 1
            return Call(name, arg)
        raise toks.error(f"unknown name {name!r}")
    raise toks.error(f"unexpected character {ch!r}")
