"""Expression trees for operator definitions, plus the text parser.

An expression is an immutable tree built from:

* ``Const(c)`` -- a finite real constant
* ``Coord()`` -- the independent coordinate ``r``
* ``U(k)`` -- the k-th derivative of the unknown, 0 <= k <= 4
* ``Sum(terms)`` / ``Product(factors)`` -- n-ary sum / product
* ``Power(base, exponent)`` -- finite real exponent
* ``Call(name, arg)`` -- one of sin, cos, exp, log, tanh, sqrt

Trees are plain data; evaluation, Taylor-jet propagation and linearization
live in separate modules. ``log``/``sqrt`` (and non-integer powers) require
strictly positive arguments and are checked at evaluation time, never
assumed. A part of a tree that reads neither u nor r is evaluated once,
when its node is built (``folded``), and one that is not finite is a
ConfigError there, as is a product whose constant factors multiply to
inf.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from .errors import ConfigError, DomainError, ParseError, is_integer, real_argument

MAX_DERIVATIVE_ORDER = 4

UNARY_FUNCTIONS = ("sin", "cos", "exp", "log", "tanh", "sqrt")


class OperatorExpr:
    """Base class of the nodes; a tree comes from ``parse_expr`` or from
    the node constructors below.

    ``folded`` is the value of a node that reads neither u nor r, set when
    the node is built (``_fold``); it is None for a node that reads either,
    and for a constant outside its function's domain (log, sqrt or a
    power), which evaluation reports as DomainError. ``u_order``, also set
    when the node is built, is the highest derivative order of u the
    subtree reads: k for ``U(k)``, the largest of the children's for a
    sum, product, power or call, and -1 for a subtree free of u."""

    folded = None
    u_order = -1


@dataclass(frozen=True)
class Const(OperatorExpr):
    value: float

    def __post_init__(self):
        object.__setattr__(self, "value", real_argument(self.value, "constant"))
        object.__setattr__(self, "folded", self.value)


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
        object.__setattr__(self, "u_order", self.order)


@dataclass(frozen=True)
class Sum(OperatorExpr):
    terms: tuple

    def __post_init__(self):
        if not self.terms:
            raise ConfigError("a sum needs at least one term")
        values = [_folded(t) for t in self.terms]
        _set_u_order(self, self.terms)
        if None not in values:
            _fold(self, functools.reduce(operator.add, values))


@dataclass(frozen=True)
class Product(OperatorExpr):
    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise ConfigError("a product needs at least one factor")
        constants = [v for v in map(_folded, self.factors) if v is not None]
        _set_u_order(self, self.factors)
        if constants:
            value = functools.reduce(operator.mul, constants)
            _fold(self, value, keep=len(constants) == len(self.factors))


@dataclass(frozen=True)
class Power(OperatorExpr):
    base: OperatorExpr
    exponent: float

    def __post_init__(self):
        object.__setattr__(self, "exponent", real_argument(self.exponent, "exponent"))
        if _folded(self.base) is not None:
            try:
                _fold(self, float(checked_power(self.base.folded, self.exponent)))
            except DomainError:  # left to evaluation, which reports it
                pass
        _set_u_order(self, (self.base,))


@dataclass(frozen=True)
class Call(OperatorExpr):
    name: str
    arg: OperatorExpr

    def __post_init__(self):
        if self.name not in UNARY_FUNCTIONS:
            raise ConfigError(f"unknown function {self.name!r}")
        if _folded(self.arg) is not None:
            try:
                with np.errstate(over="ignore"):  # exp past the range: see _fold
                    _fold(self, float(checked_call(self.name, self.arg.folded)))
            except DomainError:  # left to evaluation, which reports it
                pass
        _set_u_order(self, (self.arg,))


def _folded(child) -> Optional[float]:
    """``child.folded``; ConfigError if ``child`` is not an expression."""
    if not isinstance(child, OperatorExpr):
        raise ConfigError(f"not an expression: {child!r}")
    return child.folded


def _set_u_order(node: OperatorExpr, children) -> None:
    """``node.u_order`` from its ``children``, each checked by ``_folded``."""
    object.__setattr__(node, "u_order", max(c.u_order for c in children))


def _fold(node: OperatorExpr, value: float, keep: bool = True) -> None:
    """Keep ``value``, computed with ``eval_expr``'s arithmetic, as
    ``node.folded`` (unless not ``keep``). ConfigError if it is not
    finite: a part free of u and r that is not finite, or a product whose
    constant factors multiply past the range, would reach every node as
    inf or nan."""
    if not math.isfinite(value):
        raise ConfigError(f"a part of an expression free of u and r is {value}")
    if keep:
        object.__setattr__(node, "folded", value)


def walk(expr: OperatorExpr) -> Iterator[OperatorExpr]:
    """Yield every node of the tree, root first: each node before its
    children, and the children in order. One explicit stack, so a deep
    tree costs no generator per level."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Sum):
            stack.extend(reversed(node.terms))
        elif isinstance(node, Product):
            stack.extend(reversed(node.factors))
        elif isinstance(node, Power):
            stack.append(node.base)
        elif isinstance(node, Call):
            stack.append(node.arg)


def max_u_order(expr: OperatorExpr) -> int:
    """Highest derivative order of the unknown referenced, -1 if none:
    ``expr.u_order``."""
    return expr.u_order


def contains_u(expr: OperatorExpr) -> bool:
    return expr.u_order >= 0


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
        Scalar or ndarray matching the broadcast shape of the inputs; a
        node's ``folded`` value, unevaluated, where it has one.

    Raises:
        DomainError: log/sqrt of a non-positive value, non-integer power of
            a non-positive base, or division by zero.
        ConfigError: the expression references a derivative order missing
            from ``u``.
    """
    if isinstance(expr, OperatorExpr) and expr.folded is not None:
        return expr.folded  # computed with this arithmetic when built
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
    """``base ** exponent``; DomainError where that is undefined. A Python
    float power past the range is inf, not an OverflowError."""
    if float(exponent).is_integer():
        exponent = int(exponent)
        if exponent < 0 and _anywhere(base == 0.0):
            raise DomainError("negative power of zero")
    elif _anywhere(base <= 0.0):
        raise DomainError(
            f"non-integer power {exponent} requires a strictly positive base"
        )
    try:
        return base ** exponent
    except OverflowError:  # a Python float past the range: inf, as a product gives
        return math.copysign(math.inf, base) if exponent % 2 else math.inf


def _anywhere(mask) -> bool:
    """Whether ``mask``, a bool or a numpy array of them, is True anywhere:
    a Python float's comparison gives a bool, which skips numpy."""
    return mask if isinstance(mask, bool) else bool(mask.any())


def checked_call(name: str, arg):
    """numpy's ``name`` at ``arg``; DomainError where that is undefined."""
    if name in ("log", "sqrt") and _anywhere(arg <= 0.0):
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
            if c.u_order >= 0:
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
            value = float(token)
        except ValueError:
            self.pos = start
            raise self.error(f"bad number literal {token!r}")
        if math.isinf(value):
            self.pos = start
            raise self.error(f"number literal {token!r} overflows a float")
        return value

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
