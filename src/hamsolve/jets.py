"""Truncated Taylor-series (jet) arithmetic over grid nodes.

A jet is a plain ndarray of shape (depth, width): row m holds the m-th
Taylor coefficient of a quantity expanded in the embedding parameter, at
each of ``width`` grid nodes. All operations truncate at ``depth`` rows.

Analytic functions are propagated by the standard coefficient recurrences
(exp, log, real powers, the coupled sin/cos pair, tanh via 1 - tanh^2);
compositions whose constant term violates a domain restriction raise
DomainError. Two-row jets double as forward-mode dual numbers, which is how
the directional (Fréchet) derivative of an expression is computed.

Every recurrence is a node of a ``Tape`` that fills one Taylor row at a
time, and ``Tape`` is the one jet API. ``jet_expand`` is its batch form,
filling all rows of an expression at once; the series engine extends a
``SeriesTape`` by one row per order (docs/recursions.md, "Online jets").
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DomainError
from .expressions import (
    Call,
    Const,
    Coord,
    OperatorExpr,
    Power,
    Product,
    Sum,
    U,
    max_u_order,
)
from .grids import Grid


def _constant(value, depth: int, width: int) -> np.ndarray:
    out = np.zeros((depth, width))
    out[:1] = value
    return out


class Tape:
    """Jet recurrences of one expression, in evaluation order.

    Every node method appends one recurrence and returns the node's row
    buffer of shape (depth, width). ``step(m)`` fills row m of every node,
    children first; a node's row m reads only rows <= m of its inputs and
    rows < m of its own buffers. So a tape can be extended online, one row
    per order, as the inputs' rows arrive; ``fill`` is the batch form.
    Each recurrence lives here once.
    """

    def __init__(self):
        self._rows = []

    def step(self, m: int) -> None:
        for row in self._rows:
            row(m)

    def fill(self, depth: int) -> None:
        for m in range(depth):
            self.step(m)

    def sum(self, terms) -> np.ndarray:
        first, rest = terms[0], terms[1:]
        out = np.empty_like(first)

        def row(m):
            out[m] = first[m]
            for t in rest:
                out[m] += t[m]

        self._rows.append(row)
        return out

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Truncated Cauchy product."""
        out = np.empty_like(a)

        def row(m):
            out[m] = np.einsum("ij,ij->j", a[: m + 1], b[m::-1])

        self._rows.append(row)
        return out

    def reciprocal(self, v: np.ndarray) -> np.ndarray:
        out = np.zeros_like(v)

        def row(m):
            if m == 0:
                if np.any(v[0] == 0.0):
                    raise DomainError("reciprocal of a jet with zero constant term")
                out[0] = 1.0 / v[0]
                return
            acc = np.einsum("ij,ij->j", v[1 : m + 1], out[m - 1 :: -1])
            out[m] = -acc / v[0]

        self._rows.append(row)
        return out

    def power(self, u: np.ndarray, exponent: float) -> np.ndarray:
        if float(exponent).is_integer():
            k = int(exponent)
            if k < 0:
                return self.reciprocal(self.power(u, -k))
            out = None
            base = u
            while k:  # exponentiation by squaring keeps integer powers exact-ish
                if k & 1:
                    out = base if out is None else self.mul(out, base)
                k >>= 1
                if k:
                    base = self.mul(base, base)
            return _constant(1.0, *u.shape) if out is None else out
        out = np.zeros_like(u)

        def row(m):
            if m == 0:
                if np.any(u[0] <= 0.0):
                    raise DomainError(
                        f"non-integer power {exponent} of a jet needs a strictly "
                        "positive constant term"
                    )
                out[0] = u[0] ** exponent
                return
            # from u w' = rho u' w: m u0 w_m = sum_k (rho k - (m-k)) u_k w_{m-k}
            ks = np.arange(1, m + 1)
            coeff = exponent * ks - (m - ks)
            acc = np.einsum("i,ij,ij->j", coeff, u[1 : m + 1], out[m - 1 :: -1])
            out[m] = acc / (m * u[0])

        self._rows.append(row)
        return out

    def exp(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)

        def row(m):
            if m == 0:
                out[0] = np.exp(u[0])
                return
            ks = np.arange(1, m + 1, dtype=float)
            out[m] = np.einsum("i,ij,ij->j", ks, u[1 : m + 1], out[m - 1 :: -1]) / m

        self._rows.append(row)
        return out

    def log(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)

        def row(m):
            if m == 0:
                if np.any(u[0] <= 0.0):
                    raise DomainError("log of a jet needs a strictly positive constant term")
                out[0] = np.log(u[0])
                return
            acc = m * u[m]
            if m > 1:
                js = np.arange(1, m, dtype=float)
                # sum_j (m-j) u_j w_{m-j} over j = 1..m-1
                acc = acc - np.einsum("i,ij,ij->j", (m - js), u[1:m], out[m - 1 : 0 : -1])
            out[m] = acc / (m * u[0])

        self._rows.append(row)
        return out

    def sin_cos(self, u: np.ndarray):
        s = np.zeros_like(u)
        c = np.zeros_like(u)

        def row(m):
            if m == 0:
                s[0] = np.sin(u[0])
                c[0] = np.cos(u[0])
                return
            ks = np.arange(1, m + 1, dtype=float)
            du = u[1 : m + 1]
            s[m] = np.einsum("i,ij,ij->j", ks, du, c[m - 1 :: -1]) / m
            c[m] = -np.einsum("i,ij,ij->j", ks, du, s[m - 1 :: -1]) / m

        self._rows.append(row)
        return s, c

    def tanh(self, u: np.ndarray) -> np.ndarray:
        t = np.zeros_like(u)
        g = np.zeros_like(u)  # g = 1 - t^2, filled alongside t

        def row(m):
            if m == 0:
                t[0] = np.tanh(u[0])
                g[0] = 1.0 - t[0] ** 2
                return
            ks = np.arange(1, m + 1, dtype=float)
            t[m] = np.einsum("i,ij,ij->j", ks, u[1 : m + 1], g[m - 1 :: -1]) / m
            g[m] = -np.einsum("ij,ij->j", t[: m + 1], t[m::-1])

        self._rows.append(row)
        return t

    def lower(self, expr: OperatorExpr, r: np.ndarray, u_jets: dict, depth: int) -> np.ndarray:
        """Append the nodes of ``expr``; returns the root's row buffer.

        ``u_jets`` maps each referenced u-derivative order to its jet of
        shape (depth, width). The tape reads their rows as it steps, so an
        online caller may fill row m just before ``step(m)``.
        """
        # recursion through the method, not a nested closure: a closure that
        # calls itself is a reference cycle, which would keep the tape's
        # buffers alive until the cyclic garbage collector happens to run
        width = r.shape[0]
        if isinstance(expr, Const):
            return _constant(expr.value, depth, width)
        if isinstance(expr, Coord):
            return _constant(r, depth, width)
        if isinstance(expr, U):
            if expr.order not in u_jets:
                raise ConfigError(
                    f"no jet supplied for u derivative order {expr.order}"
                )
            jet = np.asarray(u_jets[expr.order], dtype=float)
            if jet.shape != (depth, width):
                raise ConfigError(
                    f"jet for order {expr.order} has shape {jet.shape}, "
                    f"expected {(depth, width)}"
                )
            return jet
        if isinstance(expr, Sum):
            return self.sum([self.lower(t, r, u_jets, depth) for t in expr.terms])
        if isinstance(expr, Product):
            acc = self.lower(expr.factors[0], r, u_jets, depth)
            for f in expr.factors[1:]:
                acc = self.mul(acc, self.lower(f, r, u_jets, depth))
            return acc
        if isinstance(expr, Power):
            return self.power(self.lower(expr.base, r, u_jets, depth), expr.exponent)
        if isinstance(expr, Call):
            arg = self.lower(expr.arg, r, u_jets, depth)
            if expr.name == "sin":
                return self.sin_cos(arg)[0]
            if expr.name == "cos":
                return self.sin_cos(arg)[1]
            if expr.name == "exp":
                return self.exp(arg)
            if expr.name == "log":
                return self.log(arg)
            if expr.name == "tanh":
                return self.tanh(arg)
            if expr.name == "sqrt":
                return self.power(arg, 0.5)
        raise TypeError(f"not an expression node: {expr!r}")


def jet_expand(expr: OperatorExpr, r: np.ndarray, u_jets: dict, depth: int) -> np.ndarray:
    """Jet of ``expr`` given jets for each referenced u-derivative order.

    Args:
        expr: expression tree.
        r: grid nodes, shape (width,).
        u_jets: {derivative order: jet of shape (depth, width)}.
        depth: number of Taylor rows to carry (M + 1).

    Returns:
        Jet of shape (depth, width); row 0 equals the pointwise evaluation
        of the expression at the jets' constant terms.
    """
    tape = Tape()
    out = tape.lower(expr, np.asarray(r, dtype=float), u_jets, depth)
    tape.fill(depth)
    if any(out is jet for jet in u_jets.values()):
        # a bare u(k) (or u(k)^1) lowers to its input jet: hand back a copy
        out = out.copy()
    return out


def series_jets(grid: Grid, orders, expr: OperatorExpr) -> dict:
    """Jets of u, u', ... for a series u = sum_m orders[m] p^m.

    Row m of jet k holds d^k orders[m] / dr^k sampled on the grid.
    """
    depth = len(orders)
    upto = max(max_u_order(expr), 0)
    jets = {}
    for k in range(upto + 1):
        jet = np.empty((depth, grid.n))
        mat = None if k == 0 else grid.diff_matrix(k)
        for m, om in enumerate(orders):
            om = grid.check_length(om)
            jet[m] = om if mat is None else mat @ om
        jets[k] = jet
    return jets


class SeriesTape:
    """Taylor rows of ``expr`` applied to a series fed one order at a time.

    The online counterpart of ``jet_expand`` over ``series_jets``: ``push``
    takes the next order u_j, forms D_k u_j once for every referenced
    derivative order k, steps the tape at row j and returns row j of the
    expression. A run to order M costs O(M) recurrence calls per node
    instead of O(M^2).

    ``columns`` series run side by side: an order is an (n, columns) array,
    and the tape has width n * columns with each node repeated ``columns``
    times, so a tape row is an order flattened. Every recurrence is
    elementwise along the width, so the columns never mix.
    """

    def __init__(self, expr: OperatorExpr, grid: Grid, depth: int, columns: int = 1):
        self._grid = grid
        self._shape = (grid.n, columns)
        upto = max(max_u_order(expr), 0)
        width = grid.n * columns
        self._leaves = {k: np.zeros((depth, width)) for k in range(upto + 1)}
        self._tape = Tape()
        nodes = np.repeat(grid.nodes, columns)
        self._root = self._tape.lower(expr, nodes, self._leaves, depth)
        self._next = 0

    def push(self, u: np.ndarray) -> np.ndarray:
        """Row j of the expression, shape (n, columns), from u_j of that shape."""
        j = self._next
        u = self._grid.check_columns(u)
        for k, leaf in self._leaves.items():
            leaf[j] = (u if k == 0 else self._grid.diff_matrix(k) @ u).reshape(-1)
        self._tape.step(j)
        self._next = j + 1
        return self._root[j].reshape(self._shape)


def expr_partials(expr: OperatorExpr, r: np.ndarray, u_values: dict) -> dict:
    """Pointwise partial derivatives of expr w.r.t. each u-derivative slot.

    ``u_values`` maps derivative order -> sampled values at the nodes.
    Returns {order: d expr / d u^(order)} arrays from one forward-mode
    sweep: the nodes are repeated once per slot along the width, and slot
    k's copy seeds the derivative row of u^(k) alone.
    """
    r = np.asarray(r, dtype=float)
    width = r.shape[0]
    slots = max_u_order(expr) + 1
    u_jets = {}
    for k in range(slots):
        jet = np.zeros((2, slots, width))
        jet[0] = u_values[k]
        jet[1, k] = 1.0
        u_jets[k] = jet.reshape(2, slots * width)
    row = jet_expand(expr, np.tile(r, slots), u_jets, 2)[1]
    return dict(enumerate(row.reshape(slots, width)))


def frechet_at_reference(A_L: np.ndarray, N: OperatorExpr, grid: Grid, u0: np.ndarray) -> np.ndarray:
    """Assembled matrix of the Fréchet derivative of L + N at ``u0``.

    ``A_L`` is the assembled matrix of L, which contributes itself; the
    nonlinear part contributes sum_k diag(dN/du^(k) at u0) D_k. The result
    is a new array; ``A_L`` is not modified.
    """
    A = np.array(A_L, dtype=float)
    add_nonlinear_frechet(A, N, grid, u0)
    return A


def add_nonlinear_frechet(A: np.ndarray, N: OperatorExpr, grid: Grid, u0: np.ndarray) -> None:
    """Add sum_k diag(dN/du^(k) at u0) D_k, N's part of
    ``frechet_at_reference``, to the (n, n) array ``A`` in place."""
    u0 = grid.check_length(u0)
    upto = max_u_order(N)
    if upto < 0:
        return
    stack = grid.derivative_stack(u0, upto)
    partials = expr_partials(N, grid.nodes, stack)
    for k, pk in partials.items():
        if k == 0:
            A.flat[:: grid.n + 1] += pk  # the diagonal, in place
        else:
            A += pk[:, None] * grid.diff_matrix(k)
