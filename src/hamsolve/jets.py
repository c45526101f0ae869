"""Truncated Taylor-series (jet) arithmetic over grid nodes.

A jet is a plain ndarray of shape (depth, width): row m holds the m-th
Taylor coefficient of a quantity expanded in the embedding parameter, at
each of ``width`` grid nodes. All operations truncate at ``depth`` rows.

Analytic functions are propagated by the standard coefficient recurrences
(exp, log, real powers, the coupled sin/cos pair, tanh via 1 - tanh^2).
Row 0 of each is the function's value at the constant term, computed by
``expressions.checked_power`` and ``checked_call``, so a jet outside the
domain raises the same DomainError as a pointwise evaluation. Two-row
jets double as forward-mode dual numbers, which is how the directional
(Fréchet) derivative of an expression is computed.

Every recurrence is a node of a ``Tape`` that fills one Taylor row at a
time, and ``Tape`` is the one jet API. ``jet_expand`` is its batch form,
filling all rows of an expression at once; the series engine extends a
``SeriesTape`` by one row per order (docs/recursions.md, "Online jets"),
and Newton refills the two rows of a ``PartialsTape`` at every iterate.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .expressions import (
    Call,
    Const,
    Coord,
    OperatorExpr,
    Power,
    Product,
    Sum,
    U,
    checked_call,
    checked_power,
)
from .grids import Grid, add_operator

# np.einsum without its __array_function__ dispatch: with optimize False it
# calls the C kernel straight away, so every row is bitwise np.einsum's
_einsum = np.einsum.__wrapped__


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
    per order, as the inputs' rows arrive (``SeriesTape``), or stepped
    through every row at once (``jet_expand``). Each recurrence lives here
    once.
    """

    def __init__(self):
        self._rows = []

    def step(self, m: int) -> None:
        for row in self._rows:
            row(m)

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
            _einsum("ij,ij->j", a[: m + 1], b[m::-1], out=out[m])

        self._rows.append(row)
        return out

    def power(self, u: np.ndarray, exponent: float, call: str = "") -> np.ndarray:
        """u ** exponent; ``call`` names the function it is (sqrt), if any.

        A non-negative integer power is a chain of products, which holds
        where u_0 = 0; every other exponent takes the general recurrence,
        which divides by u_0 (docs/recursions.md, "Online jets").
        """
        if float(exponent).is_integer() and exponent >= 0:
            k = int(exponent)
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
        # from u w' = rho u' w: m u0 w_m = sum_k (rho k - (m-k)) u_k w_{m-k};
        # row m of the table holds the weights, k = 1..m in its first m slots
        ks = np.arange(1, u.shape[0])
        ms = np.arange(u.shape[0])[:, None]
        weights = exponent * ks - (ms - ks)

        def row(m):
            if m == 0:
                out[0] = checked_call(call, u[0]) if call else checked_power(u[0], exponent)
                return
            w = _einsum("i,ij,ij->j", weights[m, :m], u[1 : m + 1], out[m - 1 :: -1], out=out[m])
            w /= m * u[0]

        self._rows.append(row)
        return out

    def exp(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        ku = np.zeros_like(u)  # row k holds k u_k, written as row k arrives

        def row(m):
            if m == 0:
                out[0] = checked_call("exp", u[0])
                return
            np.multiply(m, u[m], out=ku[m])
            w = _einsum("ij,ij->j", ku[1 : m + 1], out[m - 1 :: -1], out=out[m])
            w /= m

        self._rows.append(row)
        return out

    def log(self, u: np.ndarray) -> np.ndarray:
        out = np.zeros_like(u)
        js = np.arange(1, u.shape[0], dtype=float)

        def row(m):
            if m == 0:
                out[0] = checked_call("log", u[0])
                return
            # m u_m - sum_j (m-j) u_j w_{m-j} over j = 1..m-1, empty at m = 1
            w = _einsum("i,ij,ij->j", m - js[: m - 1], u[1:m], out[m - 1 : 0 : -1], out=out[m])
            np.subtract(m * u[m], w, out=w)
            w /= m * u[0]

        self._rows.append(row)
        return out

    def sin_cos(self, u: np.ndarray):
        s = np.zeros_like(u)
        c = np.zeros_like(u)
        ku = np.zeros_like(u)  # as in exp

        def row(m):
            if m == 0:
                s[0] = checked_call("sin", u[0])
                c[0] = checked_call("cos", u[0])
                return
            np.multiply(m, u[m], out=ku[m])
            sm = _einsum("ij,ij->j", ku[1 : m + 1], c[m - 1 :: -1], out=s[m])
            sm /= m
            cm = _einsum("ij,ij->j", ku[1 : m + 1], s[m - 1 :: -1], out=c[m])
            np.negative(cm, out=cm)
            cm /= m

        self._rows.append(row)
        return s, c

    def tanh(self, u: np.ndarray) -> np.ndarray:
        t = np.zeros_like(u)
        g = np.zeros_like(u)  # g = 1 - t^2, filled alongside t
        ku = np.zeros_like(u)  # as in exp

        def row(m):
            if m == 0:
                t[0] = checked_call("tanh", u[0])
                g[0] = 1.0 - t[0] ** 2
                return
            np.multiply(m, u[m], out=ku[m])
            tm = _einsum("ij,ij->j", ku[1 : m + 1], g[m - 1 :: -1], out=t[m])
            tm /= m
            gm = _einsum("ij,ij->j", t[: m + 1], t[m::-1], out=g[m])
            np.negative(gm, out=gm)

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
                return self.power(arg, 0.5, "sqrt")
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
    for m in range(depth):
        tape.step(m)
    if any(out is jet for jet in u_jets.values()):
        # a bare u(k) (or u(k)^1) lowers to its input jet: hand back a copy
        out = out.copy()
    return out


class SeriesTape:
    """Taylor rows of ``expr`` applied to a series whose orders arrive one
    at a time.

    The online counterpart of ``jet_expand`` over the derivative stack of
    all orders. The tape holds ``orders``, the series' (order + 1, n,
    columns) array, which the caller fills, and whose flat view is the
    leaf of u itself. ``push`` reads the next order u_j there in place,
    writes D_k u_j, one matrix product for every referenced derivative
    order k, straight into row j of the other leaves, steps the tape at
    row j and returns row j of the expression. A run to order M costs O(M)
    recurrence calls per node instead of O(M^2). An expression free of u
    reads no leaf, but its tape still holds the orders.

    ``columns`` series run side by side: an order is an (n, columns) array,
    and the tape has width n * columns with each node repeated ``columns``
    times, so a tape row is an order flattened. Every recurrence is
    elementwise along the width, so the columns never mix.
    """

    def __init__(self, expr: OperatorExpr, grid: Grid, order: int, columns: int):
        shape = (order, grid.n, columns)
        self.orders = np.empty((order + 1, grid.n, columns))
        leaves = [self.orders.reshape(order + 1, -1)[:order]]
        leaves += [np.zeros((order, grid.n * columns)) for _ in range(expr.u_order)]
        self._diffs = [grid.diff_matrix(k) for k in range(1, expr.u_order + 1)]
        # (n, columns) views of every row of the leaves of D_k u and the root
        self._diff_rows = [leaf.reshape(shape) for leaf in leaves[1:]]
        tape = Tape()
        root = tape.lower(expr, np.repeat(grid.nodes, columns), dict(enumerate(leaves)), order)
        self._step = tape.step
        self._root_rows = root.reshape(shape)
        self._next = 0

    def push(self) -> np.ndarray:
        """Row j of the expression, shape (n, columns), once ``orders[j]``
        holds u_j."""
        j = self._next
        u = self.orders[j]
        for D, rows in zip(self._diffs, self._diff_rows):
            np.matmul(D, u, out=rows[j])
        self._step(j)
        self._next = j + 1
        return self._root_rows[j]


class PartialsTape:
    """Pointwise partials {k: d expr / d u^(k)} of one expression at fixed
    nodes, given {k: values of u^(k)}, from a tape lowered once, and the
    expression's Fréchet derivative built from them (``add_frechet``).

    The tape is one forward-mode sweep: the nodes are repeated once per
    u-derivative slot along the width, and slot k's copy seeds the
    derivative row of u^(k) alone. A call writes the values into the
    leaves' row 0 and steps rows 0 and 1. Every node rewrites the rows it
    reads, so each call is bitwise a freshly lowered tape's, and a caller
    that needs the partials at many u (Newton) lowers the tape once. The
    arrays returned are views of the tape's buffers, valid until the next
    call. ``u_independent`` says the expression reads no u: its derivative is 0.
    """

    def __init__(self, expr: OperatorExpr, r: np.ndarray):
        r = np.asarray(r, dtype=float)
        self._width = r.shape[0]
        self._slots = expr.u_order + 1
        self.u_independent = self._slots == 0
        self._leaves = {}
        for k in range(self._slots):
            jet = np.zeros((2, self._slots, self._width))
            jet[1, k] = 1.0
            self._leaves[k] = jet.reshape(2, self._slots * self._width)
        self._tape = Tape()
        self._root = self._tape.lower(expr, np.tile(r, self._slots), self._leaves, 2)

    def __call__(self, u_values: dict) -> dict:
        for k, leaf in self._leaves.items():
            leaf[0].reshape(self._slots, self._width)[:] = u_values[k]
        self._tape.step(0)
        self._tape.step(1)
        return dict(enumerate(self._root[1].reshape(self._slots, self._width)))

    def add_frechet(self, A: np.ndarray, grid: Grid, u: np.ndarray, diff_matrix=None, work=None) -> None:
        """Add sum_k diag(d expr/du^(k) at u) D_k, the Fréchet derivative
        at ``u`` on the grid the tape was lowered on, to the (n, n) array
        ``A`` in place, with D_k from ``diff_matrix`` and each term formed
        in ``work`` (``add_operator``; the grid's own D_k and a fresh array
        by default). An overflowing partial enters as inf or nan without a
        warning; ``BcSystem`` and Newton report it as SingularSystemError.
        """
        u = grid.check_length(u)
        if not self.u_independent:
            with np.errstate(over="ignore", invalid="ignore"):
                partials = self(grid.derivative_stack(u, self._slots - 1))
                add_operator(A, grid.diff_matrix if diff_matrix is None else diff_matrix, partials, work)
