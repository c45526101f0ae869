"""Collocation grids, differentiation matrices, quadrature and BC solves.

Two grid kinds: ``chebyshev-lobatto`` (spectral, with Clenshaw-Curtis
quadrature) and ``uniform-fd`` (second-order finite differences with
trapezoid quadrature). Nodes are always ascending with nodes[0] = a and
nodes[-1] = b. Differentiation matrices are dense; boundary conditions are
imposed by row replacement. They are lazy: a grid forms each D_k on the
first request for it, because only the problems that read u^(k) need it (a
riccati problem never reads D_2, a u'' problem with Dirichlet data and an
N without u' never reads D_1).

The Chebyshev-Lobatto nodes, matrices and weights on [-1, 1] depend on n
alone, so they are built once per n (``_lobatto_reference``, the last
LOBATTO_CACHE_SIZE sizes, about 2 MB each at n = 256). A grid of that size
looks them up once, when it is built, and scales its own copy of each D_k
from them when first asked. uniform-fd builds D_1 and D_2 from their
stencils and forms D_3 and D_4 as products of those two.

``LU`` is the package's one LU type: every factorization, solve
and condition estimate, ``BcSystem``'s and the path tracer's, goes through it.
Its LAPACK routines, dgetrf, dgetrs and dlange, are scipy's f2py wrappers,
loaded from scipy's LAPACK extension ``_flapack`` by ``_lapack_routines``
without importing the ``scipy.linalg`` package, whose import would be
about half of a ``hamsolve`` command's start-up.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
from dataclasses import dataclass
from importlib import machinery, util

import numpy as np
import scipy
from .errors import (
    ConfigError,
    GridMismatchError,
    SingularOperatorError,
    SingularSystemError,
    integer_argument,
    real_argument,
)
from .expressions import MAX_DERIVATIVE_ORDER, LinearOperator, eval_expr

GRID_KINDS = ("chebyshev-lobatto", "uniform-fd")
COND_LIMIT = 1e14
LOBATTO_CACHE_SIZE = 8
_FLAPACK = "scipy.linalg._flapack"


def _lapack_routines(directory: str) -> tuple:
    """(dgetrf, dgetrs, dlange) of scipy's LAPACK extension ``_flapack``,
    loaded from its file in ``directory``: the very objects that
    ``scipy.linalg.lapack`` re-exports, without the ``scipy.linalg``
    package, whose import pulls in numpy's f2py, testing, ma, random and
    polynomial modules (about 150 ms, against 3 ms for the file). The
    top-level ``scipy`` package is imported first: on Windows it registers
    the directory of scipy's bundled OpenBLAS. The module is left out of
    ``sys.modules``, where CPython records a single-phase extension such as
    this one when it loads it: a later ``import scipy.linalg`` then loads
    its own module, holding these same routines, as it would without
    hamsolve. Where no file is found, or loading it raises ImportError,
    the extension is imported by name, which imports ``scipy.linalg`` and
    gives the same routines."""
    finder = machinery.FileFinder(directory, (machinery.ExtensionFileLoader, machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_FLAPACK)
    try:
        if spec is None:
            raise ImportError(f"no {_FLAPACK} in {directory}")
        loaded = _FLAPACK in sys.modules
        flapack = util.module_from_spec(spec)
        spec.loader.exec_module(flapack)
        if not loaded:
            sys.modules.pop(_FLAPACK, None)
    except ImportError:
        flapack = importlib.import_module(_FLAPACK)
    return flapack.dgetrf, flapack.dgetrs, flapack.dlange


dgetrf, dgetrs, dlange = _lapack_routines(os.path.join(os.path.dirname(scipy.__file__), "linalg"))


def _sign_matrix(n: int) -> np.ndarray:
    """The (n, n) matrix (-1)^(i+j), exactly +-1.0: scipy's
    ``toeplitz((-1.0) ** arange(n))``, built by numpy alone."""
    sign = (-1.0) ** np.arange(n)
    return np.outer(sign, sign)


def _chebdif(n: int, mmax: int):
    """Chebyshev-Lobatto nodes (descending on [-1,1]) and diff matrices 1..mmax.

    Uses the trig-identity form of the node differences, the flipping trick
    and the negative-sum trick, which keeps higher-order matrices far more
    accurate than repeated squaring of the first-order matrix.
    """
    k = np.arange(n)
    th = k * np.pi / (n - 1)
    x = np.sin(np.pi * (n - 1 - 2 * k) / (2 * (n - 1)))
    n1, n2 = n // 2, (n + 1) // 2
    T = np.tile(th / 2, (n, 1))
    DX = 2 * np.sin(T.T + T) * np.sin(T - T.T)  # x_i - x_j, accurately
    DX = np.vstack((DX[:n1], -np.flipud(np.fliplr(DX[:n2]))))
    np.fill_diagonal(DX, 1.0)
    C = _sign_matrix(n)
    C[0, :] *= 2
    C[-1, :] *= 2
    C[:, 0] /= 2
    C[:, -1] /= 2
    Z = 1.0 / DX
    np.fill_diagonal(Z, 0.0)
    D = np.eye(n)
    out = []
    for ell in range(1, mmax + 1):
        D = ell * Z * (C * np.tile(np.diag(D), (n, 1)).T - D)
        np.fill_diagonal(D, -D.sum(axis=1))
        out.append(D.copy())
    return x, out


def _clencurt(n: int) -> np.ndarray:
    """Clenshaw-Curtis weights for n Chebyshev-Lobatto points on [-1,1]."""
    N = n - 1
    theta = np.pi * np.arange(n) / N
    w = np.zeros(n)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N * N - 1)
        for k in range(1, N // 2):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k * k - 1)
        v -= np.cos(N * theta[ii]) / (N * N - 1)
    else:
        w[0] = w[N] = 1.0 / (N * N)
        for k in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * k * theta[ii]) / (4 * k * k - 1)
    w[ii] = 2.0 * v / N
    return w


@functools.lru_cache(maxsize=LOBATTO_CACHE_SIZE)
def _lobatto_reference(n: int):
    """Nodes, D_1..D_4 and Clenshaw-Curtis weights of n Chebyshev-Lobatto
    points on [-1, 1], in ascending node order. Shared by every grid of
    this size, so every array is read-only."""
    x, DM = _chebdif(n, MAX_DERIVATIVE_ORDER)
    asc = np.arange(n - 1, -1, -1)
    nodes, weights = x[asc], _clencurt(n)[asc]
    diffs = tuple(D[np.ix_(asc, asc)] for D in DM)
    for arr in (nodes, *diffs, weights):
        arr.setflags(write=False)
    return nodes, diffs, weights


def _fd_first(n: int, h: float) -> np.ndarray:
    D = np.zeros((n, n))
    i = np.arange(1, n - 1)[:, None]
    D[i, i + np.array([-1, 1])] = np.array([-0.5, 0.5]) / h
    D[0, :3] = np.array([-1.5, 2.0, -0.5]) / h
    D[-1, -3:] = np.array([0.5, -2.0, 1.5]) / h
    return D


def _fd_second(n: int, h: float) -> np.ndarray:
    D = np.zeros((n, n))
    i = np.arange(1, n - 1)[:, None]
    D[i, i + np.arange(-1, 2)] = np.array([1.0, -2.0, 1.0]) / h**2
    D[0, :4] = np.array([2.0, -5.0, 4.0, -1.0]) / h**2
    D[-1, -4:] = np.array([-1.0, 4.0, -5.0, 2.0]) / h**2
    return D


@dataclass(frozen=True, eq=False)
class Grid:
    """A fixed 1-D collocation grid with its derivative and quadrature data.
    Each array is this grid's own and read-only from birth: ``build_grid``
    freezes the nodes and weights, ``diff_matrix`` each D_k it forms.
    ``_reference`` holds the shared Chebyshev-Lobatto D_k on [-1, 1] that
    a Chebyshev-Lobatto grid scales its own from (empty for uniform-fd)."""

    kind: str
    n: int
    a: float
    b: float
    nodes: np.ndarray
    _diffs: list
    quad_weights: np.ndarray
    _reference: tuple

    def diff_matrix(self, order: int) -> np.ndarray:
        integer_argument(order, "derivative order", 1, MAX_DERIVATIVE_ORDER)
        D = self._diffs[order - 1]
        if D is None:
            # formed on first request (module docstring); uniform-fd's D_3
            # and D_4 are dense O(n^3) products D_1 D_2 and D_2 D_2. Every
            # later caller shares the cached one, so it is read-only
            if self.kind == "chebyshev-lobatto":
                D = self._reference[order - 1] * (2.0 / (self.b - self.a)) ** order
            elif order <= 2:
                D = (_fd_first, _fd_second)[order - 1](self.n, (self.b - self.a) / (self.n - 1))
            else:
                D = self.diff_matrix(order - 2) @ self.diff_matrix(2)
            D.setflags(write=False)
            self._diffs[order - 1] = D
        return D

    def sample(self, expr) -> np.ndarray:
        """An expression in r alone at the nodes, as a fresh float array of
        shape (n,). A constant (``OperatorExpr.folded``) is broadcast to
        every node unscanned: its node was checked finite when built.
        ConfigError if the expression is not finite at some node."""
        if expr.folded is not None:
            return np.full(self.n, expr.folded)
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            vals = np.asarray(eval_expr(expr, self.nodes), dtype=float)
        vals = np.array(np.broadcast_to(vals, (self.n,)))
        bad = np.nonzero(~np.isfinite(vals))[0]
        if bad.size:
            raise ConfigError(f"an expression in r is {vals[bad[0]]} at r = {self.nodes[bad[0]]}")
        return vals

    def check_length(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n,):
            raise GridMismatchError(
                f"expected a grid function of length {self.n}, got shape {values.shape}"
            )
        return values

    def check_columns(self, values: np.ndarray) -> np.ndarray:
        """Like ``check_length``, but also accepts K grid functions side by
        side as the columns of an (n, K) array, and a stack of S such
        blocks as an (S, n, K) array."""
        values = np.asarray(values, dtype=float)
        if values.ndim not in (1, 2, 3) or values.shape[max(values.ndim - 2, 0)] != self.n:
            raise GridMismatchError(
                f"expected grid functions of length {self.n} (as columns), "
                f"got shape {values.shape}"
            )
        return values

    def derivative_stack(self, values: np.ndarray, upto: int) -> dict:
        """{k: d^k values/dr^k} for k = 0..upto, via the diff matrices.

        ``values`` is one grid function, K of them as (n, K) columns, or a
        stack (S, n, K) of such blocks; each block is differentiated on its
        own, so an (S, n, 1) stack takes one matrix-vector product per
        grid function, bitwise what it gets alone.
        """
        values = self.check_columns(values)
        stack = {0: values}
        for k in range(1, upto + 1):
            stack[k] = self.diff_matrix(k) @ values
        return stack

    def interpolate(self, values: np.ndarray, x: float):
        """Value at an off-grid point x in [a, b] of one grid function (a
        float), or of each (n, K) column (shape (K,)), each column by its
        own dot, bitwise what it gets alone."""
        values = self.check_columns(values)
        if values.ndim == 3:
            raise GridMismatchError(f"expected (n,) or (n, K) grid functions, got shape {values.shape}")
        x = real_argument(x, "point", self.a, self.b)
        columns = values.T if values.ndim == 2 else values[None]
        if self.kind == "chebyshev-lobatto":
            diff = x - self.nodes
            hit = np.nonzero(diff == 0.0)[0]
            if hit.size:
                found = np.array(values[hit[0]], ndmin=1)
            else:
                q = lobatto_barycentric_weights(self.n) / diff
                found = np.array([q @ column for column in columns]) / np.sum(q)
        else:
            found = np.array([np.interp(x, self.nodes, column) for column in columns])
        return float(found[0]) if values.ndim == 1 else found


def lobatto_barycentric_weights(n: int) -> np.ndarray:
    """Barycentric weights of n Chebyshev-Lobatto points in ascending
    order: (-1)^j, halved at both ends. The affine map to any [a, b]
    rescales all weights equally, which cancels in the barycentric ratio."""
    w = np.ones(n)
    w[1::2] = -1.0
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def checked_grid_kind(kind: str) -> str:
    """``kind`` itself; ConfigError unless it is one of GRID_KINDS."""
    if kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {kind!r}; use one of {GRID_KINDS}")
    return kind


def checked_grid_size(n: int) -> int:
    """``n`` itself; ConfigError unless it is an integer >= 8."""
    return integer_argument(n, "grid size", 8)


def checked_grid(kind: str, n: int, a, b) -> tuple:
    """``(kind, n, a, b)`` with the ends as floats; ConfigError for an
    unknown kind, a non-integer n or n < 8, ends that are not real
    arguments, or an empty interval. ``build_grid`` and ``ProblemSpec``
    both check by this rule, so a problem cannot name a grid it cannot
    build."""
    checked_grid_kind(kind)
    checked_grid_size(n)
    a, b = real_argument(a, "domain end a"), real_argument(b, "domain end b")
    if not b > a:
        raise ConfigError(f"domain [{a}, {b}] is empty")
    return kind, n, a, b


def build_grid(kind: str, n: int, a: float, b: float) -> Grid:
    """Construct a grid of ``n`` nodes on [a, b], checked by ``checked_grid``."""
    kind, n, a, b = checked_grid(kind, n, a, b)
    if kind == "chebyshev-lobatto":
        x, reference, w = _lobatto_reference(n)
        nodes = a + (b - a) * (x + 1.0) / 2.0
        weights = w / (2.0 / (b - a))
    else:
        reference = ()
        nodes = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    nodes[0], nodes[-1] = a, b  # pin endpoints exactly against roundoff
    for arr in (nodes, weights):
        arr.setflags(write=False)
    return Grid(kind, n, a, b, nodes, [None] * MAX_DERIVATIVE_ORDER, weights, reference)


def integrate(grid: Grid, values: np.ndarray):
    """Quadrature over [a, b] of a grid function (a float), or of each
    column of (n, K) or (S, n, K) grid functions (an array of shape (K,) or
    (S, K))."""
    total = grid.quad_weights @ grid.check_columns(values)
    return float(total) if total.ndim == 0 else total


@dataclass(frozen=True)
class BoundaryCondition:
    """A point condition d^k u/dr^k (endpoint) = value.

    location is "left" or "right"; derivative_order must be strictly less
    than the order of the operator being solved; value is a real argument
    (``errors.real_argument``), stored as a float.
    """

    location: str
    derivative_order: int
    value: float

    def __post_init__(self):
        if self.location not in ("left", "right"):
            raise ConfigError(f"BC location must be left or right, got {self.location!r}")
        integer_argument(self.derivative_order, "BC derivative order", 0)
        # the BC solves skip LAPACK input checks, so a non-finite value
        # would come back as a silent NaN
        object.__setattr__(self, "value", real_argument(self.value, "BC value"))

    def checked_below(self, order: int) -> "BoundaryCondition":
        """This BC; ConfigError unless its derivative order is below
        ``order``, that of the operator it closes."""
        integer_argument(self.derivative_order, f"BC derivative order of an order-{order} operator", 0, order - 1)
        return self


def assemble_linear(op: LinearOperator, grid: Grid) -> np.ndarray:
    """Dense matrix of sum_k c_k(r) d^k/dr^k on the grid. A lower
    coefficient that is the constant 0 (``folded``) is neither sampled nor
    scanned: ``add_operator`` would skip it.

    Raises SingularOperatorError if the leading coefficient vanishes at any
    node.
    """
    lead = grid.sample(op.coeffs[-1])
    if (lead == 0.0).any():
        where = grid.nodes[np.nonzero(lead == 0.0)[0][0]]
        raise SingularOperatorError(
            f"leading coefficient of the order-{op.order} operator vanishes "
            f"at r = {where}"
        )
    coeffs = {k: grid.sample(c) for k, c in enumerate(op.coeffs[:-1]) if c.folded != 0.0}
    coeffs[op.order] = lead
    first = min(k for k, ck in coeffs.items() if ck.any())
    if first == 0:
        A = np.zeros((grid.n, grid.n))
    else:
        # the first term straight into the new matrix: += 0.0 turns its
        # -0.0 entries into the +0.0 that a sum onto zeros gives
        A = coeffs.pop(first)[:, None] * grid.diff_matrix(first)
        A += 0.0
    add_operator(A, grid.diff_matrix, coeffs)
    return A


def add_operator(A: np.ndarray, diff_matrix, coeffs: dict, work=None) -> None:
    """Add sum_k diag(c_k) D_k to the (n, n) array ``A`` in place, from
    ``coeffs`` = {k: c_k at the nodes}, with D_k = ``diff_matrix(k)``: a
    grid's own, or copies in A's layout where A is column-major (a
    product across the two layouts is several times slower). c_0 goes onto
    the diagonal. Each diag(c_k) D_k (k >= 1) is formed in ``work``, an
    (n, n) array in A's layout, or in a fresh one when ``work`` is None. A
    c_k that is zero at every node is skipped, and D_k is not formed for
    it: its zeros would change no entry of an ``A`` built, as every
    caller's is, by sums onto +0.0, since such a sum is never -0.0."""
    for k, ck in coeffs.items():
        if not ck.any():
            continue
        if k == 0:
            diagonal = np.einsum("ii->i", A)  # a writable view
            diagonal += ck
        else:
            A += np.multiply(ck[:, None], diff_matrix(k), out=work)


def bc_row(grid: Grid, bc: BoundaryCondition) -> np.ndarray:
    """The functional row whose dot with u gives the BC's left-hand side."""
    idx = 0 if bc.location == "left" else grid.n - 1
    if bc.derivative_order == 0:
        row = np.zeros(grid.n)
        row[idx] = 1.0
        return row
    return grid.diff_matrix(bc.derivative_order)[idx].copy()


def bc_row_indices(grid: Grid, bcs) -> list:
    """Which matrix rows each BC replaces: left BCs take rows 0,1,...,
    right BCs take rows n-1, n-2, ... in input order."""
    left = right = 0
    rows = []
    for bc in bcs:
        if bc.location == "left":
            rows.append(left)
            left += 1
        else:
            rows.append(grid.n - 1 - right)
            right += 1
    if len(set(rows)) != len(rows) or (left + right) > grid.n:
        raise ConfigError("boundary conditions overlap")
    return rows


@functools.lru_cache(maxsize=LOBATTO_CACHE_SIZE)
def _alternating(n: int) -> np.ndarray:
    """dlacn2's second test vector, (-1)^i (1 + i / (n - 1)), built once
    per n (the last LOBATTO_CACHE_SIZE sizes): read-only, so every solve
    takes a copy."""
    alt = np.linspace(1.0, 2.0, n)
    alt[1::2] *= -1.0
    alt.setflags(write=False)
    return alt


class LU:
    """The LU factorization of a square column-major float array ``a``, in
    place: LAPACK's getrf, called directly as ``solve`` calls getrs, after
    ``norm``, ||a||_1 for ``condition``, is read. The three are scipy's
    wrappers, taken from scipy's LAPACK extension file by
    ``_lapack_routines`` so that start-up skips the ``scipy.linalg``
    package. ``a`` then holds the factors, valid until it is next written
    into. No finiteness scan and no warning: a zero pivot (info > 0) is
    not an error, solves are then not finite and ``condition`` is inf.
    """

    def __init__(self, a: np.ndarray):
        # LAPACK's 1-norm sums each column row by row, bitwise
        # numpy.linalg.norm's abs(a).sum(axis=0).max(), without forming |a|
        self.norm = float(dlange("1", a))
        self.factors, self.piv, _ = dgetrf(a, 1)  # overwrite_a

    def solve(self, rhs: np.ndarray, trans: int = 0) -> np.ndarray:
        """x with A x = ``rhs`` (A^T x = ``rhs`` for ``trans`` = 1), for
        ``rhs`` of shape (n,) or (n, K), solved in place when it is a
        column-major float array. LAPACK's getrs, which lu_solve wraps,
        without the wrapper's per-call checks: no finiteness scan, so a
        non-finite column is solved (into non-finite values) instead of
        raising, and the columns never mix. scipy's getrs wrapper shifts
        the pivots to 1-based and back in place, with the GIL released, so
        each call gets a copy: threads may then solve with one LU at once."""
        return dgetrs(self.factors, self.piv.copy(), rhs, trans, 1)[0]  # overwrite_b

    def condition(self) -> float:
        """1-norm condition number of ``matrix``, without forming the
        inverse.

        ||A||_1 times Hager's lower bound on ||A^-1||_1, iterated as
        LAPACK's dlacn2 does (Hager, SIAM J. Sci. Stat. Comput. 5 (1984)
        311; Higham, *Accuracy and Stability of Numerical Algorithms*,
        ch. 15): at most 11 O(n^2) solves with the factors, against the
        O(n^3) of the inverse. This is LAPACK's dgecon estimator with its
        solves done by ``solve``: dgecon's own result changed in the last
        bit with where its work arrays landed in memory, and a condition
        number written to the path files must repeat bitwise. An exactly
        singular matrix gives inf (its solves are not finite).
        """
        n = self.factors.shape[0]
        x = np.full(n, 1.0 / n)
        est, j = 0.0, -1
        for _ in range(5):
            y = self.solve(x)
            found = float(np.abs(y).sum())
            if not found > est:  # no gain: the bound is reached
                break
            est = found
            z = np.abs(self.solve(np.where(y >= 0.0, 1.0, -1.0), trans=1))
            last, j = j, int(np.argmax(z))
            if last >= 0 and z[last] == z[j]:
                break
            x = np.zeros(n)
            x[j] = 1.0
        # dlacn2's second test vector, for matrices that defeat the iteration
        alt_est = 2.0 * float(np.abs(self.solve(_alternating(n).copy())).sum()) / (3.0 * n)
        if not alt_est <= est:  # also lets a non-finite solve through
            est = alt_est
        condition = self.norm * est
        return condition if math.isfinite(condition) else math.inf


class BcSystem:
    """A linear operator with BC rows replaced, LU-factored once.

    ``lu``, the factorization, serves every right-hand side: the zeroth-order
    solve, all higher-order solves, and the tracer's tangent at eps = 0,
    where it is the homotopy's whole jacobian. ``condition``, the 1-norm
    condition number, is ``lu.condition()``. ``matrix``, their matrix, and
    ``interior``, the mask of the non-BC rows, are the system's own
    read-only arrays. Instances are immutable after construction and safe
    to share across threads (``LU.solve``).
    """

    def __init__(self, matrix: np.ndarray, bcs, grid: Grid):
        bcs = tuple(bcs)
        for bc in bcs:
            bc.checked_below(len(bcs))
        self.grid = grid
        self.bcs = bcs
        self.rows = bc_row_indices(grid, bcs)
        A = np.array(matrix, dtype=float)
        if A.shape != (grid.n, grid.n):
            raise GridMismatchError(f"matrix shape {A.shape} does not match grid n={grid.n}")
        for i, bc in zip(self.rows, bcs):
            A[i] = bc_row(grid, bc)
        A.setflags(write=False)
        self.matrix = A
        # the matrix holds user expressions' values: NaN or inf is an error
        if not np.isfinite(A).all():
            raise SingularSystemError("BC-modified system has non-finite entries")
        self.lu = LU(np.array(A, order="F"))
        self.condition = self.lu.condition()  # a float, inf if not finite
        if self.condition > COND_LIMIT:
            raise SingularSystemError(
                f"BC-modified system is numerically singular (cond ~ {self.condition:.3e})"
            )
        interior = np.ones(grid.n, dtype=bool)
        interior[self.rows] = False
        interior.setflags(write=False)
        self.interior = interior

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve with the grid function ``rhs`` at interior rows and each
        BC's own value at its row. Solves with other BC values zero the BC
        rows and call ``lu.solve`` directly."""
        rhs = np.array(self.grid.check_length(rhs))
        for i, bc in zip(self.rows, self.bcs):
            rhs[i] = bc.value
        return self.lu.solve(rhs)
