"""Collocation grids, differentiation matrices, quadrature and BC solves.

Two grid kinds: ``chebyshev-lobatto`` (spectral, with Clenshaw-Curtis
quadrature) and ``uniform-fd`` (second-order finite differences with
trapezoid quadrature). Nodes are always ascending with nodes[0] = a and
nodes[-1] = b. Differentiation matrices are dense; boundary conditions are
imposed by row replacement. uniform-fd's third- and fourth-order matrices
are products of its first two, formed on the first request for them.

The Chebyshev-Lobatto nodes, matrices and weights on [-1, 1] depend on n
alone, so they are built once per n (``_lobatto_reference``, the last
LOBATTO_CACHE_SIZE sizes, about 2 MB each at n = 256) and every grid of that
size scales its own copies from them.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, toeplitz
from scipy.linalg.lapack import dgetrs
from .errors import (
    ConfigError,
    GridMismatchError,
    SingularOperatorError,
    SingularSystemError,
)
from .expressions import LinearOperator, eval_expr

GRID_KINDS = ("chebyshev-lobatto", "uniform-fd")
MAX_DIFF_ORDER = 4
COND_LIMIT = 1e14
LOBATTO_CACHE_SIZE = 8


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
    C = toeplitz((-1.0) ** k)
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
    x, DM = _chebdif(n, MAX_DIFF_ORDER)
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
    """A fixed 1-D collocation grid with its derivative and quadrature data."""

    kind: str
    n: int
    a: float
    b: float
    nodes: np.ndarray
    _diffs: list
    quad_weights: np.ndarray

    def diff_matrix(self, order: int) -> np.ndarray:
        if not 1 <= order <= MAX_DIFF_ORDER:
            raise ConfigError(f"derivative order {order} outside 1..{MAX_DIFF_ORDER}")
        D = self._diffs[order - 1]
        if D is None:
            # uniform-fd's D_3 = D_1 D_2 and D_4 = D_2 D_2: dense O(n^3)
            # products that only third- and fourth-order problems read
            D1, D2 = self._diffs[:2]
            D = self._diffs[order - 1] = (D1 if order == 3 else D2) @ D2
        return D

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

    def interpolate(self, values: np.ndarray, x: float) -> float:
        """Value of the grid function at an off-grid point x in [a, b]."""
        values = self.check_length(values)
        if not (self.a <= x <= self.b):
            raise ConfigError(f"{x} is outside [{self.a}, {self.b}]")
        if self.kind == "chebyshev-lobatto":
            # Closed-form barycentric weights for Lobatto nodes:
            # (-1)^j, halved at both endpoints.  The affine map to [a, b]
            # rescales all weights equally, which cancels in the ratio.
            diff = x - self.nodes
            hit = np.nonzero(diff == 0.0)[0]
            if hit.size:
                return float(values[hit[0]])
            w = np.ones(self.n)
            w[1::2] = -1.0
            w[0] *= 0.5
            w[-1] *= 0.5
            q = w / diff
            return float(q @ values / np.sum(q))
        return float(np.interp(x, self.nodes, values))


def build_grid(kind: str, n: int, a: float, b: float) -> Grid:
    """Construct a grid of ``n`` nodes on [a, b].

    Raises ConfigError for unknown kinds, n < 8, or a degenerate interval.
    """
    if kind not in GRID_KINDS:
        raise ConfigError(f"unknown grid kind {kind!r}; use one of {GRID_KINDS}")
    if n < 8:
        raise ConfigError(f"grid needs at least 8 nodes, got {n}")
    a, b = float(a), float(b)
    if not b > a:
        raise ConfigError(f"domain [{a}, {b}] is empty")
    scale = 2.0 / (b - a)
    if kind == "chebyshev-lobatto":
        x, DM, w = _lobatto_reference(n)
        nodes = a + (b - a) * (x + 1.0) / 2.0
        diffs = [D * scale ** (k + 1) for k, D in enumerate(DM)]
        weights = w / scale
    else:
        nodes = np.linspace(a, b, n)
        h = (b - a) / (n - 1)
        diffs = [_fd_first(n, h), _fd_second(n, h), None, None]  # see diff_matrix
        weights = np.full(n, h)
        weights[0] = weights[-1] = h / 2.0
    nodes[0], nodes[-1] = a, b  # pin endpoints exactly against roundoff
    return Grid(kind, n, a, b, nodes, diffs, weights)


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
    than the order of the operator being solved.
    """

    location: str
    derivative_order: int
    value: float

    def __post_init__(self):
        if self.location not in ("left", "right"):
            raise ConfigError(f"bad BC location {self.location!r}")
        if self.derivative_order < 0:
            raise ConfigError("BC derivative order must be >= 0")
        # the BC solves skip LAPACK input checks, so a non-finite value
        # would come back as a silent NaN
        if not math.isfinite(self.value):
            raise ConfigError(f"BC value must be finite, got {self.value}")


def assemble_linear(op: LinearOperator, grid: Grid) -> np.ndarray:
    """Dense matrix of sum_k c_k(r) d^k/dr^k on the grid.

    Raises SingularOperatorError if the leading coefficient vanishes at any
    node.
    """
    lead = np.broadcast_to(eval_expr(op.coeffs[-1], grid.nodes), (grid.n,))
    if np.any(lead == 0.0):
        where = grid.nodes[np.asarray(lead == 0.0).nonzero()[0][0]]
        raise SingularOperatorError(
            f"leading coefficient of the order-{op.order} operator vanishes "
            f"at r = {where}"
        )
    A = np.diag(np.broadcast_to(eval_expr(op.coeffs[0], grid.nodes), (grid.n,)).astype(float).copy())
    for k in range(1, op.order + 1):
        ck = np.broadcast_to(eval_expr(op.coeffs[k], grid.nodes), (grid.n,))
        A = A + ck[:, None] * grid.diff_matrix(k)
    return A


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


def lu_condition(lu, matrix: np.ndarray) -> float:
    """1-norm condition number of ``matrix`` from its LU factors ``lu`` (as
    ``lu_factor`` returns them), without forming the inverse.

    ||A||_1 times Hager's lower bound on ||A^-1||_1, iterated as LAPACK's
    dlacn2 does (Hager, SIAM J. Sci. Stat. Comput. 5 (1984) 311; Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 15): at most 11
    O(n^2) solves with the factors, against the O(n^3) of the inverse.
    This is LAPACK's dgecon estimator with its solves done by getrs, the
    solver everything else here uses: dgecon's own result changed in the
    last bit with where its work arrays landed in memory, and a condition
    number written to the path files must repeat bitwise. An exactly
    singular matrix gives inf (its solves are not finite).
    """
    factors, piv = lu
    n = factors.shape[0]

    def solve(b, trans=0):
        return dgetrs(factors, piv, b, trans=trans, overwrite_b=True)[0]

    x = np.full(n, 1.0 / n)
    est, j = 0.0, -1
    for _ in range(5):
        y = solve(x)
        found = float(np.abs(y).sum())
        if not found > est:  # no gain: the bound is reached
            break
        est = found
        z = np.abs(solve(np.where(y >= 0.0, 1.0, -1.0), trans=1))
        last, j = j, int(np.argmax(z))
        if last >= 0 and z[last] == z[j]:
            break
        x = np.zeros(n)
        x[j] = 1.0
    # dlacn2's second test vector, for matrices that defeat the iteration
    alt = np.linspace(1.0, 2.0, n)
    alt[1::2] *= -1.0
    alt_est = 2.0 * float(np.abs(solve(alt)).sum()) / (3.0 * n)
    if not alt_est <= est:  # also lets a non-finite solve through
        est = alt_est
    condition = float(np.linalg.norm(matrix, 1)) * est
    return condition if math.isfinite(condition) else math.inf


def factor_with_condition(matrix: np.ndarray):
    """LU factors of ``matrix`` and its ``lu_condition`` from them.

    A zero pivot is not an error here (the condition reads inf); a matrix
    with a non-finite entry raises SingularSystemError.
    """
    try:
        with warnings.catch_warnings():
            # scipy warns on a zero pivot, which the inf condition reports
            warnings.simplefilter("ignore", LinAlgWarning)
            lu = lu_factor(matrix)
    except ValueError as exc:  # lu_factor's finiteness check
        raise SingularSystemError(f"matrix has non-finite entries: {exc}") from exc
    return lu, lu_condition(lu, matrix)


class BcSystem:
    """A linear operator with BC rows replaced, LU-factored once.

    The factorization is reused for every right-hand side (the zeroth-order
    solve, all higher-order solves, and Newton steps share it when the
    matrix is the same), and ``condition``, the 1-norm condition number, is
    ``lu_condition`` on it. Instances are immutable after construction and
    safe to share across threads.
    """

    def __init__(self, matrix: np.ndarray, bcs, grid: Grid):
        bcs = tuple(bcs)
        order_needed = len(bcs)
        for bc in bcs:
            if bc.derivative_order >= order_needed:
                raise ConfigError(
                    f"BC derivative order {bc.derivative_order} must be below "
                    f"the operator order {order_needed}"
                )
        self.grid = grid
        self.bcs = bcs
        self.rows = bc_row_indices(grid, bcs)
        A = np.array(matrix, dtype=float)
        if A.shape != (grid.n, grid.n):
            raise GridMismatchError(f"matrix shape {A.shape} does not match grid n={grid.n}")
        for i, bc in zip(self.rows, bcs):
            A[i] = bc_row(grid, bc)
        self.matrix = A
        self._lu, self.condition = factor_with_condition(A)
        if not np.isfinite(self.condition) or self.condition > COND_LIMIT:
            raise SingularSystemError(
                f"BC-modified system is numerically singular (cond ~ {self.condition:.3e})"
            )
        interior = np.ones(grid.n, dtype=bool)
        interior[self.rows] = False
        self.interior = interior

    def solve(self, rhs: np.ndarray, bc_values=None) -> np.ndarray:
        """Solve with ``rhs`` at interior rows and BC values at BC rows.

        ``rhs`` is one right-hand side of shape (n,) or K of them as the
        columns of an (n, K) array; the columns are solved independently, so
        a non-finite column does not touch the others. bc_values None means
        "use each BC's own value"; pass zeros (or an explicit sequence) for
        homogeneous versions of the same conditions.
        """
        rhs = np.array(self.grid.check_columns(rhs), order="F")
        if bc_values is None:
            bc_values = [bc.value for bc in self.bcs]
        for i, v in zip(self.rows, bc_values):
            rhs[i] = v
        # LAPACK's getrs, which lu_solve wraps, without the wrapper's
        # per-call checks: no finiteness scan, so a non-finite column is
        # solved (into non-finite values) instead of raising
        x, _ = dgetrs(*self._lu, rhs, overwrite_b=True)
        return x

