"""Series solver: zeroth-order solve, order-m recursion, residuals.

The homotopy family is (1 - p) L_opt(u - u_0) = p hbar H(r) F(u) with
F(u) = L(u) + N(u) - s(r), (*) of docs/recursions.md. Expanding
u = sum_m u_m p^m and matching powers of p gives the order-m equations

    L_opt(u_m - chi_m u_{m-1}) = hbar H(r) D_{m-1}[F],   chi_1 = 0, chi_m = 1,

where D_k[F] is the k-th Taylor coefficient of F applied to the series
(docs/recursions.md carries the derivation). The right-hand side passed to
the factored L_opt solve is therefore

    rhs_m = hbar H (L u_{m-1} + D_{m-1}[N] - delta_{m,1} s) + chi_m L_opt u_{m-1}.

When H = 1 and the core's matrix is L's own (always for use-L; for any
other core when the assembled matrices are equal), L_opt^-1 P L u_{m-1}
(P zeroes the BC rows) is u_{m-1} for m >= 2, which meets the homogeneous
BCs, and 0 for m = 1, as L_opt u_0 = 0 off the BC rows. So L folds out:

    u_m = c_m u_{m-1} + L_opt^-1 P hbar (D_{m-1}[N] - delta_{m,1} s),
    c_1 = 0, c_m = chi_m + hbar,

with chi_m = 0 in ``perturbation_series``. At hbar = -1, c_m is exactly 0.0,
not a difference of rounded terms, which is what makes the reduced-method
comparison meaningful at tight tolerances.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, RangeError, integer_argument
from .expressions import LinearOperator, OperatorExpr, eval_expr
from .grids import BcSystem, Grid, assemble_linear, integrate
from .jets import PartialsTape, SeriesTape
from .problem import HamConfig, ProblemSpec, SeriesSolution, checked_hbar, series_diverges


class SeriesBatch(NamedTuple):
    """Final state of K series run side by side by ``Workspace.run_many``."""

    partial_sums: np.ndarray  # (n, K): column k is u_0 + ... + u_M at the k-th hbar
    residuals: np.ndarray  # (K,) mean squared residual of each partial sum
    diverged: np.ndarray  # (K,) the divergence flag of each column


class Workspace:
    """Assembled matrices, factorization, and u_0 for one problem + config.

    Every series runs at ``config.order``; hbar is the one setting a call
    may change, and nothing here depends on it, so one workspace serves a
    whole hbar scan. The problem-level set-up (grid, ``A_L``, ``s_vals``,
    the factored core and ``u0``) depends on the problem and the core mode
    alone, and comes from ``_problem_set_up``, which hands the last set-up
    built to the next workspace on the same problem and core: a solve and
    its equivalence check, or a series and its trace, build it once.
    ``H_vals`` and ``unit_weight`` are the workspace's own. Instances are
    immutable once built, so threads may run one at once (``LU.solve``),
    and two workspaces may share a set-up: the engine, the tracer and the
    oracle read the same arrays, so each array is read-only. The set-up
    freezes ``A_L``, ``s_vals`` and ``u0``, the workspace ``H_vals``; the
    grid and the core's ``BcSystem`` freeze their own. Threads may also
    build workspaces at once: the memo's one slot is read once and replaced
    whole, never updated in place, so a race costs at most a second build,
    and each workspace keeps the set-up it read or built.
    """

    def __init__(self, problem: ProblemSpec, config: HamConfig):
        self.problem = problem
        self.config = config
        set_up = _problem_set_up(problem, config.lopt_mode)
        self.grid, self.A_L, self.s_vals, self.lopt, core_is_L, self.u0 = set_up
        self.H_vals = self.grid.sample(config.H)
        if (self.H_vals == 0.0).any():
            raise ConfigError("auxiliary weight H vanishes at a grid node")
        self.unit_weight = not (self.H_vals != 1.0).any()  # H = 1 at every node
        self._folds = core_is_L and self.unit_weight  # L u_{m-1} folds out (module docstring)
        self.H_vals.setflags(write=False)

    def _march(self, hbars: np.ndarray, deformation: bool = True) -> np.ndarray:
        """Orders u_0..u_M of K series side by side, shape (M + 1, n, K).

        Column k follows hbar = hbars[k]. Every step is columnwise (the
        tape's recurrences, the matrix products and the triangular solves),
        so the columns never mix and one that overflows leaves the others
        alone. With K = 1 each step is the single-series arithmetic. With
        ``deformation`` False the loop drops the chi_m term, which is
        ``perturbation_series``'s recursion.

        Each order is one tape push and one in-place solve, stored in the
        tape's ``orders``, where the next push reads it; a folding workspace
        adds c_m u_{m-1} (module docstring), any other forms A_L u_{m-1}. The
        rhs is formed in (n, K) buffers allocated once, keeping every rounding
        of the expressions in the comments, so each order is bitwise theirs.
        """
        order = self.config.order
        n, K = self.grid.n, len(hbars)
        H = self.H_vals[:, None]
        weigh = not self.unit_weight  # scaling by H = 1 changes no bit: skipped
        rows, solve = self.lopt.rows, self.lopt.lu.solve
        # row m-1 of the tape is D_{m-1}[N]; each order is pushed once
        tape = SeriesTape(self.problem.N, self.grid, order, K)
        orders = tape.orders
        orders[0] = self.u0[:, None]
        t, work = np.empty((n, K)), np.empty((n, K))
        rhs = np.empty((n, K), order="F")  # column-major: getrs solves it in place
        c = hbars + (1.0 if deformation else 0.0)  # c_m = chi_m + hbar for m >= 2
        # an order that overflows shows in the norms and the divergence flag
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, order + 1):
                u_prev = orders[m - 1]
                # forcing = D_{m-1}[N] - delta_{m,1} s (module docstring)
                forcing = tape.push()
                if m == 1:
                    forcing = np.subtract(forcing, self.s_vals[:, None], out=work)
                if self._folds:
                    np.multiply(hbars, forcing, out=rhs)  # rhs = hbar forcing
                else:
                    # rhs = hbar (H (A_L u_{m-1} + forcing)) + chi (L_opt u_{m-1})
                    np.matmul(self.A_L, u_prev, out=t)
                    np.add(t, forcing, out=work)
                    if weigh:
                        work *= H
                    np.multiply(hbars, work, out=rhs)
                    if deformation:
                        np.matmul(self.lopt.matrix, u_prev, out=t)
                        # a product by chi = 1 changes no bit; 0 * (L_opt u_0)
                        # is kept, as it is nan where L_opt u_0 overflows
                        if m == 1:
                            t *= 0.0
                        rhs += t
                for i in rows:  # homogeneous BCs
                    rhs[i] = 0.0
                if self._folds and m > 1:  # u_m = c_m u_{m-1} + solution
                    np.add(np.multiply(c, u_prev, out=t), solve(rhs), out=orders[m])
                else:
                    orders[m] = solve(rhs)
        return orders

    def run(self, hbar: Optional[float] = None) -> SeriesSolution:
        cfg = self.config if hbar is None else self.config.with_hbar(hbar)
        orders = self._march(np.array([cfg.hbar]))
        return series_solution(self.grid, self.operator_values, orders, cfg)

    def run_many(self, hbars) -> SeriesBatch:
        """The series at K hbar values through one recursion.

        The K columns march together: one tape K grids wide and one
        K-column triangular solve per order. Only the final
        partial sums, their residuals (``mean_square``) and the flags
        (``_divergence``) are formed. A column's partial sum agrees with
        ``run`` at its hbar to roundoff but not bitwise, because a K-column
        matrix product rounds differently from a matrix-vector product; with
        K = 1 it is bitwise equal, and so are the residual and the flag.
        """
        hbars = np.array([checked_hbar(h) for h in hbars])
        if hbars.size == 0:
            raise ConfigError("no hbar values to run")
        orders = self._march(hbars)
        U = orders.sum(axis=0)
        return SeriesBatch(U, mean_square(self.grid, self.operator_values(U)), _divergence(orders)[1])

    def perturbation_series(self) -> np.ndarray:
        """Coefficients v_0..v_M of the weak-nonlinearity series, (M + 1, n),
        at the workspace's order M.

        w solves Lc(w - u_0) = mu H F(w), and v_k is its k-th Taylor
        coefficient in mu: v_0 = u_0 and Lc v_k = H D_{k-1}[F(v)] under
        homogeneous BCs: one K = 1 march with hbar = 1 and chi = 0 (c_k = 1
        for k >= 2 where L folds out). Dividing the deformation family by 1 - p
        gives mu = hbar p / (1 - p), so at every hbar the order-M partial sum is

            U_M(hbar) = sum_k C(M, k) hbar^k v_k

        to roundoff of order eps sum_k C(M, k) |hbar|^k |v_k|
        (docs/recursions.md, "One series for every hbar").
        """
        return self._march(np.ones(1), deformation=False)[:, :, 0]

    def operator_values(self, U: np.ndarray) -> np.ndarray:
        """F(U) = L U + N(U) - s at every node (BC rows included); U may be
        (n, K) columns or an (S, n, K) stack of them."""
        return operator_values(self.problem.N, self.grid, self.A_L, self.s_vals, U)


def operator_values(
    N: OperatorExpr, grid: Grid, A_L: np.ndarray, s_vals: np.ndarray, U: np.ndarray
) -> np.ndarray:
    """F(U) = A_L U + N(U) - s sampled at every node (BC rows included).

    ``U`` is one grid function, K of them as (n, K) columns, or a stack
    (S, n, K) of such blocks; the matrices act on each block on its own.
    """
    U = grid.check_columns(U)
    nodes = grid.nodes.reshape((grid.n, 1) if U.ndim > 1 else (grid.n,))
    # a diverged U gives non-finite values, which the residual reports
    with np.errstate(over="ignore", invalid="ignore"):
        stack = grid.derivative_stack(U, N.u_order)
        # an N that reads no u (or no r) broadcasts in the sum, to U's shape
        nl = np.asarray(eval_expr(N, nodes, stack), dtype=float)
        return A_L @ U + nl - s_vals.reshape(nodes.shape)


def mean_square(grid: Grid, f: np.ndarray):
    """Mean of f^2 over the domain, by the grid's quadrature rule: a float
    for one grid function, one value per column for (n, K) or (S, n, K)
    ones. Each column takes its own quadrature dot, as a contiguous (n, 1)
    block of one stack, bitwise what it gets alone; a product with a
    strided (n, K) block rounds differently."""
    f = grid.check_columns(f)
    K = f.shape[-1] if f.ndim > 1 else 1
    stack = np.ascontiguousarray(f.reshape(-1, grid.n, K).transpose(0, 2, 1)).reshape(-1, grid.n, 1)
    with np.errstate(over="ignore"):  # a residual past the range reads inf
        squares = integrate(grid, stack * stack)[:, 0] / (grid.b - grid.a)
    return float(squares[0]) if f.ndim == 1 else squares.reshape(f.shape[:-2] + (K,))


def _divergence(orders: np.ndarray):
    """Per-order sup norms, (M + 1, K), and ``series_diverges`` flags, (K,), of (M + 1, n, K) orders."""
    norms = np.max(np.abs(orders), axis=1)
    return norms, np.array([series_diverges(column) for column in norms.T.tolist()])


def series_solution(grid: Grid, F: Callable[[np.ndarray], np.ndarray], orders: np.ndarray, config: HamConfig) -> SeriesSolution:
    """The SeriesSolution of the orders u_0..u_M, given as an (M + 1, n, 1)
    stack; ``F`` is ``operator_values`` on the problem's matrices.

    The norms and the flag come from ``_divergence``, as ``run_many``'s do.
    The partial sums, summed in order as a running sum would, go through one
    stacked F(U) and ``mean_square``: one matrix-vector product per matrix
    and one quadrature dot each, bitwise what a partial sum gets alone.
    """
    norms, diverged = _divergence(orders)
    return SeriesSolution(
        orders=tuple(orders[:, :, 0]),
        config=config,
        per_order_norms=tuple(norms[:, 0].tolist()),
        residual_history=tuple(mean_square(grid, F(np.cumsum(orders, axis=0)))[:, 0].tolist()),
        diverged=bool(diverged[0]),
    )


# the last set-up ``_problem_set_up`` built: (problem, lopt_mode, set-up),
# or None while a set-up is being built or none has been
_last_set_up = None


def _problem_set_up(problem: ProblemSpec, mode) -> tuple:
    """``(grid, A_L, s_vals, lopt, core_is_L, u0)`` of ``problem`` under the
    linear-core ``mode``, the last one built when both match it.

    The memo has one slot. The problem matches by identity; the slot holds
    it, so its id cannot be reused. A named mode matches by equality, a
    user ``LinearOperator`` by identity, because equal expressions can
    differ in the sign of a zero. On a miss the slot is emptied before the
    build, so at most one set-up stays alive beside the one being built,
    and it is filled only once the build returns, so a set-up that raises
    is not kept.
    """
    global _last_set_up
    slot = _last_set_up
    if slot is not None and slot[0] is problem:
        last_mode = slot[1]
        if last_mode is mode or (isinstance(mode, str) and last_mode == mode):
            return slot[2]
    _last_set_up = None
    grid = problem.make_grid()
    A_L = assemble_linear(problem.L, grid)
    s_vals = grid.sample(problem.s)
    lopt, core_is_L = _build_lopt_system(problem, mode, grid, A_L)
    u0 = lopt.solve(np.zeros(grid.n))
    for arr in (A_L, s_vals, u0):
        arr.setflags(write=False)
    set_up = (grid, A_L, s_vals, lopt, core_is_L, u0)
    _last_set_up = (problem, mode, set_up)
    return set_up


def _build_lopt_system(problem: ProblemSpec, mode, grid: Grid, A_L: np.ndarray):
    """The factored linear core of each mode (use-L's is ``A_L`` itself), and
    whether its matrix equals ``A_L``, which with H = 1 decides the folded
    right-hand side (module docstring)."""
    core = A_L
    if isinstance(mode, LinearOperator):
        if mode.order != len(problem.bcs):
            raise ConfigError(
                f"substitute linear operator of order {mode.order} needs "
                f"{mode.order} BCs, problem has {len(problem.bcs)}"
            )
        core = assemble_linear(mode, grid)
    elif mode == "frechet-at-u0":
        # linearize F at the u0 of plain L (breaks the circular definition
        # deterministically)
        core = A_L.copy()
        u0 = BcSystem(A_L, problem.bcs, grid).solve(np.zeros(grid.n))
        PartialsTape(problem.N, grid.nodes).add_frechet(core, grid, u0)
    return BcSystem(core, problem.bcs, grid), core is A_L or np.array_equal(core, A_L)


def run_ham(problem: ProblemSpec, config: HamConfig) -> SeriesSolution:
    """Full series run: u_0 then order-m solves up to the truncation order.

    The result's ``diverged`` flag is ``series_diverges`` of the per-order
    sup norms; a diverged series is still returned.
    """
    return Workspace(problem, config).run()


def partial_sum(series: SeriesSolution, upto: int) -> np.ndarray:
    integer_argument(upto, "partial sum order", 0, series.truncation_order, RangeError)
    return np.add.reduce(np.stack(series.orders[: upto + 1]), axis=0)
