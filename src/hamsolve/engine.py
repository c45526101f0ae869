"""Series solver: zeroth-order solve, order-m recursion, residuals.

The homotopy family is (1 - p) L_opt(u - u_0) = p hbar H(r) F(u) with
F(u) = L(u) + N(u) - s(r), (*) of docs/recursions.md. Expanding
u = sum_m u_m p^m and matching powers of p gives the order-m equations

    L_opt(u_m - chi_m u_{m-1}) = hbar H(r) D_{m-1}[F],   chi_1 = 0, chi_m = 1,

where D_k[F] is the k-th Taylor coefficient of F applied to the series
(docs/recursions.md carries the derivation). The right-hand side passed to
the factored L_opt solve is therefore

    rhs_m = (hbar H + chi_m) (L u_{m-1}) + hbar H (D_{m-1}[N] - delta_{m,1} s)

grouped so that the special case hbar = -1, H = 1 cancels the L u_{m-1}
term exactly (coefficient 0.0, not a difference of rounded terms), which is
what makes the reduced-method comparison meaningful at tight tolerances.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, RangeError
from .expressions import LinearOperator, OperatorExpr, eval_expr, max_u_order
from .grids import BcSystem, Grid, assemble_linear, integrate
from .jets import SeriesTape, add_nonlinear_frechet
from .problem import HamConfig, ProblemSpec, SeriesSolution, checked_hbar, series_diverges


class SeriesBatch(NamedTuple):
    """Final state of K series run side by side by ``Workspace.run_many``."""

    partial_sums: np.ndarray  # (n, K): column k is u_0 + ... + u_M at the k-th hbar
    residuals: np.ndarray  # (K,) mean squared residual of each partial sum
    diverged: np.ndarray  # (K,) the divergence flag of each column


class Workspace:
    """Assembled matrices, factorization, and u_0 for one problem + config.

    Everything here is independent of hbar and of the truncation order, so
    one workspace serves a whole hbar scan. Instances are not thread-safe to
    build but immutable afterwards.
    """

    def __init__(self, problem: ProblemSpec, config: HamConfig):
        self.problem = problem
        self.config = config
        self.grid = problem.make_grid()
        self.A_L = assemble_linear(problem.L, self.grid)
        self.s_vals = self.grid.sample(problem.s)
        self.H_vals = self.grid.sample(config.H)
        if np.any(self.H_vals == 0.0):
            raise ConfigError("auxiliary weight H vanishes at a grid node")
        self.lopt = _build_lopt_system(problem, config, self.grid, self.A_L)
        self.u0 = self.lopt.solve(np.zeros(self.grid.n))

    def _march(self, hbars: np.ndarray, order: int) -> np.ndarray:
        """Orders u_0..u_M of K series side by side, shape (M + 1, n, K).

        Column k follows hbar = hbars[k]. Every step is columnwise (the
        tape's recurrences, the matrix products and the triangular solves),
        so the columns never mix and one that overflows leaves the others
        alone. With K = 1 each step is the single-series arithmetic.
        """
        H = self.H_vals[:, None]
        homogeneous = np.zeros(len(self.problem.bcs))
        # row m-1 of the tape is D_{m-1}[N]; each order is pushed once
        tape = SeriesTape(self.problem.N, self.grid, order, len(hbars))
        orders = np.empty((order + 1, self.grid.n, len(hbars)))
        orders[0] = self.u0[:, None]
        # an order that overflows shows in the norms and the divergence flag
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, order + 1):
                u_prev = orders[m - 1]
                forcing = tape.push(u_prev)
                # rhs_m from u_{m-1} and forcing = D_{m-1}[N] (module docstring)
                chi = 0.0 if m == 1 else 1.0
                t = self.A_L @ u_prev
                if m == 1:
                    forcing = forcing - self.s_vals[:, None]
                rhs = (hbars * H + chi) * t + hbars * (H * forcing)
                orders[m] = self.lopt.solve(rhs, bc_values=homogeneous)
        return orders

    def run(self, hbar: Optional[float] = None, order: Optional[int] = None) -> SeriesSolution:
        cfg = self.config
        if hbar is not None:
            cfg = cfg.with_hbar(hbar)
        if order is not None:
            cfg = cfg.with_order(order)
        orders = self._march(np.array([cfg.hbar]), cfg.order)
        return series_solution(self.grid, self.operator_values, orders, cfg)

    def run_many(self, hbars, order: int) -> SeriesBatch:
        """The series at K hbar values through one recursion.

        The K columns march together: one tape K grids wide, one matrix
        product and one K-column triangular solve per order. Only the final
        partial sums, their residuals and the divergence flags are formed.
        A column's partial sum agrees with ``run`` at its hbar to roundoff
        but not bitwise, because a K-column matrix product rounds
        differently from a matrix-vector product; with K = 1 it is bitwise
        equal.
        """
        order = self.config.with_order(order).order
        hbars = np.array([checked_hbar(h) for h in hbars])
        if hbars.size == 0:
            raise ConfigError("no hbar values to run")
        orders = self._march(hbars, order)
        U = orders.sum(axis=0)
        f = self.operator_values(U)
        norms = np.max(np.abs(orders), axis=1)
        return SeriesBatch(
            partial_sums=U,
            residuals=np.array([mean_square(self.grid, f[:, k]) for k in range(hbars.size)]),
            diverged=np.array([series_diverges(col) for col in norms.T]),
        )

    def operator_values(self, U: np.ndarray) -> np.ndarray:
        """F(U) = L U + N(U) - s at every node (BC rows included); U may be
        (n, K) columns or an (S, n, K) stack of them."""
        return operator_values(self.problem.N, self.grid, self.A_L, self.s_vals, U)

    def squared_residual(self, U: np.ndarray) -> float:
        return mean_square(self.grid, self.operator_values(U))


def operator_values(N: OperatorExpr, grid: Grid, A_L: np.ndarray, s_vals: np.ndarray, U: np.ndarray) -> np.ndarray:
    """F(U) = A_L U + N(U) - s sampled at every node (BC rows included).

    ``U`` is one grid function, K of them as (n, K) columns, or a stack
    (S, n, K) of such blocks; the matrices act on each block on its own.
    """
    U = grid.check_columns(U)
    nodes = grid.nodes.reshape((grid.n, 1) if U.ndim > 1 else (grid.n,))
    upto = max(max_u_order(N), 0)
    # a diverged U gives non-finite values, which the residual reports
    with np.errstate(over="ignore", invalid="ignore"):
        stack = grid.derivative_stack(U, upto)
        nl = np.broadcast_to(np.asarray(eval_expr(N, nodes, stack), dtype=float), U.shape)
        return A_L @ U + nl - s_vals.reshape(nodes.shape)


def mean_square(grid: Grid, f: np.ndarray):
    """Mean of f^2 over the domain, by the grid's quadrature rule; one value
    per column for (n, K) or (S, n, K) grid functions, as ``integrate``."""
    with np.errstate(over="ignore"):  # a residual past the range reads inf
        return integrate(grid, f * f) / (grid.b - grid.a)


def series_solution(grid: Grid, F: Callable[[np.ndarray], np.ndarray], orders: np.ndarray, config: HamConfig) -> SeriesSolution:
    """The SeriesSolution of the orders u_0..u_M, given as an (M + 1, n, 1)
    stack; ``F`` is ``operator_values`` on the problem's matrices.

    The per-order sup norms set the divergence flag. For the residual
    history the partial sums are summed in order, as a running sum would,
    and go through one stacked F(U): each takes one matrix-vector product
    per matrix and one quadrature dot, so each value is bitwise what a call
    on that partial sum alone gives.
    """
    squares = mean_square(grid, F(np.cumsum(orders, axis=0)))
    norms = np.max(np.abs(orders), axis=(1, 2)).tolist()
    return SeriesSolution(
        orders=tuple(orders[:, :, 0]),
        config=config,
        per_order_norms=tuple(norms),
        residual_history=tuple(squares[:, 0].tolist()),
        diverged=series_diverges(norms),
    )


def _build_lopt_system(problem: ProblemSpec, config: HamConfig, grid: Grid, A_L: np.ndarray) -> BcSystem:
    mode = config.lopt_mode
    if isinstance(mode, LinearOperator):
        if mode.order != len(problem.bcs):
            raise ConfigError(
                f"substitute linear operator of order {mode.order} needs "
                f"{mode.order} BCs, problem has {len(problem.bcs)}"
            )
        return BcSystem(assemble_linear(mode, grid), problem.bcs, grid)
    system = BcSystem(A_L, problem.bcs, grid)
    if mode == "use-L":
        return system
    # frechet-at-u0: linearize F at the u0 of plain L (breaks the circular
    # definition deterministically)
    A = A_L.copy()
    add_nonlinear_frechet(A, problem.N, grid, system.solve(np.zeros(grid.n)))
    return BcSystem(A, problem.bcs, grid)


def run_ham(problem: ProblemSpec, config: HamConfig) -> SeriesSolution:
    """Full series run: u_0 then order-m solves up to the truncation order.

    The result's ``diverged`` flag is set when the per-order sup norms grow
    three times in a row or an order is not finite (``series_diverges``);
    the series is still returned.
    """
    return Workspace(problem, config).run()


def partial_sum(series: SeriesSolution, upto: int) -> np.ndarray:
    if not 0 <= upto <= series.truncation_order:
        raise RangeError(
            f"partial sum order {upto} outside 0..{series.truncation_order}"
        )
    return np.add.reduce(np.stack(series.orders[: upto + 1]), axis=0)
