"""Series solver: zeroth-order solve, order-m recursion, residuals.

The homotopy family is (1 - p) L_opt(u - u_0) + p hbar H(r) F(u) = 0 with
F(u) = L(u) + N(u) - s(r). Expanding u = sum_m u_m p^m and matching powers
of p gives the order-m equations

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

import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, DivergenceWarning, RangeError, SingularSystemError
from .expressions import LinearOperator, OperatorExpr, eval_expr, max_u_order
from .grids import BcSystem, Grid, assemble_linear, integrate
from .jets import SeriesTape, frechet_at_reference
from .problem import DIVERGENCE_STREAK, HamConfig, ProblemSpec, SeriesSolution, checked_hbar, series_diverges


class SeriesBatch(NamedTuple):
    """Final state of K series run side by side by ``Workspace.run_many``."""

    partial_sums: np.ndarray  # (n, K): column k is u_0 + ... + u_M at the k-th hbar
    residuals: np.ndarray  # (K,) mean squared residual of each partial sum
    diverged: np.ndarray  # (K,) the divergence flag of each column


def _grid_values(expr, grid: Grid) -> np.ndarray:
    vals = np.asarray(eval_expr(expr, grid.nodes), dtype=float)
    return np.ascontiguousarray(np.broadcast_to(vals, (grid.n,)))


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
        self.s_vals = _grid_values(problem.s, self.grid)
        self.H_vals = _grid_values(config.H, self.grid)
        if np.any(self.H_vals == 0.0):
            raise ConfigError("auxiliary weight H vanishes at a grid node")
        self.lopt = _build_lopt_system(problem, config, self.grid, self.A_L)
        self.u0 = self._solve_zeroth()

    def _solve_zeroth(self) -> np.ndarray:
        u0 = self.lopt.solve(np.zeros(self.grid.n))
        resid = self.lopt.matrix @ u0
        # BC rows of the factored matrix are condition rows; skip them
        sup = float(np.max(np.abs(resid[self.lopt.interior]), initial=0.0))
        if sup >= 1e-9 * (1.0 + float(np.max(np.abs(u0)))):
            raise SingularSystemError(
                f"zeroth-order solve left interior residual {sup:.3e}; the "
                "linear core is too ill-conditioned to define u_0"
            )
        return u0

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
            cfg = cfg.with_order(int(order))
        orders = self._march(np.array([cfg.hbar]), cfg.order)
        history = residual_history(self.grid, self.operator_values, orders)
        norms = np.max(np.abs(orders), axis=(1, 2)).tolist()
        diverged = series_diverges(norms)
        if diverged:
            warnings.warn(
                f"per-order norms grew for {DIVERGENCE_STREAK} consecutive "
                f"orders at hbar={cfg.hbar:g}; series looks divergent",
                DivergenceWarning,
                stacklevel=2,
            )
        return SeriesSolution(
            orders=tuple(orders[:, :, 0]),
            config=cfg,
            per_order_norms=tuple(norms),
            residual_history=history,
            diverged=diverged,
        )

    def run_many(self, hbars, order: int) -> SeriesBatch:
        """The series at K hbar values through one recursion.

        The K columns march together: one tape K grids wide, one matrix
        product and one K-column triangular solve per order. Only the final
        partial sums, their residuals and the divergence flags are formed.
        A column's partial sum agrees with ``run`` at its hbar to roundoff
        but not bitwise, because a K-column matrix product rounds
        differently from a matrix-vector product; with K = 1 it is bitwise
        equal. No DivergenceWarning is emitted: the flags are returned.
        """
        order = self.config.with_order(int(order)).order
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

    def weak_nonlinearity_ratio(self, U: np.ndarray, hbar: Optional[float] = None) -> float:
        """Diagnostic: |hbar H F(U) - L_opt(U - u_0)| / |L_opt(U - u_0)|.

        Sup norms over interior rows. Purely informational; no pass/fail
        threshold is attached.
        """
        hbar = self.config.hbar if hbar is None else float(hbar)
        U = self.grid.check_length(U)
        mask = self.lopt.interior
        core = (self.lopt.matrix @ (U - self.u0))[mask]
        forcing = (hbar * self.H_vals * self.operator_values(U))[mask]
        denom = float(np.max(np.abs(core), initial=0.0))
        if denom == 0.0:
            return float("inf")
        return float(np.max(np.abs(forcing - core))) / denom


def operator_values(N: OperatorExpr, grid: Grid, A_L: np.ndarray, s_vals: np.ndarray, U: np.ndarray) -> np.ndarray:
    """F(U) = A_L U + N(U) - s sampled at every node (BC rows included).

    ``U`` is one grid function, K of them as (n, K) columns, or a stack
    (S, n, K) of such blocks; the matrices act on each block on its own.
    """
    U = grid.check_columns(U)
    nodes = grid.nodes.reshape((grid.n, 1) if U.ndim > 1 else (grid.n,))
    upto = max(max_u_order(N), 0)
    stack = grid.derivative_stack(U, upto)
    nl = np.broadcast_to(np.asarray(eval_expr(N, nodes, stack), dtype=float), U.shape)
    return A_L @ U + nl - s_vals.reshape(nodes.shape)


def mean_square(grid: Grid, f: np.ndarray):
    """Mean of f^2 over the domain, by the grid's quadrature rule; one value
    per column for (n, K) or (S, n, K) grid functions, as ``integrate``."""
    return integrate(grid, f * f) / (grid.b - grid.a)


def residual_history(grid: Grid, F: Callable[[np.ndarray], np.ndarray], orders: np.ndarray) -> tuple:
    """Mean squared residual of every partial sum u_0 + ... + u_m of the
    orders, given as an (M + 1, n, 1) stack; ``F`` is ``operator_values``
    on the problem's matrices.

    The partial sums are summed in order, as a running sum would, and go
    through one stacked F(U): each takes one matrix-vector product per
    matrix and one quadrature dot, so each value is bitwise what a call on
    that partial sum alone gives.
    """
    squares = mean_square(grid, F(np.cumsum(orders, axis=0)))
    return tuple(squares[:, 0].tolist())


def _build_lopt_system(problem: ProblemSpec, config: HamConfig, grid: Grid, A_L: np.ndarray) -> BcSystem:
    mode = config.lopt_mode
    if isinstance(mode, LinearOperator):
        if mode.order != len(problem.bcs):
            raise ConfigError(
                f"substitute linear operator of order {mode.order} needs "
                f"{mode.order} BCs, problem has {len(problem.bcs)}"
            )
        return BcSystem(assemble_linear(mode, grid), problem.bcs, grid)
    if mode == "use-L":
        return BcSystem(A_L, problem.bcs, grid)
    # frechet-at-u0: linearize F at a bootstrap u0 from plain L (breaks the
    # circular definition deterministically)
    u0 = BcSystem(A_L, problem.bcs, grid).solve(np.zeros(grid.n))
    matrix = frechet_at_reference(A_L, problem.N, grid, u0)
    return BcSystem(matrix, problem.bcs, grid)


def run_ham(problem: ProblemSpec, config: HamConfig) -> SeriesSolution:
    """Full series run: u_0 then order-m solves up to the truncation order.

    Emits DivergenceWarning (and sets the flag on the result) when per-order
    sup norms grow three times in a row; the series is still returned.
    """
    return Workspace(problem, config).run()


def partial_sum(series: SeriesSolution, upto: int) -> np.ndarray:
    if not 0 <= upto <= series.truncation_order:
        raise RangeError(
            f"partial sum order {upto} outside 0..{series.truncation_order}"
        )
    return np.add.reduce(np.stack(series.orders[: upto + 1]), axis=0)
