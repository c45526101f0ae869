"""Series solver: zeroth-order solve, order-m recursion, residuals.

The homotopy family is (1 - p) L_opt(u - u_0) = p hbar H(r) F(u) with
F(u) = L(u) + N(u) - s(r), (*) of docs/recursions.md. Expanding
u = sum_m u_m p^m and matching powers of p gives the order-m equations

    L_opt(u_m - chi_m u_{m-1}) = hbar H(r) D_{m-1}[F],   chi_1 = 0, chi_m = 1,

where D_k[F] is the k-th Taylor coefficient of F applied to the series
(docs/recursions.md carries the derivation). The right-hand side passed to
the factored L_opt solve is therefore

    rhs_m = hbar H (L u_{m-1} + D_{m-1}[N] - delta_{m,1} s) + chi_m L_opt u_{m-1}.

When the core's matrix is L's own (always for use-L; for any other core
when the assembled matrices are equal) the two L u_{m-1} terms are grouped,

    rhs_m = (hbar H + chi_m) (L u_{m-1}) + hbar H (D_{m-1}[N] - delta_{m,1} s)

so that the special case hbar = -1, H = 1 cancels the L u_{m-1} term
exactly (coefficient 0.0, not a difference of rounded terms), which is what
makes the reduced-method comparison meaningful at tight tolerances.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, RangeError, is_integer
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
    whole hbar scan. Instances are not thread-safe to build but immutable
    afterwards, so threads may run one at once (``LU.solve``): the engine,
    the tracer and the oracle read the same arrays, so each array is
    read-only. The workspace freezes those it builds,
    ``A_L``, ``s_vals``, ``H_vals`` and ``u0``; the grid and the core's
    ``BcSystem`` freeze their own.
    """

    def __init__(self, problem: ProblemSpec, config: HamConfig):
        self.problem = problem
        self.config = config
        self.grid = problem.make_grid()
        self.A_L = assemble_linear(problem.L, self.grid)
        self.s_vals = self.grid.sample(problem.s)
        self.H_vals = self.grid.sample(config.H)
        if (self.H_vals == 0.0).any():
            raise ConfigError("auxiliary weight H vanishes at a grid node")
        self.unit_weight = not (self.H_vals != 1.0).any()  # H = 1 at every node
        self.lopt, self._grouped = _build_lopt_system(problem, config, self.grid, self.A_L)
        self.u0 = self.lopt.solve(np.zeros(self.grid.n))
        for arr in (self.A_L, self.s_vals, self.H_vals, self.u0):
            arr.setflags(write=False)

    def _march(self, hbars: np.ndarray, deformation: bool = True) -> np.ndarray:
        """Orders u_0..u_M of K series side by side, shape (M + 1, n, K).

        Column k follows hbar = hbars[k]. Every step is columnwise (the
        tape's recurrences, the matrix products and the triangular solves),
        so the columns never mix and one that overflows leaves the others
        alone. With K = 1 each step is the single-series arithmetic. With
        ``deformation`` False the loop drops the chi_m term and takes the
        non-grouped rhs, which is ``perturbation_series``'s recursion.

        Each order is one tape push, one product with A_L and one in-place
        solve, with the rhs formed in (n, K) buffers allocated once; the
        in-place steps keep every rounding of the expressions in the
        comments, so each order is bitwise what they give.
        """
        grouped = self._grouped and deformation
        order = self.config.order
        n, K = self.grid.n, len(hbars)
        H = self.H_vals[:, None]
        weigh = not self.unit_weight  # scaling by H = 1 changes no bit: skipped
        rows, solve = self.lopt.rows, self.lopt.lu.solve
        # row m-1 of the tape is D_{m-1}[N]; each order is pushed once
        tape = SeriesTape(self.problem.N, self.grid, order, K)
        orders = np.empty((order + 1, n, K))
        orders[0] = self.u0[:, None]
        t, work = np.empty((n, K)), np.empty((n, K))
        rhs = np.empty((n, K), order="F")  # column-major: getrs solves it in place
        if grouped:
            coef = {chi: hbars * H + chi for chi in (0.0, 1.0)}  # hbar H + chi_m
        # an order that overflows shows in the norms and the divergence flag
        with np.errstate(over="ignore", invalid="ignore"):
            for m in range(1, order + 1):
                u_prev = orders[m - 1]
                chi = 0.0 if m == 1 else 1.0
                # forcing = D_{m-1}[N] - delta_{m,1} s (module docstring)
                forcing = tape.push(u_prev)
                if m == 1:
                    forcing = np.subtract(forcing, self.s_vals[:, None], out=work)
                np.matmul(self.A_L, u_prev, out=t)
                if grouped:
                    # rhs = (hbar H + chi) t + hbar (H forcing)
                    if weigh:
                        forcing = np.multiply(H, forcing, out=work)
                    np.multiply(hbars, forcing, out=work)
                    t *= coef[chi]
                    np.add(t, work, out=rhs)
                else:
                    # rhs = hbar (H (t + forcing)) + chi (L_opt u_{m-1})
                    np.add(t, forcing, out=work)
                    if weigh:
                        work *= H
                    np.multiply(hbars, work, out=rhs)
                    if deformation:
                        np.matmul(self.lopt.matrix, u_prev, out=t)
                        # a product by chi = 1 changes no bit; 0 * (L_opt u_0)
                        # is kept, as it is nan where L_opt u_0 overflows
                        if chi == 0.0:
                            t *= chi
                        rhs += t
                for i in rows:  # homogeneous BCs
                    rhs[i] = 0.0
                orders[m] = solve(rhs)
        return orders

    def run(self, hbar: Optional[float] = None) -> SeriesSolution:
        cfg = self.config if hbar is None else self.config.with_hbar(hbar)
        orders = self._march(np.array([cfg.hbar]))
        return series_solution(self.grid, self.operator_values, orders, cfg)

    def run_many(self, hbars) -> SeriesBatch:
        """The series at K hbar values through one recursion.

        The K columns march together: one tape K grids wide, one matrix
        product and one K-column triangular solve per order. Only the final
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
        homogeneous BCs, one K = 1 march with hbar = 1, chi = 0 and the
        non-grouped rhs. Dividing the deformation family by 1 - p gives mu =
        hbar p / (1 - p), so at every hbar the order-M partial sum is

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


def _build_lopt_system(problem: ProblemSpec, config: HamConfig, grid: Grid, A_L: np.ndarray):
    """The factored linear core of each mode (use-L's is ``A_L`` itself), and
    whether its matrix equals ``A_L``, which decides the grouped right-hand
    side (module docstring)."""
    mode = config.lopt_mode
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
    if not (is_integer(upto) and 0 <= upto <= series.truncation_order):
        raise RangeError(f"partial sum order {upto!r} outside 0..{series.truncation_order}")
    return np.add.reduce(np.stack(series.orders[: upto + 1]), axis=0)
