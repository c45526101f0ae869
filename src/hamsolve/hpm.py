"""Reduced fixed-parameter method, implemented as an independent oracle.

The reduced method drops every tunable: linear core = the problem's own L,
hbar = -1, H = 1. Its order-m equations are derived directly from the
embedding L(w) - L(u_0) + p L(u_0) + p (N(w) - s) = 0 by matching powers
of p (see docs/recursions.md):

    order 0:      L(w_0) = L(u_ref)        problem BCs
    order 1:      L(w_1) = s - L(w_0) - C_0[N]    homogeneous BCs
    order m >= 2: L(w_m) = -C_{m-1}[N]            homogeneous BCs

where C_k[N] is the k-th series coefficient of N applied to w_0..w_k.
``_reduced_orders`` deliberately re-implements this loop rather than
delegating to the general deformation engine; it steps its own ``jets.Tape``
one row per order. Keeping the loop independent is what makes the
comparison evidence rather than tautology, so neither it nor hpm_recursion
may call the engine's recursion entry points (a test enforces this on the
source text). hpm_recursion runs the loop on a grid, L and LU of its own;
the norms, divergence flag and residual history are measurements, not part
of the recursion, so they come from the engine's one series constructor
(``series_solution``, one stacked F(U) pass) on the oracle's matrices.
equivalence_workspace runs the loop on the workspace's grid, L, factored
core and sampled s, once it has checked that the core is L's own BC system.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .engine import Workspace, operator_values, series_solution
from .errors import ConfigError, is_integer, real_argument
from .expressions import Const
from .grids import BcSystem, Grid, assemble_linear, bc_row, bc_row_indices
from .jets import Tape
from .problem import HamConfig, ProblemSpec, SeriesSolution, checked_hbar

REDUCED_HBAR = -1.0


def hpm_config(order: int = 10) -> HamConfig:
    """The fixed configuration the reduced method corresponds to."""
    return HamConfig(
        lopt_mode="use-L", hbar=REDUCED_HBAR, H=Const(1.0), order=order
    )


def _checked_order(order: int) -> int:
    if not (is_integer(order) and order >= 1):
        raise ConfigError(f"reduced recursion needs an integer order >= 1, got {order!r}")
    return order


def _reduced_orders(problem: ProblemSpec, grid: Grid, A: np.ndarray, system: BcSystem, s_vals: np.ndarray, order: int) -> np.ndarray:
    """Orders w_0..w_M of the reduced recursion, shape (M + 1, n), given
    the problem's grid, its assembled L ``A``, ``system``, A's BC system
    under the problem's BCs, and s sampled at the nodes.

    N is lowered once onto a tape of depth M whose leaves hold D_k w_j in
    row j; order m writes w_{m-1} and each D_k w_{m-1}, one matrix-vector
    product, into row m-1 of the leaves, steps the tape at row m-1 and
    reads C_{m-1}[N] from the root's row m-1. Orders 1..M solve with the
    factored system directly, their BC rows zeroed (homogeneous BCs).
    """
    upto = problem.N.u_order
    leaves = [np.zeros((order, grid.n)) for _ in range(upto + 1)]
    diffs = [grid.diff_matrix(k) for k in range(1, upto + 1)]
    tape = Tape()
    coeffs = tape.lower(problem.N, grid.nodes, dict(enumerate(leaves)), order)

    orders = np.empty((order + 1, grid.n))
    u_ref = system.solve(np.zeros(grid.n))
    orders[0] = system.solve(A @ u_ref)
    for m in range(1, order + 1):
        w = orders[m - 1]
        if leaves:
            leaves[0][m - 1] = w
        for D, leaf in zip(diffs, leaves[1:]):
            np.matmul(D, w, out=leaf[m - 1])
        tape.step(m - 1)
        if m == 1:
            rhs = s_vals - A @ orders[0] - coeffs[0]
        else:
            rhs = -coeffs[m - 1]
        rhs[system.rows] = 0.0
        orders[m] = system.lu.solve(rhs)
    return orders


def hpm_recursion(problem: ProblemSpec, order: int) -> SeriesSolution:
    """Run the reduced method's own recursion up to the given order.

    Independent of the deformation engine by design; see the module
    docstring. Builds its own grid, L and BC system, and samples s once
    for the recursion and the residuals, and returns a SeriesSolution so
    downstream tooling (partial sums, residuals) applies unchanged.
    """
    config = hpm_config(_checked_order(order))
    grid = problem.make_grid()
    A = assemble_linear(problem.L, grid)
    system = BcSystem(A, problem.bcs, grid)
    s_vals = grid.sample(problem.s)
    orders = _reduced_orders(problem, grid, A, system, s_vals, order)
    F = partial(operator_values, problem.N, grid, A, s_vals)
    return series_solution(grid, F, orders[:, :, None], config)


@dataclass(frozen=True)
class EquivalenceReport:
    """Order-by-order comparison of the engine run against the oracle."""

    per_order_rel_diff: tuple
    max_rel_diff: float
    tolerance: float
    passed: bool

    def __post_init__(self):
        object.__setattr__(
            self, "per_order_rel_diff", tuple(self.per_order_rel_diff)
        )

    def as_dict(self) -> dict:
        return {
            "max_rel_diff": self.max_rel_diff,
            "pass": self.passed,
            "per_order_rel_diff": list(self.per_order_rel_diff),
            "tolerance": self.tolerance,
        }


def equivalence_workspace(ws: Workspace, tolerance: float = 1e-10, hbar: Optional[float] = None) -> EquivalenceReport:
    """Run the engine on ``ws`` and the oracle side by side; compare orders
    0..M at the workspace's order M.

    ``ws`` must have the reduced method's linear core, use-L, and a weight
    H that is 1 at every node (``ws.unit_weight``), else ConfigError; its
    hbar is not used. The oracle runs on the workspace's grid, assembled L
    and factored core, and checks first that the core's matrix is L's with
    the problem's BC rows, else ConfigError. The engine runs at hbar = -1
    unless ``hbar`` overrides it (the oracle is fixed by definition);
    passing anything other than -1 is the mutation control that shows the
    comparison actually has teeth.
    """
    tolerance = real_argument(tolerance, "tolerance", low=0.0, nonzero=True)
    if ws.config.lopt_mode != "use-L" or not ws.unit_weight:
        raise ConfigError(
            "the equivalence check needs a workspace with the reduced "
            "method's linear core and weight (lopt_mode 'use-L', H = 1)"
        )
    order = _checked_order(ws.config.order)
    engine_hbar = checked_hbar(REDUCED_HBAR if hbar is None else hbar)
    problem, grid, system = ws.problem, ws.grid, ws.lopt
    expected = ws.A_L.copy()
    for i, bc in zip(bc_row_indices(grid, problem.bcs), problem.bcs):
        expected[i] = bc_row(grid, bc)
    if system.bcs != tuple(problem.bcs) or not np.array_equal(system.matrix, expected):
        raise ConfigError("the workspace's core is not L's own BC system")
    engine_orders = ws._march(np.array([engine_hbar]))[:, :, 0]
    oracle_orders = _reduced_orders(problem, grid, ws.A_L, system, ws.s_vals, order)
    # per order, in one pass: max |u_m - w_m| / (1 + max |w_m|)
    scales = 1.0 + np.max(np.abs(oracle_orders), axis=1)
    diffs = (np.max(np.abs(engine_orders - oracle_orders), axis=1) / scales).tolist()
    worst = max(diffs)
    return EquivalenceReport(
        per_order_rel_diff=tuple(diffs),
        max_rel_diff=worst,
        tolerance=tolerance,
        passed=worst < tolerance,
    )


def check_equivalence(problem: ProblemSpec, order: int = 10, tolerance: float = 1e-10, hbar: Optional[float] = None) -> EquivalenceReport:
    """``equivalence_workspace`` on a workspace built for the reduced method."""
    return equivalence_workspace(Workspace(problem, hpm_config(order)), tolerance, hbar)
