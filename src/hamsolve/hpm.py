"""Reduced fixed-parameter method, implemented as an independent oracle.

The reduced method drops every tunable: linear core = the problem's own L,
hbar = -1, H = 1. Its order-m equations are derived directly from the
embedding L(w) - L(u_0) + p L(u_0) + p (N(w) - s) = 0 by matching powers
of p (see docs/recursions.md):

    order 0:      L(w_0) = L(u_ref)        problem BCs
    order 1:      L(w_1) = s - L(w_0) - C_0[N]    homogeneous BCs
    order m >= 2: L(w_m) = -C_{m-1}[N]            homogeneous BCs

where C_k[N] is the k-th series coefficient of N applied to w_0..w_k.
hpm_recursion deliberately re-implements this loop rather than delegating
to the general deformation engine; equivalence_workspace then runs both
and compares order by order. Keeping the loop independent is what makes the
comparison evidence rather than tautology, so nothing in hpm_recursion may
call the engine's recursion entry points (a test enforces this on the
source text). The norms, divergence flag and residual history are
measurements, not part of the recursion, so the result comes from the
engine's one series constructor (``series_solution``, one stacked F(U)
pass) on the oracle's own matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .engine import Workspace, operator_values, series_solution
from .errors import ConfigError
from .expressions import Const, max_u_order
from .grids import BcSystem, assemble_linear
from .jets import jet_expand
from .problem import HamConfig, ProblemSpec, SeriesSolution

REDUCED_HBAR = -1.0


def hpm_config(order: int = 10) -> HamConfig:
    """The fixed configuration the reduced method corresponds to."""
    return HamConfig(
        lopt_mode="use-L", hbar=REDUCED_HBAR, H=Const(1.0), order=order
    )


def hpm_recursion(problem: ProblemSpec, order: int) -> SeriesSolution:
    """Run the reduced method's own recursion up to the given order.

    Independent of the deformation engine by design; see the module
    docstring. Returns a SeriesSolution so downstream tooling (partial
    sums, residuals) applies unchanged.
    """
    config = hpm_config(order)
    if order < 1:
        raise ConfigError(f"reduced recursion needs order >= 1, got {order}")
    grid = problem.make_grid()
    A = assemble_linear(problem.L, grid)
    system = BcSystem(A, problem.bcs, grid)
    s_vals = grid.sample(problem.s)
    homogeneous = (0.0,) * len(problem.bcs)

    u_ref = system.solve(np.zeros(grid.n))
    w0 = system.solve(A @ u_ref)
    orders = [w0]
    for m in range(1, order + 1):
        # as an (m, n, 1) stack each order takes one matrix-vector product,
        # so row j of jet k is bitwise D_k w_j
        stack = grid.derivative_stack(np.stack(orders)[:, :, None], max_u_order(problem.N))
        coeffs = jet_expand(problem.N, grid.nodes, {k: d[:, :, 0] for k, d in stack.items()}, m)
        if m == 1:
            rhs = s_vals - A @ w0 - coeffs[0]
        else:
            rhs = -coeffs[m - 1]
        orders.append(system.solve(rhs, bc_values=homogeneous))

    F = partial(operator_values, problem.N, grid, A, s_vals)
    return series_solution(grid, F, np.stack(orders)[:, :, None], config)


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
    hbar is not used. The engine runs at hbar = -1 unless ``hbar``
    overrides it (the oracle is fixed by definition); passing anything
    other than -1 is the mutation control that shows the comparison
    actually has teeth.
    """
    if not (tolerance > 0.0 and math.isfinite(tolerance)):
        raise ConfigError(f"tolerance must be finite and positive, got {tolerance}")
    if ws.config.lopt_mode != "use-L" or not ws.unit_weight:
        raise ConfigError(
            "the equivalence check needs a workspace with the reduced "
            "method's linear core and weight (lopt_mode 'use-L', H = 1)"
        )
    engine_series = ws.run(hbar=REDUCED_HBAR if hbar is None else hbar)
    oracle_series = hpm_recursion(ws.problem, ws.config.order)
    diffs = []
    for um, wm in zip(engine_series.orders, oracle_series.orders):
        scale = 1.0 + float(np.max(np.abs(wm)))
        diffs.append(float(np.max(np.abs(um - wm))) / scale)
    worst = max(diffs)
    return EquivalenceReport(
        per_order_rel_diff=tuple(diffs),
        max_rel_diff=worst,
        tolerance=float(tolerance),
        passed=worst < tolerance,
    )


def check_equivalence(problem: ProblemSpec, order: int = 10, tolerance: float = 1e-10, hbar: Optional[float] = None) -> EquivalenceReport:
    """``equivalence_workspace`` on a workspace built for the reduced method."""
    return equivalence_workspace(Workspace(problem, hpm_config(order)), tolerance, hbar)
