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
source text). The residual history is a measurement, not part of the
recursion, so it uses the engine's one stacked F(U) pass
(``residual_history``) on the oracle's own matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Optional

import numpy as np

from .engine import Workspace, operator_values, residual_history
from .errors import ConfigError
from .expressions import Const
from .grids import BcSystem, assemble_linear
from .jets import jet_expand, series_jets
from .problem import HamConfig, ProblemSpec, SeriesSolution, series_diverges

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
    if order < 1:
        raise ConfigError(f"reduced recursion needs order >= 1, got {order}")
    grid = problem.make_grid()
    A = assemble_linear(problem.L, grid)
    system = BcSystem(A, problem.bcs, grid)
    s_vals = grid.sample(problem.s)
    homogeneous = np.zeros(len(problem.bcs))

    u_ref = system.solve(np.zeros(grid.n))
    w0 = system.solve(A @ u_ref)
    orders = [w0]
    for m in range(1, order + 1):
        coeffs = jet_expand(
            problem.N, grid.nodes, series_jets(grid, orders, problem.N), m
        )
        if m == 1:
            rhs = s_vals - A @ w0 - coeffs[0]
        else:
            rhs = -coeffs[m - 1]
        orders.append(system.solve(rhs, bc_values=homogeneous))

    norms = [float(np.max(np.abs(w))) for w in orders]
    return SeriesSolution(
        orders=tuple(orders),
        config=hpm_config(order),
        per_order_norms=tuple(norms),
        residual_history=residual_history(
            grid, partial(operator_values, problem.N, grid, A, s_vals), np.stack(orders)[:, :, None]
        ),
        diverged=series_diverges(norms),
    )


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


def equivalence_workspace(ws: Workspace, order: int = 10, tolerance: float = 1e-10, hbar: Optional[float] = None) -> EquivalenceReport:
    """Run the engine on ``ws`` and the oracle side by side; compare per order.

    ``ws`` must have the reduced method's linear core and weight (use-L,
    H = 1), else ConfigError; its hbar and order are not used. The engine
    runs at hbar = -1 unless ``hbar`` overrides it (the oracle is fixed by
    definition); passing anything other than -1 is the mutation control
    that shows the comparison actually has teeth.
    """
    if tolerance <= 0.0:
        raise ConfigError(f"tolerance must be positive, got {tolerance}")
    reduced = hpm_config(order)
    if ws.config.lopt_mode != reduced.lopt_mode or ws.config.H != reduced.H:
        raise ConfigError(
            "the equivalence check needs a workspace with the reduced "
            "method's linear core and weight (lopt_mode 'use-L', H = 1)"
        )
    engine_series = ws.run(hbar=reduced.hbar if hbar is None else hbar, order=order)
    oracle_series = hpm_recursion(ws.problem, order)
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
    return equivalence_workspace(Workspace(problem, hpm_config(order)), order, tolerance, hbar)
