"""Problem statements and solver configuration.

A problem is the decomposition F(u) = L(u) + N(u) - s(r): L carries every
linear differential term, N every nonlinear one, s the source. Boundary
conditions are explicit and their count must equal the operator order, which
also applies to any substitute linear operator chosen for the solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np

from .errors import ConfigError, is_integer, real_argument
from .expressions import (
    Const,
    LinearOperator,
    OperatorExpr,
)
from .grids import BoundaryCondition, Grid, build_grid

DIVERGENCE_STREAK = 3
# a norm counts as growth only when it beats the last one by more than this
# relative margin; norms equal in exact arithmetic drift by up to 8.1e-13
# per order in roundoff (docs/calibration.md), which must not decide the flag
GROWTH_MARGIN = 1e-9

ZERO = Const(0.0)
LOPT_MODES = ("use-L", "frechet-at-u0")  # the linear cores chosen by name


@dataclass(frozen=True)
class ProblemSpec:
    """A two-point differential problem F(u) = L(u) + N(u) - s(r) = 0."""

    a: float
    b: float
    L: LinearOperator
    N: OperatorExpr = ZERO
    s: OperatorExpr = ZERO
    bcs: tuple = ()
    grid_kind: str = "chebyshev-lobatto"
    n: int = 64
    exact_solution: Optional[OperatorExpr] = None

    def __post_init__(self):
        object.__setattr__(self, "bcs", tuple(self.bcs))
        if not isinstance(self.L, LinearOperator):
            raise ConfigError("L must be a LinearOperator")
        optional = () if self.exact_solution is None else ("exact_solution",)
        for name in ("N", "s", *optional):
            if not isinstance(getattr(self, name), OperatorExpr):
                raise ConfigError(f"{name} must be an expression")
        if self.s.u_order >= 0:
            raise ConfigError("source term must depend on r only")
        if self.exact_solution is not None and self.exact_solution.u_order >= 0:
            raise ConfigError("exact solution must be an expression in r only")
        if self.N.u_order > self.L.order:
            # N may reference lower derivatives; the leading one stays in L
            raise ConfigError(
                "nonlinear part references derivative order "
                f"{self.N.u_order} above the linear operator order "
                f"{self.L.order}"
            )
        for bc in self.bcs:
            if not isinstance(bc, BoundaryCondition):
                raise ConfigError(f"not a boundary condition: {bc!r}")
        if len(self.bcs) != self.L.order:
            raise ConfigError(
                f"operator of order {self.L.order} needs {self.L.order} "
                f"boundary conditions, got {len(self.bcs)}"
            )

    def make_grid(self) -> Grid:
        return build_grid(self.grid_kind, self.n, self.a, self.b)

    def with_grid_n(self, n: int) -> "ProblemSpec":
        return replace(self, n=n)

    def exact_values(self, grid: Grid) -> Optional[np.ndarray]:
        if self.exact_solution is None:
            return None
        return grid.sample(self.exact_solution)


def checked_hbar(hbar) -> float:
    """hbar as a float; ConfigError unless it is a nonzero real argument."""
    return real_argument(hbar, "hbar", nonzero=True)


def checked_order(order) -> int:
    """``order`` itself; ConfigError unless it is an integer >= 0."""
    if not (is_integer(order) and order >= 0):
        raise ConfigError(f"truncation order must be an integer >= 0, got {order!r}")
    return order


@dataclass(frozen=True)
class HamConfig:
    """Tunable solve parameters: linear-core choice, hbar, weight, order.

    lopt_mode is one of "use-L", "frechet-at-u0", or a LinearOperator
    supplied directly (user mode).
    """

    lopt_mode: Union[str, LinearOperator] = "use-L"
    hbar: float = -1.0
    H: OperatorExpr = Const(1.0)
    order: int = 10

    def __post_init__(self):
        if isinstance(self.lopt_mode, str):
            if self.lopt_mode not in LOPT_MODES:
                raise ConfigError(
                    f"unknown linear-core mode {self.lopt_mode!r}; use "
                    "'use-L', 'frechet-at-u0', or pass a LinearOperator"
                )
        elif not isinstance(self.lopt_mode, LinearOperator):
            raise ConfigError("lopt_mode must be a mode name or a LinearOperator")
        object.__setattr__(self, "hbar", checked_hbar(self.hbar))
        if not isinstance(self.H, OperatorExpr):
            raise ConfigError("H must be an expression")
        if self.H.u_order >= 0:
            raise ConfigError("H must depend on r only")
        checked_order(self.order)

    def with_hbar(self, hbar: float) -> "HamConfig":
        return replace(self, hbar=hbar)


@dataclass(frozen=True)
class SeriesSolution:
    """Per-order solution functions u_0..u_M plus convergence diagnostics.

    residual_history[m] is the mean squared residual of the partial sum
    through order m, so it always has length M + 1. The diverged flag is the
    cheap heuristic: three consecutive growths of the per-order sup norm, or
    an order that is not finite.
    """

    orders: tuple
    config: HamConfig
    per_order_norms: tuple = ()
    residual_history: tuple = ()
    diverged: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "orders", tuple(np.asarray(o, dtype=float) for o in self.orders)
        )
        object.__setattr__(self, "per_order_norms", tuple(self.per_order_norms))
        object.__setattr__(self, "residual_history", tuple(self.residual_history))

    @property
    def truncation_order(self) -> int:
        return len(self.orders) - 1


def series_diverges(norms) -> bool:
    """The divergence heuristic on per-order sup norms |u_0|, |u_1|, ...

    True once the norms grow DIVERGENCE_STREAK times in a row, each time by
    more than the relative GROWTH_MARGIN. Growth is judged over the nonzero
    norms only: at special hbar values whole orders cancel exactly (tanh at
    hbar = -1 has even orders identically zero), and a zero term says
    nothing about growth, so it must not reset the streak. A norm that is
    not finite (an order overflowed) is divergence at once.
    """
    streak = 0
    last = None
    for norm in norms:
        if not math.isfinite(norm):
            return True
        if norm > 0.0:
            if last is not None:
                streak = streak + 1 if norm > last * (1.0 + GROWTH_MARGIN) else 0
                if streak >= DIVERGENCE_STREAK:
                    return True
            last = norm
    return False
