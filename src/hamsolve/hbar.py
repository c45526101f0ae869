"""Convergence-control parameter selection.

The series residual as a function of hbar typically has a flat valley
around the best value; a coarse pre-scan locates the valley and a
golden-section refinement narrows it. Everything here is deterministic:
identical inputs produce bit-identical curves.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, DivergenceWarning
from .engine import Workspace, partial_sum
from .problem import HamConfig, ProblemSpec

PRESCAN_POINTS = 17
BRACKET_TOL = 1e-3
# golden-section interior ratio
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class HbarEntry(NamedTuple):
    hbar: float
    residual: float
    diverged: bool
    probe: float


def _rank(entry: HbarEntry) -> float:
    """Residual as a minimization key; a non-finite residual counts as +inf."""
    return entry.residual if math.isfinite(entry.residual) else math.inf


@dataclass(frozen=True)
class HbarCurve:
    """Residual-vs-hbar sweep at fixed order, weight, and linear core."""

    entries: tuple
    probe_point: float

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def hbars(self) -> np.ndarray:
        return np.array([e.hbar for e in self.entries])

    def residuals(self) -> np.ndarray:
        return np.array([e.residual for e in self.entries])

    def best(self) -> HbarEntry:
        return min(self.entries, key=_rank)


class OptimalHbar(NamedTuple):
    hbar_star: float
    residual_star: float


def _evaluate(ws: Workspace, hbar: float, order: int, probe_point: float) -> HbarEntry:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DivergenceWarning)
        series = ws.run(hbar=hbar, order=order)
    U = partial_sum(series, order)
    return HbarEntry(
        hbar=float(hbar),
        residual=series.residual_history[-1],
        diverged=series.diverged,
        probe=ws.grid.interpolate(U, probe_point),
    )


def scan_hbar(problem: ProblemSpec, base_config: HamConfig, hbar_grid: Sequence[float], probe_point: Optional[float] = None) -> HbarCurve:
    """Run the series at each hbar in the grid and record the residual.

    The grid must be strictly monotone and contain no zero. Diverged runs
    keep their (possibly large) computed residual so the curve stays
    plottable; the flag marks them.
    """
    hbars = [float(h) for h in hbar_grid]
    if not hbars:
        raise ConfigError("hbar grid is empty")
    if any(h == 0.0 or not math.isfinite(h) for h in hbars):
        raise ConfigError("hbar grid must contain nonzero finite values")
    diffs = np.diff(hbars)
    if len(hbars) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("hbar grid must be strictly monotone")
    ws = Workspace(problem, base_config)
    if probe_point is None:
        probe_point = 0.5 * (problem.a + problem.b)
    entries = [_evaluate(ws, h, base_config.order, probe_point) for h in hbars]
    return HbarCurve(entries=tuple(entries), probe_point=float(probe_point))


def _search_side(ws: Workspace, order: int, probe_point: float, lo: float, hi: float, seen: dict) -> None:
    """Prescan + golden-section on one zero-free sub-bracket; fills seen."""

    def f(h: float) -> float:
        h = float(h)
        if h not in seen:
            seen[h] = _evaluate(ws, h, order, probe_point)
        return _rank(seen[h])

    points = np.linspace(lo, hi, PRESCAN_POINTS)
    values = [f(h) for h in points]
    i = int(np.argmin(values))
    a = points[max(i - 1, 0)]
    b = points[min(i + 1, PRESCAN_POINTS - 1)]
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    while (b - a) >= BRACKET_TOL:
        if f(c) < f(d):
            b, d = d, c
            c = b - _INVPHI * (b - a)
        else:
            a, c = c, d
            d = a + _INVPHI * (b - a)
    f(0.5 * (a + b))


def split_bracket(lo: float, hi: float) -> list:
    """The zero-free sub-brackets of (lo, hi), in ascending order.

    hbar = 0 is not admissible, so a bracket that reaches zero is cut back
    to BRACKET_TOL on each side; a side left empty is dropped. Raises
    ConfigError for an empty bracket or one that lies within BRACKET_TOL
    of zero.
    """
    lo, hi = float(lo), float(hi)
    if not (lo < hi):
        raise ConfigError(f"empty hbar bracket ({lo}, {hi})")
    if hi < 0.0 or lo > 0.0:
        return [(lo, hi)]
    sides = []
    if lo < -BRACKET_TOL:
        sides.append((lo, -BRACKET_TOL))
    if hi > BRACKET_TOL:
        sides.append((BRACKET_TOL, hi))
    if not sides:
        raise ConfigError(f"bracket ({lo}, {hi}) contains only hbar ~ 0")
    return sides


def optimal_hbar(problem: ProblemSpec, base_config: HamConfig, bracket: Tuple[float, float]) -> OptimalHbar:
    """Residual-minimizing hbar inside the bracket.

    A bracket straddling zero is split (hbar = 0 is not admissible) and both
    sides are searched. The result is the best point actually evaluated, so
    residual_star is never above the residual at any probed point; final
    golden-section bracket width is below 1e-3.
    """
    sides = split_bracket(*bracket)
    ws = Workspace(problem, base_config)
    probe_point = 0.5 * (problem.a + problem.b)
    seen: dict = {}
    for s_lo, s_hi in sides:
        _search_side(ws, base_config.order, probe_point, s_lo, s_hi, seen)
    best = min(seen.values(), key=_rank)
    return OptimalHbar(hbar_star=best.hbar, residual_star=best.residual)
