"""Convergence-control parameter selection.

The series residual as a function of hbar typically has a flat valley
around the best value. Both the scan and the search evaluate hbar values
in batched passes of up to PASS_POINTS columns (``Workspace.run_many``,
one recursion per pass). The search zooms: each pass spans the current
bracket, and the next bracket is the two intervals around the pass's best
point, until a pass spans less than BRACKET_TOL. Everything here is
deterministic: identical inputs produce bit-identical curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, Tuple

import numpy as np

from .errors import ConfigError
from .engine import Workspace
from .problem import HamConfig, ProblemSpec, checked_hbar

PASS_POINTS = 17
BRACKET_TOL = 1e-3


class HbarEntry(NamedTuple):
    hbar: float
    residual: float
    diverged: bool
    probe: float


def _rank(residual: float) -> float:
    """Residual as a minimization key; a non-finite residual counts as +inf."""
    return residual if math.isfinite(residual) else math.inf


@dataclass(frozen=True)
class HbarCurve:
    """Residual-vs-hbar sweep at fixed order, weight, and linear core."""

    entries: tuple

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def hbars(self) -> np.ndarray:
        return np.array([e.hbar for e in self.entries])

    def residuals(self) -> np.ndarray:
        return np.array([e.residual for e in self.entries])

    def best(self) -> HbarEntry:
        return min(self.entries, key=lambda e: _rank(e.residual))


class OptimalHbar(NamedTuple):
    hbar_star: float
    residual_star: float


def scan_workspace(ws: Workspace, hbar_grid: Sequence[float]) -> HbarCurve:
    """Run the series at each hbar in the grid and record the residual.

    The grid must be strictly monotone and contain no zero. It is run in
    batched passes of up to PASS_POINTS values at the workspace's order.
    Diverged runs keep their (possibly large) computed residual so the
    curve stays plottable; the flag marks them. Each entry's probe is the
    partial sum at the domain midpoint.
    """
    hbars = [checked_hbar(h) for h in hbar_grid]
    if not hbars:
        raise ConfigError("hbar grid is empty")
    diffs = np.diff(hbars)
    if len(hbars) > 1 and not (np.all(diffs > 0) or np.all(diffs < 0)):
        raise ConfigError("hbar grid must be strictly monotone")
    probe_point = 0.5 * (ws.problem.a + ws.problem.b)
    entries = []
    for start in range(0, len(hbars), PASS_POINTS):
        chunk = hbars[start : start + PASS_POINTS]
        batch = ws.run_many(chunk, ws.config.order)
        for k, h in enumerate(chunk):
            probe = ws.grid.interpolate(batch.partial_sums[:, k], probe_point)
            entries.append(
                HbarEntry(h, float(batch.residuals[k]), bool(batch.diverged[k]), probe)
            )
    return HbarCurve(entries=tuple(entries))


def scan_hbar(problem: ProblemSpec, base_config: HamConfig, hbar_grid: Sequence[float]) -> HbarCurve:
    """``scan_workspace`` on a workspace built from (problem, base_config)."""
    return scan_workspace(Workspace(problem, base_config), hbar_grid)


def _zoom(ws: Workspace, lo: float, hi: float) -> Tuple[float, float]:
    """(rank, hbar) of the best column of the zoom passes on one zero-free
    sub-bracket; ties go to the earliest."""
    bests = []
    while True:
        points = np.linspace(lo, hi, PASS_POINTS)
        ranks = [_rank(r) for r in ws.run_many(points, ws.config.order).residuals]
        i = int(np.argmin(ranks))
        bests.append((ranks[i], float(points[i])))
        if hi - lo < BRACKET_TOL:
            return min(bests, key=lambda b: b[0])
        lo, hi = points[max(i - 1, 0)], points[min(i + 1, PASS_POINTS - 1)]


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


def optimal_workspace(ws: Workspace, bracket: Tuple[float, float]) -> OptimalHbar:
    """Residual-minimizing hbar inside the bracket, at the workspace's order.

    A bracket straddling zero is split (hbar = 0 is not admissible) and both
    sides are searched by zoom passes (module docstring); the last pass on
    a side spans less than BRACKET_TOL. hbar_star is the best column any
    pass evaluated. residual_star comes from one ``ws.run`` at hbar_star,
    because a batched column's residual differs from the single run's in
    the last digits; so it is exactly what ``run_ham`` reports there.
    """
    sides = split_bracket(*bracket)
    best = min((_zoom(ws, lo, hi) for lo, hi in sides), key=lambda b: b[0])
    hbar_star = best[1]
    series = ws.run(hbar=hbar_star)
    return OptimalHbar(hbar_star=hbar_star, residual_star=series.residual_history[-1])


def optimal_hbar(problem: ProblemSpec, base_config: HamConfig, bracket: Tuple[float, float]) -> OptimalHbar:
    """``optimal_workspace`` on a workspace built from (problem, base_config)."""
    return optimal_workspace(Workspace(problem, base_config), bracket)
