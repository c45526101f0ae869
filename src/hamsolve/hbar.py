"""Convergence-control parameter selection.

The series residual as a function of hbar typically has a flat valley
around the best value. The scan evaluates hbar values in batched passes of
up to PASS_POINTS columns (``Workspace.run_many``, one recursion per pass).
The search zooms: each pass spans the current bracket, and the next
bracket is the two intervals around the pass's best point, until a pass
spans less than BRACKET_TOL. The residual reported at the best hbar comes
from a one-column ``run_many`` there, which is bitwise the single run's.

The search's passes need no recursion of their own. One weak-nonlinearity
series v_k (``Workspace.perturbation_series``) gives the order-M partial
sum at every hbar, U_M(hbar) = sum_k C(M, k) hbar^k v_k, so a pass ranks
these model columns: one weighted sum and one F(U) evaluation. The model
is exact up to roundoff of order eps ||A_L|| sum_k C(M, k) |hbar|^k |v_k|
in F(U), and where the residual sinks to that floor it is cancellation,
not the series, that ranks the columns. So a side of the bracket keeps
the model only while every column it evaluates has a residual above its
roundoff floor; otherwise that side is searched again over real columns
(``run_many``).

A side searched over real columns runs its first pass as such. U_M(hbar)
is a polynomial of degree M in hbar, so the real partial sums at the M + 1
Chebyshev-Lobatto points of the next bracket (one ``Workspace._march``)
give it everywhere in that bracket, and the passes that follow rank the
barycentric columns sum_j l_j(hbar) U_j under the same kind of guard, with
the floor eps ||A_L|| sum_j |l_j(hbar)| |U_j|. A pass that fails the guard,
and every pass after it, goes on over real columns. The interpolant is
built only where it can pay off: its M + 1 columns must be fewer than the
PASS_POINTS per pass of the passes it replaces, and the first pass's best
residual must lie above (eps ||A_L|| ||U_best||)^2, the least floor the
guard can read at that point, which the next pass contains. Everything
here is deterministic: identical inputs produce bit-identical curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, real_argument
from .engine import Workspace, mean_square
from .grids import lobatto_barycentric_weights
from .problem import HamConfig, ProblemSpec, checked_hbar

PASS_POINTS = 17
BRACKET_TOL = 1e-3
EPS = float(np.finfo(float).eps)
_PASS_STEPS = np.arange(PASS_POINTS, dtype=float)
_PASS_STEPS.setflags(write=False)


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
        batch = ws.run_many(chunk)
        probes = ws.grid.interpolate(batch.partial_sums, probe_point)
        columns = zip(chunk, batch.residuals.tolist(), batch.diverged.tolist(), probes.tolist())
        entries.extend(HbarEntry(*column) for column in columns)
    return HbarCurve(entries=tuple(entries))


def scan_hbar(problem: ProblemSpec, base_config: HamConfig, hbar_grid: Sequence[float]) -> HbarCurve:
    """``scan_workspace`` on a workspace built from (problem, base_config)."""
    return scan_workspace(Workspace(problem, base_config), hbar_grid)


def _best_index(values: np.ndarray) -> int:
    """Index of a pass's smallest residual, a non-finite one counting as
    +inf (``_rank``); ties go to the earliest."""
    return int(np.argmin(np.where(np.isfinite(values), values, np.inf)))


def _pass_points(lo: float, hi: float) -> np.ndarray:
    """``np.linspace(lo, hi, PASS_POINTS)`` for a scalar bracket, bitwise:
    numpy's own three steps (steps times the spacing, plus lo, the last
    point set to hi) without its argument handling, which costs more than
    the arithmetic on a pass this short."""
    points = _PASS_STEPS * ((hi - lo) / (PASS_POINTS - 1))
    points += lo
    points[-1] = hi
    return points


def _zoom(lo: float, hi: float, residuals: Callable[[np.ndarray], Optional[np.ndarray]]) -> Optional[Tuple[float, float]]:
    """(rank, hbar) of the best point of the zoom passes on one zero-free
    sub-bracket; ties go to the earliest. ``residuals`` gives a pass's
    residuals at its points, or None to abandon the zoom (None is returned)."""
    bests = []
    while True:
        points = _pass_points(lo, hi)
        values = residuals(points)
        if values is None:
            return None
        i = _best_index(values)
        bests.append((_rank(values[i]), float(points[i])))
        if hi - lo < BRACKET_TOL:
            return min(bests, key=lambda b: b[0])
        lo, hi = points[max(i - 1, 0)], points[min(i + 1, PASS_POINTS - 1)]


def _passes(width: float) -> int:
    """Zoom passes over a bracket this wide: each pass but the last narrows
    it to two of its PASS_POINTS - 1 intervals."""
    passes = 1
    while width >= BRACKET_TOL:
        width *= 2.0 / (PASS_POINTS - 1)
        passes += 1
    return passes


class _Columns:
    """Residuals of the columns U(hbar) = sum_j w_j(hbar) c_j of stored grid
    functions c_j, the rows of ``coeffs``; ``weights`` maps K points to the
    (J, K) weights. None for a pass with a column at or below its roundoff
    floor (eps ||A_L||_inf max_i sum_j |w_j| |c_j(i)|)^2, ``eps_norm`` being
    eps ||A_L||_inf (module docstring)."""

    def __init__(self, ws: Workspace, coeffs: np.ndarray, weights: Callable[[np.ndarray], np.ndarray], eps_norm: float):
        self._ws = ws
        self._coeffs = coeffs
        self._abs_coeffs = np.abs(coeffs)
        self._weights = weights
        self._eps_norm = eps_norm

    def columns(self, points: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """The columns at K points, (n, K), and the scale of each one's
        roundoff, max_i sum_j |w_j| |c_j(i)|."""
        weights = self._weights(points)
        return self._coeffs.T @ weights, np.max(self._abs_coeffs.T @ np.abs(weights), axis=0)

    def __call__(self, points: np.ndarray) -> Optional[np.ndarray]:
        ws = self._ws
        # a column that overflows reads inf or nan and fails the guard
        with np.errstate(over="ignore", invalid="ignore"):
            columns, terms = self.columns(points)
            residuals = mean_square(ws.grid, ws.operator_values(columns))
            floors = (self._eps_norm * terms) ** 2
        trusted = np.isfinite(residuals) & np.isfinite(floors) & (residuals > floors)
        return residuals if np.all(trusted) else None


def _series_model(ws: Workspace, eps_norm: float) -> _Columns:
    """Columns U_M(hbar) = sum_k C(M, k) hbar^k v_k at the workspace's order
    M, from one ``perturbation_series``."""
    order = ws.config.order
    comb = np.array([math.comb(order, k) for k in range(order + 1)], dtype=float)[:, None]
    powers = np.arange(order + 1)[:, None]
    return _Columns(ws, ws.perturbation_series(), lambda points: comb * points**powers, eps_norm)


def _interpolant(ws: Workspace, lo: float, hi: float, eps_norm: float) -> _Columns:
    """Columns of the degree-M polynomial in hbar through the real partial
    sums at the M + 1 Chebyshev-Lobatto points of [lo, hi], one ``_march``,
    in barycentric form."""
    degree = ws.config.order
    x = np.sin(0.5 * np.pi * np.linspace(-1.0, 1.0, degree + 1))
    nodes = lo + (hi - lo) * (x + 1.0) / 2.0
    nodes[0], nodes[-1] = lo, hi
    sums = ws._march(nodes).sum(axis=0)
    w = lobatto_barycentric_weights(degree + 1)[:, None]

    def weights(points):
        diff = points - nodes[:, None]
        hit = diff == 0.0
        q = w / np.where(hit, 1.0, diff)
        ell = q / np.sum(q, axis=0)
        at_node = np.any(hit, axis=0)
        ell[:, at_node] = hit[:, at_node]
        return ell

    return _Columns(ws, sums.T, weights, eps_norm)


class _RealZoom:
    """One side's zoom passes over real columns (``run_many``). After the
    first pass the side ranks ``_interpolant`` columns instead, where they
    can pay off, until a pass fails their guard (module docstring)."""

    def __init__(self, ws: Workspace, eps_norm: float):
        self._ws = ws
        self._eps_norm = eps_norm
        self._passes = 0
        self._above_floor = False
        self._interpolant = None

    def __call__(self, points: np.ndarray) -> np.ndarray:
        ws = self._ws
        self._passes += 1
        if self._passes == 2 and self._above_floor and ws.config.order + 1 < PASS_POINTS * _passes(points[-1] - points[0]):
            self._interpolant = _interpolant(ws, points[0], points[-1], self._eps_norm)
        if self._interpolant is not None:
            values = self._interpolant(points)
            if values is not None:
                return values
            self._interpolant = None
        batch = ws.run_many(points)
        if self._passes == 1:
            # the interpolant's guard reads at least this floor at the best
            # column, which the next pass contains
            i = _best_index(batch.residuals)
            with np.errstate(over="ignore"):
                floor = (self._eps_norm * np.max(np.abs(batch.partial_sums[:, i]))) ** 2
            self._above_floor = bool(batch.residuals[i] > floor)
        return batch.residuals


def split_bracket(lo: float, hi: float) -> list:
    """The zero-free sub-brackets of (lo, hi), in ascending order.

    hbar = 0 is not admissible, so a bracket that reaches zero is cut back
    to BRACKET_TOL on each side; a side left empty is dropped. Raises
    ConfigError for a non-finite or empty bracket, or one that lies within
    BRACKET_TOL of zero.
    """
    name = f"each end of the hbar bracket ({lo!r}, {hi!r})"
    lo, hi = real_argument(lo, name), real_argument(hi, name)
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
    sides are searched by zoom passes over model columns, or where the
    model is not trusted over real and then interpolant columns (module
    docstring); the last pass on a side spans less than BRACKET_TOL.
    hbar_star is the best column any pass evaluated. residual_star comes
    from a one-column ``ws.run_many`` at hbar_star, because a model,
    interpolant or many-column residual differs from the single run's in
    the last digits, and a one-column batch's is bitwise the single run's;
    so it is exactly what ``run_ham`` reports there. Raises
    ConfigError when that residual is not finite: no hbar the search
    evaluated had a finite residual.
    """
    sides = split_bracket(*bracket)
    eps_norm = EPS * float(np.max(np.sum(np.abs(ws.A_L), axis=1)))
    model = _series_model(ws, eps_norm)
    zooms = (_zoom(lo, hi, model) or _zoom(lo, hi, _RealZoom(ws, eps_norm)) for lo, hi in sides)
    best = min(zooms, key=lambda b: b[0])
    hbar_star = best[1]
    residual_star = float(ws.run_many([hbar_star]).residuals[0])
    if not math.isfinite(residual_star):
        raise ConfigError(f"no hbar in the bracket {bracket} gave a finite residual")
    return OptimalHbar(hbar_star=hbar_star, residual_star=residual_star)


def optimal_hbar(problem: ProblemSpec, base_config: HamConfig, bracket: Tuple[float, float]) -> OptimalHbar:
    """``optimal_workspace`` on a workspace built from (problem, base_config)."""
    return optimal_workspace(Workspace(problem, base_config), bracket)
