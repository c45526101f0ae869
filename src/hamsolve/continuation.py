"""Path tracing for the embedded family G(eps, u) = 0 on eps in [0, 1].

G(eps, u) = (1 - eps) L_opt(u - u_0) + eps hbar H(r) F(u) on interior rows;
boundary rows carry the BC residual of u itself, so a path point satisfies
the problem's boundary conditions at every eps. An Euler-Newton
predictor-corrector in eps (Allgower & Georg, *Introduction to Numerical
Continuation Methods*, ch. 2) with step halving; no fold traversal. Each
step starts Newton from the tangent prediction u + (target - eps) t, where
J t = -dG/deps is solved with the LU Newton already holds; on a trace that
takes chord steps (below), every step after the first starts from the
cubic Hermite through the last two path points and their tangents. At
eps = 1 one full Newton update polishes the endpoint. A fold or a singular
embedding direction surfaces as PathAbortError with the partial path
attached rather than being silently skipped.

Everything here runs on one engine ``Workspace``, passed first:
``homotopy_residual``, ``homotopy_jacobian``, ``newton_at`` and
``trace_workspace(ws, initial_steps)``, which marches the whole path.
``trace_path(problem, config, initial_steps)`` builds the workspace first.

A trace keeps Newton's state in one corrector object: the work arrays
that the jacobian is built in and factored in place (``grids.LU``, the
package's one LU type), (1 - eps) L_opt formed once per eps, and the LU of
the last jacobian factored, L_opt's own until Newton factors one (the
jacobian at eps = 0 is L_opt's BC matrix). The first Newton update at an
eps costs one dense LU. When N does not depend on u that LU serves every
later update at the eps. Otherwise, when kappa_1(L_opt) is at most
``CHORD_COND_LIMIT``, a later update first tries the chord step, which
solves with the eps's last LU (a simplified Newton step; Deuflhard,
*Newton Methods for Nonlinear Problems*, 2004, ch. 2), and keeps it when
it cuts |G|_inf to ``CHORD_THETA`` of its value; else, and on every trace
above the limit, the update factors the jacobian at its own iterate. G at
any eps is one combination of G's parts at u, L_opt(u - u_0), H F(u) and
the BC rows' residuals. Newton returns the parts of the point it accepts
beside the step, and the trace hands them to the tangent and to the
endpoint update, so neither evaluates G: the tangent costs two O(n)
combinations and one solve with the eps's last LU, and the endpoint
update one more LU (none when N reads no u). When N reads no u, the
core is L's own matrix and H = 1, the jacobian at hbar = 1 is L_opt's BC
matrix at every eps, and the trace factors nothing: every solve uses
L_opt's LU and every step reports its condition. The trace forms u_0's
parts once, with F, and reads step 0's G and the first tangent from them.
Every iterate is bitwise what the plain formulas give, with L_opt's
matrix as the jacobian where it folds (docs/recursions.md, "What one
Newton iteration costs" and "The tangent predictor").

Each path step reports the 1-norm condition number of the embedding
jacobian. No inverse is formed and no jacobian is built for it: it is the
estimate ``LU.condition`` takes from the last LU factorization at the
step's eps, the one the tangent solves with: the jacobian at the iterate
where Newton last factored one (the step's first update, or a fresh
update after a failed chord step; the point itself when Newton took no
update). At eps = 0 the jacobian is exactly L_opt's BC-modified matrix, so
the step reuses that system's condition.

Note the embedding direction matters: for hbar < 0 the convex combination
(1 - eps) L_opt + eps hbar L can pass through an exactly singular matrix at
eps = 1/(1 - hbar). Tracing is therefore healthiest at hbar > 0, which is
the series' usual hbar < 0 with its sign flipped: G at hbar = h is the
deformation family of the engine at hbar = -h, and the path is that
series summed at p = eps (docs/recursions.md, "Why the embedding direction
matters"). demos/path_tracing.py walks through both signs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import PathAbortError, SingularSystemError, integer_argument, real_argument
from .engine import Workspace
from .grids import LU
from .jets import PartialsTape
from .problem import HamConfig, ProblemSpec

# the tracer's default hbar: the series' usual hbar = -1 with its sign
# flipped, the healthy embedding direction (see above)
TRACE_HBAR = 1.0
NEWTON_TOL = 1e-10
NEWTON_MAX_ITERS = 50
MAX_HALVINGS = 8
MIN_STEP = 1e-4
# a chord step is kept when it cuts |G|_inf to this share of its value
CHORD_THETA = 0.25
# chord steps only where kappa_1(L_opt) is at most this: a stale LU meets
# the roundoff floor of the stop test sooner (docs/calibration.md)
CHORD_COND_LIMIT = 1e10


@dataclass(frozen=True)
class PathStep:
    """Newton's result at eps, and so one point of a path once converged.
    ``jac_condition`` is the 1-norm condition estimate of the last jacobian
    factored at eps, at the iterate it was factored at, which need not be
    ``u``; nan when Newton did not converge."""

    eps: float
    u: np.ndarray
    newton_iters: int
    jac_condition: float
    converged: bool
    residual_inf: float


@dataclass(frozen=True)
class ContinuationPath:
    """Accepted steps of one trace, eps strictly increasing from 0 to 1."""

    steps: tuple
    config: HamConfig

    def __post_init__(self):
        object.__setattr__(self, "steps", tuple(self.steps))

    @property
    def final(self) -> PathStep:
        return self.steps[-1]


def homotopy_residual(ws: Workspace, eps: float, u: np.ndarray) -> np.ndarray:
    """G(eps, u) with BC residuals on the boundary rows."""
    eps = real_argument(eps, "eps", 0.0, 1.0)
    return _residual(ws, eps, _parts(ws, ws.grid.check_length(u), eps > 0.0))


class _Parts(NamedTuple):
    """G's parts at one u, from which ``_residual`` forms G at any eps."""

    lopt_term: np.ndarray  # L_opt(u - u_0)
    weighted_F: Optional[np.ndarray]  # H F(u), None when not read
    bc_residuals: list  # (BC row) @ u - value, one per BC


def _parts(ws: Workspace, u: np.ndarray, with_F: bool = True) -> _Parts:
    """G's parts at u, H F(u) only ``with_F``: G(0, u) reads no F, which
    may overflow where L_opt does not. Scaling by H = 1 changes no bit, so
    that product is skipped."""
    lopt = ws.lopt
    weighted_F = ws.operator_values(u) if with_F else None
    if with_F and not ws.unit_weight:
        weighted_F *= ws.H_vals
    return _Parts(
        lopt.matrix @ (u - ws.u0),
        weighted_F,
        [lopt.matrix[i] @ u - bc.value for i, bc in zip(lopt.rows, lopt.bcs)],
    )


def _residual(ws: Workspace, eps: float, parts: _Parts) -> np.ndarray:
    """G(eps, u) = (1 - eps) L_opt(u - u_0) + (eps hbar) H F(u), with the
    BC residuals on the BC rows, from u's ``parts``."""
    g = (1.0 - eps) * parts.lopt_term
    if eps > 0.0:
        g += (eps * ws.config.hbar) * parts.weighted_F
    for i, residual in zip(ws.lopt.rows, parts.bc_residuals):
        g[i] = residual
    return g


def _evaluate(ws: Workspace, eps: float, u: np.ndarray, with_F: bool):
    """G(eps, u), its sup norm and u's parts."""
    parts = _parts(ws, u, with_F)
    g = _residual(ws, eps, parts)
    return g, float(np.max(np.abs(g))), parts


def homotopy_jacobian(ws: Workspace, eps: float, u: np.ndarray) -> np.ndarray:
    """d G/d u at (eps, u), dense, with BC rows in place."""
    eps = real_argument(eps, "eps", 0.0, 1.0)
    u = ws.grid.check_length(u)
    return _Corrector(ws).jacobian(eps, u)


def _converged(gnorm: float, u: np.ndarray) -> bool:
    return gnorm < NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))


class _Corrector:
    """Newton's state on one workspace: the n x n work arrays, N's partials
    tape, (1 - eps) L_opt's matrix at the eps last asked for, ``lu``, the
    LU of the last jacobian factored, and ``takes_chords``, whether Newton
    tries chord steps on this trace. It keeps no point or G: ``newton``
    returns G's parts at the point it accepts, and ``tangent`` and
    ``polish`` read only the parts they are given. ``lu`` starts as
    ``ws.lopt.lu``, the jacobian's at eps = 0; after that its factors
    overwrite ``J``, and stay valid until the next jacobian is built.
    Every work array is column-major, as LAPACK factors ``J`` in place,
    and so are the corrector's copies of A_L, L_opt's matrix and the D_k
    (k >= 1) that N's partials multiply, so that building ``J`` reads
    nothing across the two layouts. The arrays are built with the first
    jacobian, so a corrector that only folds (``factor``) allocates none.
    A trace builds one corrector for all its solves: fresh arrays this
    large are page-faulted in anew, and the tape is lowered once.
    """

    def __init__(self, ws: Workspace):
        self.ws = ws
        self.partials = PartialsTape(ws.problem.N, ws.grid.nodes)
        # when N reads no u, L_opt's matrix is L's and H = 1, J's interior rows
        # are c A_L, c = 1 + eps (hbar - 1): L_opt's where c = 1 (``factor``)
        self.folds = ws._folds and self.partials.u_independent
        self.J = None  # the work arrays, built with the first jacobian
        self.scaled_eps = None  # the eps that scaled_lopt was formed at
        self.lu = ws.lopt.lu
        self.lu_is_lopt = True  # whose condition the workspace holds
        # later updates at an eps try the chord step first (``newton``)
        self.takes_chords = not self.partials.u_independent and ws.lopt.condition <= CHORD_COND_LIMIT

    def _work_arrays(self):
        ws, n = self.ws, self.ws.grid.n
        self.A_L = np.array(ws.A_L, order="F")
        self.lopt_matrix = np.array(ws.lopt.matrix, order="F")
        self.diffs = {k: np.array(ws.grid.diff_matrix(k), order="F") for k in range(1, ws.problem.N.u_order + 1)}
        # where each diag(dN/du^(k)) D_k is formed, for an N that reads u'
        self.term = np.empty((n, n), order="F") if self.diffs else None
        self.scaled_lopt = np.empty((n, n), order="F")
        self.J = np.empty((n, n), order="F")

    def jacobian(self, eps: float, u: np.ndarray) -> np.ndarray:
        """``homotopy_jacobian`` written into ``J``."""
        if self.J is None:
            self._work_arrays()
        ws, lopt, out = self.ws, self.ws.lopt, self.J
        if eps != self.scaled_eps:  # the part that does not depend on u
            np.multiply(self.lopt_matrix, 1.0 - eps, out=self.scaled_lopt)
            self.scaled_eps = eps
        np.copyto(out, self.A_L)
        self.partials.add_frechet(out, ws.grid, u, self.diffs.__getitem__, self.term)
        # in place, with the same roundings as (1 - eps) M + (eps hbar) (H df);
        # scaling by H = 1 changes no bit, so that pass is skipped
        if not ws.unit_weight:
            out *= ws.H_vals[:, None]
        out *= eps * ws.config.hbar
        out += self.scaled_lopt
        out[lopt.rows] = lopt.matrix[lopt.rows]
        return out

    def factor(self, eps: float, u: np.ndarray):
        """Make ``lu`` the jacobian's at (eps, u): ``ws.lopt.lu`` where the
        corrector folds and c = 1 exactly, that is at eps = 0 or hbar = 1."""
        self.lu_is_lopt = self.folds and (eps == 0.0 or self.ws.config.hbar == 1.0)
        self.lu = self.ws.lopt.lu if self.lu_is_lopt else LU(self.jacobian(eps, u))

    def condition(self) -> float:
        """``lu``'s condition estimate, the workspace's own for L_opt's LU."""
        return self.ws.lopt.condition if self.lu_is_lopt else self.lu.condition()

    def update(self, eps: float, u: np.ndarray, g: np.ndarray, refactor: bool = True) -> np.ndarray:
        """The Newton update at (eps, u) for G = ``g``, solved with the
        jacobian factored at u, or with ``lu`` as it stands when not
        ``refactor``. Neither the factorization nor the solve scans for
        non-finite entries: an exactly singular jacobian, or a non-finite
        one at an iterate where G is not finite either, gives a non-finite
        update, reported as SingularSystemError (docs/recursions.md)."""
        if refactor:
            self.factor(eps, u)
        delta = self.lu.solve(-g)
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError(
                f"embedding jacobian is singular or not finite at eps={eps:g}"
            )
        return delta

    def chord(self, eps: float, u: np.ndarray, g: np.ndarray, gnorm: float, with_F: bool):
        """The chord step at (eps, u) for G = ``g``: the full update solved
        with ``lu`` as it stands, no jacobian built or factored. The point,
        its G, |G|_inf and parts when it cuts |G|_inf to ``CHORD_THETA``
        of ``gnorm`` at least, else None; None too when the update is not
        finite."""
        point = self.lu.solve(-g)  # the update, then u plus it in place
        if not np.all(np.isfinite(point)):
            return None
        point += u
        g_point, norm, parts = _evaluate(self.ws, eps, point, with_F)
        return (point, g_point, norm, parts) if norm <= CHORD_THETA * gnorm else None

    def newton(self, eps: float, warm_start: np.ndarray) -> tuple[PathStep, _Parts]:
        """``newton_at``, and G's parts at the point it returns (without F
        at eps = 0). The first update at an eps factors the jacobian at its
        iterate. When N does not depend on u the jacobian is the same
        matrix at every iterate, so that LU serves every later update.
        Otherwise, on a trace that ``takes_chords``, each later update
        first tries the chord step with ``lu``, the last LU factored at
        the eps, and factors the jacobian at its own iterate, with the line
        search, only where the chord step fails (Deuflhard 2004, ch. 2)."""
        ws = self.ws
        with_F = eps > 0.0
        u = warm_start.copy()
        g, gnorm, parts = _evaluate(ws, eps, u, with_F)
        for it in range(NEWTON_MAX_ITERS + 1):
            if _converged(gnorm, u):
                if it == 0:  # no update was taken: factor the jacobian at u
                    self.factor(eps, u)
                return PathStep(eps, u, it, self.condition(), True, gnorm), parts
            if it == NEWTON_MAX_ITERS:
                break
            if it > 0 and self.takes_chords:
                kept = self.chord(eps, u, g, gnorm, with_F)
                if kept is not None:
                    u, g, gnorm, parts = kept
                    continue
            delta = self.update(eps, u, g, refactor=it == 0 or not self.partials.u_independent)
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                trial = u + scale * delta
                g_trial, t_norm, trial_parts = _evaluate(ws, eps, trial, with_F)
                if t_norm < gnorm:
                    u, g, gnorm, parts = trial, g_trial, t_norm, trial_parts
                    break
                scale *= 0.5
            else:
                return PathStep(eps, u, it + 1, math.nan, False, gnorm), parts
        return PathStep(eps, u, NEWTON_MAX_ITERS, math.nan, False, gnorm), parts

    def tangent(self, parts: _Parts):
        """du/deps at a path point: t with J t = -dG/deps, or None when t is
        not finite, as a singular J's is.

        G is affine in eps: dG/deps = G(1, u) - G(0, u), exactly 0 on BC
        rows, formed from the point's ``parts`` (with F), so the tangent
        evaluates no G. J's LU is ``lu``: Newton's last at the point's eps,
        or at eps = 0 L_opt's own. After chord steps that is the jacobian
        at an iterate before the point.
        """
        ws = self.ws
        t = self.lu.solve(_residual(ws, 0.0, parts) - _residual(ws, 1.0, parts))
        return t if np.all(np.isfinite(t)) else None

    def polish(self, step: PathStep, parts: _Parts) -> PathStep:
        """The step at eps = 1 after one more full Newton update, without a
        line search, G read from the point's ``parts``; ``step`` itself
        unless the update is finite and the updated point passes the stop
        test. A predicted start passes the stop test in fewer updates than
        a zeroth-order one, and a chord step converges only linearly, so
        either is solved less far below the tolerance; this update, with
        the jacobian factored at ``step.u``, buys that accuracy back
        (docs/recursions.md). When N reads no u, the jacobian at eps = 1 is
        the one Newton's last ``lu`` already factored there, so it is not
        factored again.
        """
        ws = self.ws
        try:
            u = step.u + self.update(1.0, step.u, _residual(ws, 1.0, parts), not self.partials.u_independent)
        except SingularSystemError:
            return step
        gnorm = float(np.max(np.abs(_residual(ws, 1.0, _parts(ws, u)))))
        if not _converged(gnorm, u):
            return step
        return PathStep(1.0, u, step.newton_iters + 1, self.condition(), True, gnorm)


def newton_at(ws: Workspace, eps: float, warm_start: np.ndarray) -> PathStep:
    """Correct a warm start to the solution of G(eps, u) = 0.

    Never raises on slow convergence (returns converged = False);
    SingularSystemError when an update is not finite, as a singular
    jacobian's is. The step carries the sup norm of G at the returned point
    and, when converged, the 1-norm condition estimate of the last jacobian
    factored, the one at the iterate where Newton last factored (the first
    update's, or a fresh update's after a failed chord step; the returned
    point itself when no update was needed); nan otherwise.
    """
    eps = real_argument(eps, "eps", 0.0, 1.0)
    return _Corrector(ws).newton(eps, ws.grid.check_length(warm_start))[0]


def _hermite(e0, u0, t0, e1, u1, t1, target):
    """The cubic Hermite through the points u0 at e0 and u1 at e1 with
    slopes t0 and t1, at eps = target: u(target) to O(h^4), h = target - e1."""
    d = e1 - e0
    s = 1.0 + (target - e1) / d
    h00, h10 = 2 * s**3 - 3 * s**2 + 1, s**3 - 2 * s**2 + s
    h01, h11 = -2 * s**3 + 3 * s**2, s**3 - s**2
    return h00 * u0 + (h10 * d) * t0 + h01 * u1 + (h11 * d) * t1


def trace_workspace(ws: Workspace, initial_steps: int = 16) -> ContinuationPath:
    """March eps from 0 to 1 with tangent-predicted Newton correction.

    The tracing counterpart of ``Workspace.run``: it uses the workspace's
    grid, matrices, u_0 and ``ws.config.hbar`` and builds none of its own.
    Every try at a target eps, halvings included, starts Newton from
    u + (target - eps) t, with t the tangent at the last accepted point
    (from u itself when t is not finite). On a trace that takes chord
    steps, a try with an earlier accepted point whose tangent is finite
    too starts from the cubic Hermite through both points instead
    (``_hermite``): its error is O(h^4) where Euler's is O(h^2). Traces
    where N reads no u (at hbar 1 their path is affine in eps, and Euler
    exact) and traces above ``CHORD_COND_LIMIT``, where extrapolation
    amplifies the tangents' roundoff, keep the Euler start
    (docs/recursions.md, "The tangent predictor"). Failed steps halve the
    increment (a singular jacobian mid-path counts as a failure); below
    the 1e-4 floor the trace aborts with the partial path attached to the
    error. Successful steps grow the increment back, capped at the
    initial 1/initial_steps. The last step lands on eps = 1 exactly and
    takes one more full Newton update, kept when it passes the stop test.
    """
    integer_argument(initial_steps, "initial_steps", 2)
    parts = _parts(ws, ws.u0)  # with F, which the first tangent reads
    g0norm = float(np.max(np.abs(_residual(ws, 0.0, parts))))
    # the jacobian at eps = 0 is exactly ws.lopt.matrix
    steps = [
        PathStep(0.0, ws.u0, 0, ws.lopt.condition, _converged(g0norm, ws.u0), g0norm)
    ]
    deps0 = 1.0 / initial_steps
    deps = deps0
    eps = 0.0
    u = ws.u0
    corrector = _Corrector(ws)
    tangent = corrector.tangent(parts)
    last = None  # the accepted point before (eps, u), with its tangent
    while eps < 1.0:
        target = min(eps + deps, 1.0)
        if 1.0 - target < 1e-12:
            target = 1.0
        if tangent is None:
            start = u
        elif last is None or last[2] is None or not corrector.takes_chords:
            start = u + (target - eps) * tangent
        else:
            start = _hermite(*last, eps, u, tangent, target)
        try:
            step, parts = corrector.newton(target, start)
            converged = step.converged
        except SingularSystemError:
            converged = False
        if converged:
            last = (eps, u, tangent)
            if target == 1.0:
                step = corrector.polish(step, parts)
            else:
                tangent = corrector.tangent(parts)
            eps, u = target, step.u
            steps.append(step)
            deps = min(2.0 * deps, deps0)
        else:
            deps *= 0.5
            if deps < MIN_STEP:
                partial = ContinuationPath(steps=tuple(steps), config=ws.config)
                raise PathAbortError(
                    f"continuation stalled near eps={eps:g}: step underflowed "
                    f"{MIN_STEP:g} without Newton convergence",
                    partial,
                )
    return ContinuationPath(steps=tuple(steps), config=ws.config)


def trace_path(problem: ProblemSpec, config: HamConfig, initial_steps: int = 16) -> ContinuationPath:
    """``trace_workspace`` on a workspace for problem and config, which
    takes its set-up from the last workspace built on the same problem and
    core when there is one (``Workspace``)."""
    return trace_workspace(Workspace(problem, config), initial_steps)
