"""Path tracing for the embedded family G(eps, u) = 0 on eps in [0, 1].

G(eps, u) = (1 - eps) L_opt(u - u_0) + eps hbar H(r) F(u) on interior rows;
boundary rows carry the BC residual of u itself, so a path point satisfies
the problem's boundary conditions at every eps. An Euler-Newton
predictor-corrector in eps (Allgower & Georg, *Introduction to Numerical
Continuation Methods*, ch. 2) with step halving; no fold traversal. Each
step starts Newton from the tangent prediction u + (target - eps) t, where
J t = -dG/deps is solved with the LU Newton already holds, and at eps = 1
one full Newton update polishes the endpoint. A fold or a singular
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
jacobian at eps = 0 is L_opt's BC matrix). A Newton iteration costs about
one dense LU, and when N does not depend on u one LU serves every update
at an eps. The tangent of an accepted step costs two G evaluations, one
with F, and one solve with that LU, and the endpoint update one more LU.
Every iterate is bitwise what the plain formulas give (docs/recursions.md,
"What one Newton iteration costs" and "The tangent predictor").

Each path step reports the 1-norm condition number of the embedding
jacobian. No inverse is formed and no jacobian is built for it: it is the
estimate ``LU.condition`` takes from the LU factorization that Newton's
last update already computed, which is the jacobian at the iterate
one update before the accepted point (at the point itself when Newton
took no update). At eps = 0 the jacobian is exactly L_opt's BC-modified
matrix, so the step reuses that system's condition.

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

import numpy as np

from .errors import ConfigError, PathAbortError, SingularSystemError, is_integer, real_argument
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


@dataclass(frozen=True)
class PathStep:
    """Newton's result at eps, and so one point of a path once converged.
    ``jac_condition`` is nan when Newton did not converge."""

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
    u = ws.grid.check_length(u)
    lopt = ws.lopt
    g = (1.0 - eps) * (lopt.matrix @ (u - ws.u0))
    if eps > 0.0:  # G(0, u) reads no F, which may overflow where L_opt does not
        g += (eps * ws.config.hbar) * (ws.H_vals * ws.operator_values(u))
    for i, bc in zip(lopt.rows, lopt.bcs):
        g[i] = lopt.matrix[i] @ u - bc.value
    return g


def homotopy_jacobian(ws: Workspace, eps: float, u: np.ndarray) -> np.ndarray:
    """d G/d u at (eps, u), dense, with BC rows in place."""
    eps = real_argument(eps, "eps", 0.0, 1.0)
    u = ws.grid.check_length(u)
    return _Corrector(ws).jacobian(eps, u)


def _converged(gnorm: float, u: np.ndarray) -> bool:
    return gnorm < NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))


class _Corrector:
    """Newton's state on one workspace: the n x n work arrays, N's partials
    tape, (1 - eps) L_opt's matrix at the eps last asked for, and ``lu``,
    the LU of the last jacobian factored. ``lu`` starts as ``ws.lopt.lu``,
    the jacobian's at eps = 0, and stays valid until the next
    factorization. A trace builds one for all its solves: fresh arrays
    this large are page-faulted in anew, and the tape is lowered once.
    """

    def __init__(self, ws: Workspace):
        n = ws.grid.n
        self.ws = ws
        self.partials = PartialsTape(ws.problem.N, ws.grid.nodes)
        self.scaled_lopt = np.empty((n, n))
        self.J = np.empty((n, n))
        self.factors = np.empty((n, n), order="F")  # LAPACK factors it in place
        self.scaled_eps = None  # the eps that scaled_lopt was formed at
        self.lu = ws.lopt.lu

    def jacobian(self, eps: float, u: np.ndarray) -> np.ndarray:
        """``homotopy_jacobian`` written into ``J``."""
        ws, lopt, out = self.ws, self.ws.lopt, self.J
        if eps != self.scaled_eps:  # the part that does not depend on u
            np.multiply(lopt.matrix, 1.0 - eps, out=self.scaled_lopt)
            self.scaled_eps = eps
        np.copyto(out, ws.A_L)
        self.partials.add_frechet(out, ws.grid, u)
        # in place, with the same roundings as (1 - eps) M + (eps hbar) (H df);
        # scaling by H = 1 changes no bit, so that pass is skipped
        if not ws.unit_weight:
            out *= ws.H_vals[:, None]
        out *= eps * ws.config.hbar
        out += self.scaled_lopt
        out[lopt.rows] = lopt.matrix[lopt.rows]
        return out

    def update(self, eps: float, u: np.ndarray, g: np.ndarray, refactor: bool = True) -> np.ndarray:
        """The Newton update at (eps, u) for G = ``g``, solved with the
        jacobian factored at u, or with ``lu`` as it stands when not
        ``refactor``. Neither the factorization nor the solve scans for
        non-finite entries: an exactly singular jacobian, or a non-finite
        one at an iterate where G is not finite either, gives a non-finite
        update, reported as SingularSystemError (docs/recursions.md)."""
        if refactor:
            self.lu = LU(self.jacobian(eps, u), self.factors)
        delta = self.lu.solve(-g)
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError(
                f"embedding jacobian is singular or not finite at eps={eps:g}"
            )
        return delta

    def newton(self, eps: float, warm_start: np.ndarray) -> PathStep:
        """``newton_at``. When N does not depend on u the jacobian is the
        same matrix at every iterate, so it is built and factored once and
        its LU serves every update."""
        ws = self.ws
        u = ws.grid.check_length(warm_start).copy()
        g = homotopy_residual(ws, eps, u)
        gnorm = float(np.max(np.abs(g)))
        for it in range(NEWTON_MAX_ITERS + 1):
            if _converged(gnorm, u):
                if it == 0:  # no update was taken: factor the jacobian at u
                    self.lu = LU(self.jacobian(eps, u), self.factors)
                return PathStep(eps, u, it, self.lu.condition(), True, gnorm)
            if it == NEWTON_MAX_ITERS:
                break
            delta = self.update(eps, u, g, refactor=it == 0 or not self.partials.u_independent)
            scale = 1.0
            for _ in range(MAX_HALVINGS + 1):
                trial = u + scale * delta
                g_trial = homotopy_residual(ws, eps, trial)
                t_norm = float(np.max(np.abs(g_trial)))
                if t_norm < gnorm:
                    u, g, gnorm = trial, g_trial, t_norm
                    break
                scale *= 0.5
            else:
                return PathStep(eps, u, it + 1, math.nan, False, gnorm)
        return PathStep(eps, u, NEWTON_MAX_ITERS, math.nan, False, gnorm)

    def tangent(self, u: np.ndarray):
        """du/deps at a path point u: t with J t = -dG/deps, or None when t
        is not finite, as a singular J's is.

        G is affine in eps: dG/deps = G(1, u) - G(0, u), exactly 0 on BC
        rows. J's LU is ``lu``: Newton's last at the point's eps, or at
        eps = 0 L_opt's own.
        """
        t = self.lu.solve(homotopy_residual(self.ws, 0.0, u) - homotopy_residual(self.ws, 1.0, u))
        return t if np.all(np.isfinite(t)) else None

    def polish(self, step: PathStep) -> PathStep:
        """The step at eps = 1 after one more full Newton update, without a
        line search; ``step`` itself unless the update is finite and the
        updated point passes the stop test. A predicted start passes the
        stop test in fewer updates than a zeroth-order one, so it is solved
        less far below the tolerance; this update buys that accuracy back
        (docs/recursions.md).
        """
        ws = self.ws
        try:
            u = step.u + self.update(1.0, step.u, homotopy_residual(ws, 1.0, step.u))
        except SingularSystemError:
            return step
        gnorm = float(np.max(np.abs(homotopy_residual(ws, 1.0, u))))
        if not _converged(gnorm, u):
            return step
        return PathStep(1.0, u, step.newton_iters + 1, self.lu.condition(), True, gnorm)


def newton_at(ws: Workspace, eps: float, warm_start: np.ndarray) -> PathStep:
    """Correct a warm start to the solution of G(eps, u) = 0.

    Never raises on slow convergence (returns converged = False);
    SingularSystemError when an update is not finite, as a singular
    jacobian's is. The step carries the sup norm of G at the returned point
    and, when converged, the 1-norm condition estimate of the last jacobian
    factored, the one at the iterate before the last update (at the
    returned point itself when no update was needed); nan otherwise.
    """
    eps = real_argument(eps, "eps", 0.0, 1.0)
    return _Corrector(ws).newton(eps, warm_start)


def trace_workspace(ws: Workspace, initial_steps: int = 16) -> ContinuationPath:
    """March eps from 0 to 1 with tangent-predicted Newton correction.

    The tracing counterpart of ``Workspace.run``: it uses the workspace's
    grid, matrices, u_0 and ``ws.config.hbar`` and builds none of its own.
    Every try at a target eps, halvings included, starts Newton from
    u + (target - eps) t, with t the tangent at the last accepted point
    (from u itself when t is not finite). Failed steps halve the increment
    (a singular jacobian mid-path counts as a failure); below the 1e-4
    floor the trace aborts with the partial path attached to the error.
    Successful steps grow the increment back, capped at the initial
    1/initial_steps. The last step lands on eps = 1 exactly and takes one
    more full Newton update, kept when it passes the stop test.
    """
    if not (is_integer(initial_steps) and initial_steps >= 2):
        raise ConfigError(f"initial_steps must be an integer >= 2, got {initial_steps!r}")
    g0norm = float(np.max(np.abs(homotopy_residual(ws, 0.0, ws.u0))))
    # the jacobian at eps = 0 is exactly ws.lopt.matrix
    steps = [
        PathStep(0.0, ws.u0, 0, ws.lopt.condition, _converged(g0norm, ws.u0), g0norm)
    ]
    deps0 = 1.0 / initial_steps
    deps = deps0
    eps = 0.0
    u = ws.u0
    corrector = _Corrector(ws)
    tangent = corrector.tangent(u)
    while eps < 1.0:
        target = min(eps + deps, 1.0)
        if 1.0 - target < 1e-12:
            target = 1.0
        start = u if tangent is None else u + (target - eps) * tangent
        try:
            step = corrector.newton(target, start)
            converged = step.converged
        except SingularSystemError:
            converged = False
        if converged:
            if target == 1.0:
                step = corrector.polish(step)
            else:
                tangent = corrector.tangent(step.u)
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
    """``trace_workspace`` on a fresh workspace for problem and config."""
    return trace_workspace(Workspace(problem, config), initial_steps)
