"""Path tracing for the embedded family G(eps, u) = 0 on eps in [0, 1].

G(eps, u) = (1 - eps) L_opt(u - u_0) + eps hbar H(r) F(u) on interior rows;
boundary rows carry the BC residual of u itself, so a path point satisfies
the problem's boundary conditions at every eps. Natural-parameter marching
with Newton correction and step halving; no fold traversal. A fold or a
singular embedding direction surfaces as PathAbortError with the partial
path attached rather than being silently skipped.

Everything here runs on one engine ``Workspace``, passed first:
``homotopy_residual``, ``homotopy_jacobian``, ``newton_at`` and
``trace_workspace(ws, initial_steps)``, which marches the whole path.
``trace_path(problem, config, initial_steps)`` builds the workspace first.

A Newton iteration costs about one dense LU: (1 - eps) L_opt is formed once
per eps, the factorization (``grids.factor``, the package's one LU path)
runs in place in work arrays that a trace allocates once, and when N does
not depend on u one LU serves every update at that eps. Every iterate is bitwise what the plain formulas give
(docs/recursions.md, "What one Newton iteration costs").

Each path step reports the 1-norm condition number of the embedding
jacobian. No inverse is formed and no jacobian is built for it: it is the
estimate ``grids.lu_condition`` takes from the LU factorization that
Newton's last update already computed, which is the jacobian at the iterate
one update before the accepted point (at the point itself when Newton
took no update). At eps = 0 the jacobian is exactly L_opt's BC-modified
matrix, so the step reuses that system's condition.

Note the embedding direction matters: for hbar < 0 the convex combination
(1 - eps) L_opt + eps hbar L can pass through an exactly singular matrix at
eps = 1/(1 - hbar). Tracing is therefore healthiest at hbar > 0 (the series
machinery, which never assembles that combination, keeps its usual negative
hbar). demos/path_tracing.py walks through both regimes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.linalg.lapack import dgetrs

from .errors import ConfigError, PathAbortError, SingularSystemError
from .engine import Workspace
from .expressions import max_u_order
from .grids import factor, lu_condition
from .jets import add_nonlinear_frechet
from .problem import HamConfig, ProblemSpec

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


def _check_eps(eps: float) -> float:
    if not 0.0 <= eps <= 1.0:
        raise ConfigError(f"eps={eps} outside [0, 1]")
    return float(eps)


def homotopy_residual(ws: Workspace, eps: float, u: np.ndarray) -> np.ndarray:
    """G(eps, u) with BC residuals on the boundary rows."""
    eps = _check_eps(eps)
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
    eps = _check_eps(eps)
    u = ws.grid.check_length(u)
    n = ws.grid.n
    return _jacobian(ws, eps, ws.lopt.matrix * (1.0 - eps), u, np.empty((n, n)))


def _jacobian(ws: Workspace, eps: float, scaled_lopt: np.ndarray, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``homotopy_jacobian`` written into ``out``, given ``scaled_lopt`` =
    (1 - eps) L_opt's matrix, the part that does not depend on u."""
    lopt = ws.lopt
    np.copyto(out, ws.A_L)
    add_nonlinear_frechet(out, ws.problem.N, ws.grid, u)
    # in place, with the same roundings as (1 - eps) M + (eps hbar) (H df);
    # scaling by H = 1 changes no bit, so that pass is skipped
    if np.any(ws.H_vals != 1.0):
        out *= ws.H_vals[:, None]
    out *= eps * ws.config.hbar
    out += scaled_lopt
    out[lopt.rows] = lopt.matrix[lopt.rows]
    return out


class _NewtonArrays(NamedTuple):
    """The n x n work arrays of Newton solves. A trace reuses one set for
    all its solves: fresh arrays this large are page-faulted in anew."""

    scaled_lopt: np.ndarray  # (1 - eps) L_opt's matrix
    jacobian: np.ndarray
    factors: np.ndarray  # column-major, so LAPACK factors it in place

    @classmethod
    def empty(cls, n: int) -> "_NewtonArrays":
        return cls(np.empty((n, n)), np.empty((n, n)), np.empty((n, n), order="F"))


def _converged(gnorm: float, u: np.ndarray) -> bool:
    return gnorm < NEWTON_TOL * (1.0 + float(np.max(np.abs(u))))


def newton_at(ws: Workspace, eps: float, warm_start: np.ndarray) -> PathStep:
    """Correct a warm start to the solution of G(eps, u) = 0.

    Never raises on slow convergence (returns converged = False);
    SingularSystemError when an update is not finite, as a singular
    jacobian's is. The step carries the sup norm of G at the returned point
    and, when converged, the 1-norm condition estimate of the last jacobian
    factored, the one at the iterate before the last update (at the
    returned point itself when no update was needed); nan otherwise.
    """
    eps = _check_eps(eps)
    return _newton(ws, eps, warm_start, _NewtonArrays.empty(ws.grid.n))


def _newton(ws: Workspace, eps: float, warm_start: np.ndarray, arrays: _NewtonArrays) -> PathStep:
    """``newton_at`` in the work arrays given.

    (1 - eps) L_opt is formed once per call. When N does not depend on u the
    jacobian is the same matrix at every iterate, so it is built and
    factored once and its LU serves every update. Neither the factorization
    nor the solves scan for non-finite entries: an exactly singular
    jacobian, or a non-finite one at an iterate where G is not finite
    either, gives a non-finite update, reported as SingularSystemError
    (docs/recursions.md).
    """
    u = ws.grid.check_length(warm_start).copy()
    g = homotopy_residual(ws, eps, u)
    gnorm = float(np.max(np.abs(g)))
    np.multiply(ws.lopt.matrix, 1.0 - eps, out=arrays.scaled_lopt)
    u_independent = max_u_order(ws.problem.N) < 0
    lu = None
    for it in range(NEWTON_MAX_ITERS + 1):
        if _converged(gnorm, u):
            if lu is None:  # no update was taken: factor the jacobian at u
                J = _jacobian(ws, eps, arrays.scaled_lopt, u, arrays.jacobian)
                lu = factor(J, arrays.factors)
            return PathStep(eps, u, it, lu_condition(lu, arrays.jacobian), True, gnorm)
        if it == NEWTON_MAX_ITERS:
            break
        if lu is None or not u_independent:
            J = _jacobian(ws, eps, arrays.scaled_lopt, u, arrays.jacobian)
            lu = factor(J, arrays.factors)
        delta = dgetrs(*lu, -g, overwrite_b=True)[0]
        if not np.all(np.isfinite(delta)):
            raise SingularSystemError(
                f"embedding jacobian is singular or not finite at eps={eps:g}"
            )
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


def trace_workspace(ws: Workspace, initial_steps: int = 16) -> ContinuationPath:
    """March eps from 0 to 1 with warm-started Newton correction.

    The tracing counterpart of ``Workspace.run``: it uses the workspace's
    grid, matrices, u_0 and ``ws.config.hbar`` and builds none of its own.
    Failed steps halve the increment (a singular jacobian mid-path counts
    as a failure); below the 1e-4 floor the trace aborts with the partial
    path attached to the error. Successful steps grow the increment back,
    capped at the initial 1/initial_steps. The last step lands on eps = 1
    exactly.
    """
    if initial_steps < 2:
        raise ConfigError(f"initial_steps must be >= 2, got {initial_steps}")
    g0norm = float(np.max(np.abs(homotopy_residual(ws, 0.0, ws.u0))))
    # the jacobian at eps = 0 is exactly ws.lopt.matrix
    steps = [
        PathStep(0.0, ws.u0, 0, ws.lopt.condition, _converged(g0norm, ws.u0), g0norm)
    ]
    deps0 = 1.0 / initial_steps
    deps = deps0
    eps = 0.0
    u = ws.u0
    arrays = _NewtonArrays.empty(ws.grid.n)
    while eps < 1.0:
        target = min(eps + deps, 1.0)
        if 1.0 - target < 1e-12:
            target = 1.0
        try:
            step = _newton(ws, target, u, arrays)
            converged = step.converged
        except SingularSystemError:
            converged = False
        if converged:
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
