"""The four benchmark workloads: inputs, operations and correctness checks.

Every operation goes through an entry point the library keeps for the long
term (``run_ham``, ``optimal_hbar``, ``scan_hbar``, ``trace_path``,
``check_equivalence``, ``parse_problem_text``, ``get_case``); none calls a
convenience wrapper scheduled for deletion.  Checks run outside the timed
region and are scaled to what double precision can reach, not bitwise, so a
change that alters the arithmetic on purpose stays measurable.

Importing this module imports hamsolve, numpy and scipy; the caller times it
as part of set-up.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import numpy as np

import hamsolve as hs

warnings.simplefilter("ignore")

EXPECTED = json.loads((Path(__file__).parent / "expected.json").read_text())
EPS = float(np.finfo(float).eps)
TRACE_F_BOUND = 1e-8  # acceptance criterion 3's bound on |F(u(1))|
EQUIVALENCE_TOL = 1e-10
RESIDUAL_REPRO_RTOL = 1e-9

EXP_PROBLEM_TEXT = """\
# u'' + exp(u) = s on [0, 1], manufactured so that sin(pi r) is exact
[domain]
a = 0
b = 1

[operator]
L = 0, 0, 1
N = exp(u)
s = -pi^2*sin(pi*r) + exp(sin(pi*r))

[bcs]
bc = left, 0, 0
bc = right, 0, 0

[exact]
u = sin(pi*r)
"""


@dataclass
class Outcome:
    """What the check made of one operation's result."""

    ok: bool
    error: Optional[float]  # sup-norm error against the exact solution
    detail: str = ""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    digest: Callable[[object], str]
    tags: dict = field(default_factory=dict)
    problem: object = None


def digits(error: Optional[float]) -> float:
    """-log10 of a sup-norm error, 0 for a failure or an error of 1 or more."""
    if error is None or not math.isfinite(error):
        return 0.0
    if error == 0.0:
        return -math.log10(EPS)
    return max(0.0, -math.log10(error))


def sup_error(problem, U) -> float:
    return float(np.max(np.abs(U - problem.exact_values(problem.make_grid()))))


def _operator_residual(problem, U) -> np.ndarray:
    """F(U) = L U + N(U) - s at every node, computed from the grid directly."""
    grid = problem.make_grid()
    stack = grid.derivative_stack(U, problem.L.order)
    total = np.zeros(grid.n)
    for k, coeff in enumerate(problem.L.coeffs):
        total = total + hs.eval_expr(coeff, grid.nodes) * stack[k]
    total = total + hs.eval_expr(problem.N, grid.nodes, stack)
    return total - hs.eval_expr(problem.s, grid.nodes)


def _hash(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=float).tobytes())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()


def _series_digest(series) -> str:
    return _hash(*series.orders, series.residual_history, series.diverged)


def _final_error_allowed(recorded: float, n: int, margin: float) -> float:
    # roundoff in a second-derivative collocation solve grows like eps*n^2
    return recorded * (1.0 + margin) + 10.0 * EPS * n * n


def _entry(name: str, *args):
    """A call of ``hamsolve.<name>`` that looks the name up when it runs,
    so the tracer's wrapper, installed on that attribute, sees the call."""
    return lambda: getattr(hs, name)(*args)


# --------------------------------------------------------------- series-deep
# One run_ham per operation, a fresh Workspace each time, at a single hbar:
# jet arithmetic dominates, so the O(M^2) jet recursion shows here and
# batching hbar should not.

def _series_check(problem, order: int, key: str):
    def check(series) -> Outcome:
        recorded = EXPECTED["series-deep"][key]
        if len(series.orders) != order + 1:
            return Outcome(False, None, f"{len(series.orders) - 1} orders, want {order}")
        if not all(math.isfinite(r) for r in series.residual_history):
            return Outcome(False, None, "residual history is not finite")
        err = sup_error(problem, hs.partial_sum(series, order))
        allowed = _final_error_allowed(recorded["error"], problem.n, recorded["margin"])
        if not err <= allowed:
            return Outcome(False, err, f"error {err:.3e} above {allowed:.3e}")
        return Outcome(True, err)

    return check


def series_deep_ops():
    tanh_long = hs.get_case("riccati-tanh-long").spec
    exp_problem = hs.parse_problem_text(EXP_PROBLEM_TEXT).problem
    ops = []
    for pname, base, hbar in (("riccati-tanh-long", tanh_long, -0.3), ("exp", exp_problem, -1.0)):
        for n in (64, 128):
            for order in (20, 40, 80):
                problem = base.with_grid_n(n)
                config = hs.HamConfig(hbar=hbar, order=order)
                key = f"{pname} n={n} M={order}"
                ops.append(Op(
                    key,
                    _entry("run_ham", problem, config),
                    _series_check(problem, order, key),
                    _series_digest,
                    {"n": n, "M": order},
                    problem,
                ))
    return ops


# --------------------------------------------------------------- hbar-search
# About thirty sequential Workspace.run calls per search on one shared
# workspace: set-up is amortised and the engine loop dominates, so batching
# hbar shows here.

def _optimal_check(problem, config, bracket, key: str):
    def check(result) -> Outcome:
        recorded = EXPECTED["hbar-search"][key]
        lo, hi = bracket
        if not lo <= result.hbar_star <= hi:
            return Outcome(False, None, f"hbar* {result.hbar_star} outside {bracket}")
        series = hs.run_ham(problem, config.with_hbar(result.hbar_star))
        again = series.residual_history[-1]
        if not abs(again - result.residual_star) <= RESIDUAL_REPRO_RTOL * abs(result.residual_star):
            return Outcome(False, None, f"residual* {result.residual_star!r} not reproduced ({again!r})")
        allowed = recorded["residual_star"] * (1.0 + recorded["margin"])
        if not result.residual_star <= allowed:
            return Outcome(False, None, f"residual* {result.residual_star:.4e} above {allowed:.4e}")
        return Outcome(True, sup_error(problem, hs.partial_sum(series, config.order)))

    return check


def _scan_check(problem, config, grid, key: str):
    def check(curve) -> Outcome:
        recorded = EXPECTED["hbar-search"][key]
        if not np.array_equal(curve.hbars(), np.asarray(grid, dtype=float)):
            return Outcome(False, None, "scan did not probe the requested hbar grid")
        best = curve.best()
        if best.hbar != recorded["best_hbar"]:
            return Outcome(False, None, f"best hbar {best.hbar!r}, recorded {recorded['best_hbar']!r}")
        if not abs(best.residual - recorded["best_residual"]) <= recorded["rtol"] * recorded["best_residual"]:
            return Outcome(False, None, f"best residual {best.residual!r}, recorded {recorded['best_residual']!r}")
        series = hs.run_ham(problem, config.with_hbar(best.hbar))
        return Outcome(True, sup_error(problem, hs.partial_sum(series, config.order)))

    return check


def _optimal_digest(result) -> str:
    return _hash(result.hbar_star, result.residual_star)


def _curve_digest(curve) -> str:
    return _hash(curve.hbars(), curve.residuals(), [e.probe for e in curve.entries])


def hbar_search_ops():
    tanh_long = hs.get_case("riccati-tanh-long").spec
    tanh_short = hs.get_case("riccati-tanh-short").spec
    exp_problem = hs.parse_problem_text(EXP_PROBLEM_TEXT).problem
    ops = []
    for pname, problem, order, bracket in (
        ("riccati-tanh-long", tanh_long, 15, (-2.0, -0.01)),
        ("riccati-tanh-long", tanh_long, 40, (-2.0, -0.01)),
        ("riccati-tanh-short", tanh_short, 10, (-1.5, -0.5)),
        ("exp", exp_problem, 20, (-2.0, -0.01)),
    ):
        config = hs.HamConfig(order=order)
        key = f"optimal_hbar {pname} M={order}"
        ops.append(Op(
            key,
            _entry("optimal_hbar", problem, config, bracket),
            _optimal_check(problem, config, bracket, key),
            _optimal_digest,
            {"n": problem.n, "M": order},
        ))
    config = hs.HamConfig(order=15)
    grid = tuple(float(h) for h in np.linspace(-2.0, -0.01, 17))
    key = "scan_hbar riccati-tanh-long M=15"
    ops.append(Op(
        key,
        _entry("scan_hbar", tanh_long, config, grid),
        _scan_check(tanh_long, config, grid, key),
        _curve_digest,
        {"n": tanh_long.n, "M": 15},
    ))
    return ops


# ---------------------------------------------------------------- trace-fine
# cond, lu_factor and assembly dominate and jets barely run: the workload for
# dgecon, A_L reuse and the Newton stop test, and the bypass for jet and hbar
# changes.  linear-poisson and manufactured-quad abort at n = 256 today; they
# stay in and count as failures.

TRACE_HBAR = 1.0
TRACE_STEPS = 16


def _trace_check(problem):
    def check(path) -> Outcome:
        final = path.final
        if final.eps != 1.0 or not final.converged:
            return Outcome(False, None, f"path ended at eps={final.eps} converged={final.converged}")
        fnorm = float(np.max(np.abs(_operator_residual(problem, final.u))))
        if not fnorm < TRACE_F_BOUND:
            return Outcome(False, None, f"|F(u(1))| = {fnorm:.3e} not below {TRACE_F_BOUND:g}")
        return Outcome(True, sup_error(problem, final.u))

    return check


def _path_digest(path) -> str:
    return _hash(*[(s.eps, s.newton_iters, s.jac_condition, s.converged) for s in path.steps],
                 *[s.u for s in path.steps])


def trace_fine_ops():
    ops = []
    for cid in hs.case_ids():
        for n in (64, 128, 192, 256):
            problem = hs.get_case(cid).spec.with_grid_n(n)
            config = hs.HamConfig(hbar=TRACE_HBAR)
            ops.append(Op(
                f"{cid} n={n}",
                _entry("trace_path", problem, config, TRACE_STEPS),
                _trace_check(problem),
                _path_digest,
                {"n": n},
            ))
    return ops


# --------------------------------------------------------------- cold-solves
# Every operation parses, builds three grids and BcSystems and runs the
# oracle: set-up dominates, and this is the only workload that reaches hpm
# and problemfile.  b is continuous, so inputs share grid sizes but never a
# whole grid.

COLD_N = (32, 48, 64, 96)
COLD_KINDS = ("chebyshev-lobatto", "uniform-fd")
COLD_B = (0.5, 1.5)
COLD_ORDERS = (5, 15)
# (N, the term N contributes to s when u = sin(k r) with k = pi/b)
COLD_NONLINEAR = (
    ("0", None),
    ("u^2", "sin(k*r)^2"),
    ("exp(u)", "exp(sin(k*r))"),
    ("sin(u)", "sin(sin(k*r))"),
    ("u*u'", "sin(k*r)*k*cos(k*r)"),
)
CHECK_ORDER = 10


def cold_problem_text(rng: np.random.Generator) -> str:
    """A second-order Dirichlet problem on [0, b] with exact sin(pi r / b)."""
    b = float(rng.uniform(*COLD_B))
    n = int(rng.choice(COLD_N))
    kind = str(rng.choice(COLD_KINDS))
    N, extra = COLD_NONLINEAR[int(rng.integers(len(COLD_NONLINEAR)))]
    order = int(rng.integers(COLD_ORDERS[0], COLD_ORDERS[1] + 1))
    k = f"(pi/{b!r})"
    s = f"-{k}^2*sin({k}*r)"
    if extra is not None:
        s += " + " + extra.replace("k", k)
    return (
        f"[domain]\na = 0\nb = {b!r}\nkind = {kind}\nn = {n}\n\n"
        f"[operator]\nL = 0, 0, 1\nN = {N}\ns = {s}\n\n"
        "[bcs]\nbc = left, 0, 0\nbc = right, 0, 0\n\n"
        f"[ham]\nhbar = -1\norder = {order}\n\n"
        f"[exact]\nu = sin({k}*r)\n"
    )


def solve_and_check(text: str):
    """What ``hamsolve solve`` followed by ``hamsolve hpm-check`` does."""
    parsed = hs.parse_problem_text(text)
    series = hs.run_ham(parsed.problem, parsed.config)
    report = hs.check_equivalence(parsed.problem, order=CHECK_ORDER, tolerance=EQUIVALENCE_TOL)
    return parsed.problem, series, report


def _cold_check(result) -> Outcome:
    problem, series, report = result
    if not report.passed:
        return Outcome(False, None, f"oracle disagrees: max rel diff {report.max_rel_diff:.3e}")
    if not all(math.isfinite(r) for r in series.residual_history):
        return Outcome(False, None, "residual history is not finite")
    return Outcome(True, sup_error(problem, hs.partial_sum(series, series.truncation_order)))


def _cold_digest(result) -> str:
    _, series, report = result
    return _hash(_series_digest(series), report.per_order_rel_diff)


def cold_op(text: str, label: str) -> Op:
    return Op(label, lambda: solve_and_check(text), _cold_check, _cold_digest)


# ----------------------------------------------------------------- registry

COLD_PASS_LEN = 16


def _cycle(make_ops):
    """Passes over a fixed set of distinct operations, each in a seeded order."""

    def passes(rng):
        ops = make_ops()
        return lambda: [ops[i] for i in rng.permutation(len(ops))]

    return passes


def _cold_passes(rng):
    """Passes of COLD_PASS_LEN fresh problems, all drawn from the seed."""
    count = itertools.count()
    return lambda: [cold_op(cold_problem_text(rng), f"problem {next(count)}") for _ in range(COLD_PASS_LEN)]


# A run times whole passes, so every configuration of a cyclic workload is
# equally represented whatever the run length.
WORKLOADS = {
    "series-deep": _cycle(series_deep_ops),
    "hbar-search": _cycle(hbar_search_ops),
    "trace-fine": _cycle(trace_fine_ops),
    "cold-solves": _cold_passes,
}


def passes(name: str, seed: int):
    """The function that returns each next pass of workload ``name``."""
    return WORKLOADS[name](np.random.default_rng(seed))
