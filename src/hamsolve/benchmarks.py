"""Built-in benchmark problems with analytic exact solutions.

Exactly four cases, covering the regimes the test suite needs: a pure
linear solve, a first-order nonlinear IVP, the same IVP on a long domain
(the series-divergence stressor), and a manufactured second-order BVP.
Exactness is analytic by construction, so error thresholds in tests
measure method error, not ground-truth error.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError
from .expressions import LinearOperator, parse_expr
from .grids import BoundaryCondition, Grid
from .problem import ProblemSpec


@dataclass(frozen=True)
class BenchmarkCase:
    id: str
    spec: ProblemSpec
    notes: str


def _dirichlet(left: float, right: float):
    return (
        BoundaryCondition("left", 0, left),
        BoundaryCondition("right", 0, right),
    )


def builtin_cases() -> tuple:
    """The four shipped benchmarks, in stable order."""
    sin_pir = parse_expr("sin(pi*r)")
    poisson = BenchmarkCase(
        id="linear-poisson",
        spec=ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("0"),
            s=parse_expr("-pi^2 * sin(pi*r)"),
            bcs=_dirichlet(0.0, 0.0),
            exact_solution=sin_pir,
        ),
        notes="u'' = -pi^2 sin(pi r) with zero Dirichlet data; sin(pi r) "
        "differentiates twice into the source exactly",
    )
    tanh_short = BenchmarkCase(
        id="riccati-tanh-short",
        spec=ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("1"),
            bcs=(BoundaryCondition("left", 0, 0.0),),
            exact_solution=parse_expr("tanh(r)"),
        ),
        notes="u' + u^2 = 1, u(0) = 0; tanh' = 1 - tanh^2",
    )
    tanh_long = BenchmarkCase(
        id="riccati-tanh-long",
        # same equation, domain reaching past the Taylor radius pi/2 of
        # tanh at 0: fixed-parameter series must diverge here
        spec=replace(tanh_short.spec, b=3.0),
        notes="u' + u^2 = 1 on [0, 3]; stressor for series divergence",
    )
    manufactured = BenchmarkCase(
        id="manufactured-quad",
        spec=ProblemSpec(
            a=0.0,
            b=1.0,
            L=LinearOperator.from_strings(("0", "0", "1")),
            N=parse_expr("u^2"),
            s=parse_expr("-pi^2*sin(pi*r) + sin(pi*r)^2"),
            bcs=_dirichlet(0.0, 0.0),
            exact_solution=sin_pir,
        ),
        notes="source manufactured so that sin(pi r) solves u'' + u^2 = s "
        "with zero Dirichlet data",
    )
    return (poisson, tanh_short, tanh_long, manufactured)


def case_ids() -> tuple:
    return tuple(case.id for case in builtin_cases())


def get_case(case_id: str) -> BenchmarkCase:
    for case in builtin_cases():
        if case.id == case_id:
            return case
    raise ConfigError(
        f"unknown benchmark {case_id!r}; available: {', '.join(case_ids())}"
    )


def error_vs_exact(case: BenchmarkCase, U: np.ndarray, grid: Grid) -> float:
    """Sup-norm distance from the case's exact solution sampled on ``grid``."""
    U = grid.check_length(U)
    return float(np.max(np.abs(U - case.spec.exact_values(grid))))
