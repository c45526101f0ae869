"""Series solver for nonlinear two-point ODE problems on spectral grids.

Core workflow: describe a problem as F(u) = L(u) + N(u) - s(r) = 0 with
explicit boundary conditions (ProblemSpec), pick the linear core, hbar,
weight, and truncation order (HamConfig), then run_ham to get the series.
Convergence tuning lives in scan_hbar/optimal_hbar, path validation in
trace_path, and the independent fixed-parameter oracle in hpm_recursion /
check_equivalence. The names imported below are the public API.
"""

from .errors import (
    ConfigError,
    DivergenceWarning,
    DomainError,
    GridMismatchError,
    HamError,
    ParseError,
    PathAbortError,
    RangeError,
    SingularOperatorError,
    SingularSystemError,
)
from .expressions import (
    Call,
    Const,
    Coord,
    LinearOperator,
    OperatorExpr,
    Power,
    Product,
    Sum,
    U,
    contains_u,
    eval_expr,
    max_u_order,
    parse_expr,
    walk,
)
from .grids import (
    BcSystem,
    BoundaryCondition,
    Grid,
    assemble_linear,
    bc_row,
    bc_row_indices,
    build_grid,
    integrate,
)
from .jets import frechet_at_reference, jet_expand
from .problem import HamConfig, ProblemSpec, SeriesSolution
from .engine import SeriesBatch, Workspace, partial_sum, run_ham
from .hbar import (
    HbarCurve,
    HbarEntry,
    OptimalHbar,
    optimal_hbar,
    optimal_workspace,
    scan_hbar,
    scan_workspace,
)
from .continuation import (
    ContinuationPath,
    NewtonResult,
    PathStep,
    homotopy_jacobian,
    homotopy_residual,
    newton_at,
    trace_path,
    trace_workspace,
)
from .hpm import (
    EquivalenceReport,
    check_equivalence,
    equivalence_workspace,
    hpm_config,
    hpm_recursion,
)
from .benchmarks import (
    BenchmarkCase,
    builtin_cases,
    case_ids,
    error_vs_exact,
    get_case,
)
from .problemfile import ParsedProblem, parse_problem_file, parse_problem_text

__version__ = "0.1.0"
