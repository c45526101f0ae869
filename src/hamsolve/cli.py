"""Command-line front end.

Commands: solve, hscan, trace, hpm-check, bench. Problems come from
builtin:<id> or a problem file (see docs/problem_files.md); flags override
the file's solver block. Output directory: --out, else the HAMSOLVE_OUT
environment variable, else the working directory.

Exit codes: 0 success, 1 any error (including usage), 2 a divergent
series from solve, 3 continuation abort from trace.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from .acceptance import bench
from .benchmarks import get_case
from .continuation import trace_workspace
from .engine import Workspace
from .errors import ConfigError, HamError, PathAbortError
from .expressions import parse_expr
from .hbar import scan_hbar, split_bracket
from .hpm import check_equivalence
from .problem import DIVERGENCE_STREAK, HamConfig, ProblemSpec
from .problemfile import parse_problem_file
from .reports import (
    write_curve_csv,
    write_equivalence_json,
    write_path_csv,
    write_series_csv,
    write_solution_csv,
)

BUILTIN_PREFIX = "builtin:"
TRACE_DEFAULT_HBAR = 1.0


def _build_parser() -> argparse.ArgumentParser:
    problem_opts = argparse.ArgumentParser(add_help=False)
    problem_opts.add_argument(
        "problem_pos",
        nargs="?",
        metavar="PROBLEM",
        help="problem file path or builtin:<id>",
    )
    problem_opts.add_argument(
        "--problem", dest="problem_flag", metavar="PROBLEM",
        help="alternative to the positional problem source",
    )
    problem_opts.add_argument("--hbar", type=float, default=None)
    problem_opts.add_argument(
        "--order", type=int, default=None, help="series truncation order"
    )
    problem_opts.add_argument(
        "--grid-n", type=int, default=None, help="override grid point count"
    )
    problem_opts.add_argument(
        "--lopt",
        choices=("use-L", "frechet", "file"),
        default="file",
        help="linear core: the problem's L, its linearization at u0, or "
        "whatever the problem file configures (default)",
    )
    problem_opts.add_argument(
        "--H", dest="weight", metavar="EXPR", default=None,
        help="auxiliary weight expression in r",
    )

    out_opts = argparse.ArgumentParser(add_help=False)
    out_opts.add_argument(
        "--out", default=None, metavar="DIR",
        help="output directory (default: $HAMSOLVE_OUT or '.')",
    )

    parser = argparse.ArgumentParser(
        prog="hamsolve",
        description="Series solver for nonlinear two-point ODE problems "
        "with tunable convergence control.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[problem_opts, out_opts],
        help="run the series and write series.csv + solution.csv",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_hscan = sub.add_parser(
        "hscan", parents=[problem_opts, out_opts],
        help="sweep hbar and write hbar_curve.csv",
    )
    p_hscan.add_argument(
        "--range", dest="hbar_range", type=float, nargs=2,
        default=(-2.0, -0.1), metavar=("LO", "HI"),
    )
    p_hscan.add_argument("--points", type=int, default=17)
    p_hscan.set_defaults(func=cmd_hscan)

    p_trace = sub.add_parser(
        "trace", parents=[problem_opts, out_opts],
        help="trace the embedding path and write path.csv",
    )
    p_trace.add_argument("--steps", type=int, default=32)
    p_trace.set_defaults(func=cmd_trace)

    p_check = sub.add_parser(
        "hpm-check", parents=[problem_opts, out_opts],
        help="compare the engine against the independent reduced-method "
        "oracle and write equivalence.json",
    )
    p_check.add_argument("--tol", type=float, default=1e-10)
    p_check.set_defaults(func=cmd_hpm_check)

    p_bench = sub.add_parser(
        "bench", parents=[out_opts],
        help="write benchmark artifacts and run the acceptance checks",
    )
    p_bench.set_defaults(func=cmd_bench)
    return parser


def _outdir(args) -> Path:
    out = args.out or os.environ.get("HAMSOLVE_OUT") or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load(args) -> Tuple[ProblemSpec, HamConfig]:
    sources = [s for s in (args.problem_pos, args.problem_flag) if s]
    if len(sources) != 1:
        raise ConfigError(
            "give exactly one problem source (positional or --problem)"
        )
    source = sources[0]
    if source.startswith(BUILTIN_PREFIX):
        problem = get_case(source[len(BUILTIN_PREFIX):]).spec
        config = HamConfig()
    else:
        parsed = parse_problem_file(source)
        problem, config = parsed.problem, parsed.config
    if args.grid_n is not None:
        problem = problem.with_grid_n(args.grid_n)
    if args.lopt == "use-L":
        config = replace(config, lopt_mode="use-L")
    elif args.lopt == "frechet":
        config = replace(config, lopt_mode="frechet-at-u0")
    if args.weight is not None:
        config = replace(config, H=parse_expr(args.weight))
    if args.hbar is not None:
        config = config.with_hbar(args.hbar)
    if args.order is not None:
        config = config.with_order(args.order)
    return problem, config


def cmd_solve(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    ws = Workspace(problem, config)
    series = ws.run()
    if series.diverged:
        print(
            f"warning: per-order norms grew for {DIVERGENCE_STREAK} consecutive "
            f"orders at hbar={config.hbar:g}; series looks divergent",
            file=sys.stderr,
        )
    write_series_csv(outdir / "series.csv", series)
    write_solution_csv(outdir / "solution.csv", ws, series)
    print(
        f"order {config.order} residual {series.residual_history[-1]:.6g};"
        f" wrote {outdir / 'series.csv'} and {outdir / 'solution.csv'}"
    )
    return 2 if series.diverged else 0


def _scan_points(lo: float, hi: float, points: int) -> np.ndarray:
    if points < 2:
        raise ConfigError(f"hscan needs at least 2 points, got {points}")
    sides = split_bracket(lo, hi)
    if len(sides) == 1:
        return np.linspace(*sides[0], points)
    # both sides of zero: share the requested point count by length
    n_neg = int(round(points * (-lo) / (hi - lo)))
    n_neg = min(max(n_neg, 1), points - 1)
    return np.concatenate(
        [
            np.linspace(*sides[0], n_neg),
            np.linspace(*sides[1], points - n_neg),
        ]
    )


def cmd_hscan(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    pts = _scan_points(args.hbar_range[0], args.hbar_range[1], args.points)
    curve = scan_hbar(problem, config, pts)
    write_curve_csv(outdir / "hbar_curve.csv", curve)
    best = curve.best()
    print(
        f"scanned {len(curve.entries)} points; min residual {best.residual:.6g} "
        f"at hbar={best.hbar:.6g}; wrote {outdir / 'hbar_curve.csv'}"
    )
    return 0


def cmd_trace(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    if args.hbar is None:
        # tracing prefers the positive embedding direction; the series
        # solver's hbar (often negative) is a different knob
        config = config.with_hbar(TRACE_DEFAULT_HBAR)
    ws = Workspace(problem, config)
    try:
        path = trace_workspace(ws, initial_steps=args.steps)
    except PathAbortError as exc:
        write_path_csv(outdir / "path.csv", ws, exc.path)
        print(f"error: {exc}", file=sys.stderr)
        print(f"wrote partial path to {outdir / 'path.csv'}", file=sys.stderr)
        return 3
    write_path_csv(outdir / "path.csv", ws, path)
    final = path.final
    print(
        f"reached eps=1 in {len(path.steps) - 1} steps "
        f"(condition {final.jac_condition:.3e}); wrote {outdir / 'path.csv'}"
    )
    return 0 if final.eps == 1.0 and final.converged else 1


def cmd_hpm_check(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    order = config.order
    report = check_equivalence(
        problem, order=order, tolerance=args.tol, hbar=args.hbar
    )
    write_equivalence_json(outdir / "equivalence.json", report)
    verdict = "pass" if report.passed else "FAIL"
    print(
        f"{verdict}: max per-order rel diff {report.max_rel_diff:.3e} "
        f"(tol {report.tolerance:g}); wrote {outdir / 'equivalence.json'}"
    )
    return 0 if report.passed else 1


def cmd_bench(args) -> int:
    outdir = _outdir(args)
    return bench(outdir)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; 2 is taken (divergence), remap
        return 0 if exc.code == 0 else 1
    try:
        return args.func(args)
    except PathAbortError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except HamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
