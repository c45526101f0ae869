"""Command-line front end.

Commands: solve, hscan, trace, hpm-check, bench. Problems come from
builtin:<id> or a problem file (see docs/problem_files.md); flags override
the file's solver block. Output directory: --out, else the HAMSOLVE_OUT
environment variable, else the working directory.

Exit codes: 0 success, 1 any error (including usage), 2 a divergent
series from solve or no finite residual in an hscan, 3 continuation abort
from trace.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Tuple

import numpy as np

from .acceptance import bench
from .benchmarks import get_case
from .continuation import TRACE_HBAR, trace_workspace
from .engine import Workspace
from .errors import HamError, PathAbortError, integer_argument
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


def _build_parser() -> argparse.ArgumentParser:
    # each command takes only the flags it reads
    problem_opts = argparse.ArgumentParser(add_help=False)
    problem_opts.add_argument(
        "problem", metavar="PROBLEM", help="problem file path or builtin:<id>"
    )
    problem_opts.add_argument(
        "--grid-n", type=int, default=None, help="override grid point count"
    )
    hbar_opt = argparse.ArgumentParser(add_help=False)
    hbar_opt.add_argument("--hbar", type=float, default=None)
    order_opt = argparse.ArgumentParser(add_help=False)
    order_opt.add_argument(
        "--order", type=int, default=None, help="series truncation order"
    )
    core_opts = argparse.ArgumentParser(add_help=False)
    core_opts.add_argument(
        "--lopt",
        choices=("use-L", "frechet", "file"),
        default="file",
        help="linear core: the problem's L, its linearization at u0, or "
        "whatever the problem file configures (default)",
    )
    core_opts.add_argument(
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
    # what a command without one of the flags reads in its place
    parser.set_defaults(hbar=None, order=None, lopt="file", weight=None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser(
        "solve", parents=[problem_opts, hbar_opt, order_opt, core_opts, out_opts],
        help="run the series and write series.csv + solution.csv",
    )
    p_solve.set_defaults(func=cmd_solve)

    p_hscan = sub.add_parser(
        "hscan", parents=[problem_opts, order_opt, core_opts, out_opts],
        help="sweep hbar and write hbar_curve.csv",
    )
    p_hscan.add_argument(
        "--range", dest="hbar_range", type=float, nargs=2,
        default=(-2.0, -0.1), metavar=("LO", "HI"),
    )
    p_hscan.add_argument("--points", type=int, default=17)
    p_hscan.set_defaults(func=cmd_hscan)

    p_trace = sub.add_parser(
        "trace", parents=[problem_opts, hbar_opt, core_opts, out_opts],
        help="trace the embedding path and write path.csv",
        description="Trace the embedding path and write path.csv. The "
        f"tracer runs at hbar = {TRACE_HBAR:+g} unless --hbar is given; a "
        "problem file's [ham] hbar is not read, because it carries the "
        "series' sign and the tracer's hbar = h is the series' hbar = -h.",
    )
    p_trace.add_argument("--steps", type=int, default=32)
    p_trace.set_defaults(func=cmd_trace)

    p_check = sub.add_parser(
        "hpm-check", parents=[problem_opts, hbar_opt, order_opt, out_opts],
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
    source = args.problem
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
        config = replace(config, hbar=args.hbar)
    if args.order is not None:
        config = replace(config, order=args.order)
    return problem, config


def cmd_solve(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    ws = Workspace(problem, config)
    series = ws.run()
    if series.diverged:
        print(
            f"warning: series looks divergent at hbar={config.hbar:g}: per-order "
            f"norms grew for {DIVERGENCE_STREAK} consecutive orders or an order "
            "is not finite",
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
    integer_argument(points, "hscan --points", 2)
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
    if not math.isfinite(best.residual):
        print(
            f"warning: no hbar gave a finite residual; wrote {outdir / 'hbar_curve.csv'}",
            file=sys.stderr,
        )
        return 2
    print(
        f"scanned {len(curve.entries)} points; min residual {best.residual:.6g} "
        f"at hbar={best.hbar:.6g}; wrote {outdir / 'hbar_curve.csv'}"
    )
    return 0


def cmd_trace(args) -> int:
    problem, config = _load(args)
    outdir = _outdir(args)
    if args.hbar is None:
        # the file's hbar has the series' sign, the tracer's the opposite
        config = replace(config, hbar=TRACE_HBAR)
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
    except (HamError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
