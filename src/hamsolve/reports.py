"""CSV/JSON emission for solver outputs.

All writers are byte-deterministic for identical inputs: no timestamps, no
absolute paths, 17-significant-digit floats, LF newlines, sorted JSON keys.
Writers of grid functions take the engine ``Workspace`` the values were
computed on and read its grid and problem: ``write_solution_csv(path, ws,
series)`` and ``write_path_csv(path, ws, traced)`` build nothing.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

import numpy as np

from .continuation import ContinuationPath
from .engine import Workspace, partial_sum
from .hbar import HbarCurve
from .hpm import EquivalenceReport
from .problem import SeriesSolution


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if v is None:
        return ""
    return format(float(v), ".17g")


def write_csv(path, header: Iterable[str], rows: Iterable[Iterable]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path, obj) -> None:
    Path(path).write_text(
        json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def write_series_csv(path, series: SeriesSolution) -> None:
    rows = [
        (m, series.per_order_norms[m], series.residual_history[m])
        for m in range(len(series.orders))
    ]
    write_csv(path, ("order", "norm", "residual"), rows)


def write_solution_csv(path, ws: Workspace, series: SeriesSolution) -> None:
    grid = ws.grid
    U = partial_sum(series, series.truncation_order)
    exact = ws.problem.exact_values(grid)
    rows = []
    for i in range(grid.n):
        if exact is None:
            rows.append((grid.nodes[i], U[i], None, None))
        else:
            rows.append(
                (grid.nodes[i], U[i], exact[i], abs(U[i] - exact[i]))
            )
    write_csv(path, ("r", "u", "exact", "error"), rows)


def write_curve_csv(path, curve: HbarCurve) -> None:
    rows = [(e.hbar, e.residual, e.diverged, e.probe) for e in curve.entries]
    write_csv(path, ("hbar", "residual", "diverged", "probe"), rows)


def write_path_csv(path, ws: Workspace, traced: ContinuationPath) -> None:
    midpoint = 0.5 * (ws.problem.a + ws.problem.b)
    rows = [
        (
            step.eps,
            step.newton_iters,
            step.jac_condition,
            step.residual_inf,
            ws.grid.interpolate(step.u, midpoint),
        )
        for step in traced.steps
    ]
    write_csv(
        path,
        ("eps", "newton_iters", "jac_condition", "residual_inf", "u_at_probe"),
        rows,
    )


def write_equivalence_json(path, report: EquivalenceReport) -> None:
    write_json(path, report.as_dict())
