"""Blasius' boundary layer, a third-order problem on a truncated half-line.

f''' + f f''/2 = 0 with f(0) = f'(0) = 0 and f'(12) = 1, written as a
problem file. The wall shear f''(0), read as (D_2 U)[0], is compared with
Boyd's value (Boyd, Experiment. Math. 8 (1999) 381). The bounds and their
margins are in docs/calibration.md, "Blasius".
"""

import pytest

from hamsolve import Workspace, optimal_workspace, parse_problem_text, partial_sum, trace_workspace

BOYD_SHEAR = 0.332057336215196
BRACKET = (-3.0, -0.01)

BLASIUS = """\
[domain]
a = 0
b = 12
n = {n}

[operator]
L = 0, 0, 0, 1
N = 0.5*u*u''
s = 0

[bcs]
bc = left, 0, 0
bc = left, 1, 0
bc = right, 1, 1

[ham]
order = 40
"""
# Liao's core for this problem: d^3 + d^2 in place of L = d^3
LIAO_CORE = """\
lopt_mode = user

[lopt]
L = 0, 0, 1, 1
"""


def workspace(n, ham_tail=""):
    """The problem at ``n`` nodes, ``ham_tail`` appended to its [ham]."""
    parsed = parse_problem_text(BLASIUS.format(n=n) + ham_tail)
    return Workspace(parsed.problem, parsed.config)


def shear_error(ws, u):
    return abs((ws.grid.diff_matrix(2) @ u)[0] - BOYD_SHEAR)


def searched_series(ws):
    series = ws.run(optimal_workspace(ws, BRACKET).hbar_star)
    return series, shear_error(ws, partial_sum(series, series.truncation_order))


def test_series_with_liao_core_reads_the_wall_shear():
    series, error = searched_series(workspace(48, LIAO_CORE))
    assert -0.7 < series.config.hbar < -0.45
    assert not series.diverged
    assert error < 1e-6


def test_series_with_plain_l_core_is_flagged_and_far_off():
    # the same search with L itself as the core: the operator choice is
    # worth five orders of magnitude in f''(0)
    series, error = searched_series(workspace(48))
    assert series.diverged
    assert error > 1e-2


@pytest.mark.parametrize("n, bound", [(32, 1e-6), (48, 1e-9), (64, 1e-9)])
def test_trace_reads_the_wall_shear(n, bound):
    ws = workspace(n, "hbar = 1\n")
    path = trace_workspace(ws, initial_steps=16)
    assert path.final.eps == 1.0 and path.final.converged
    assert shear_error(ws, path.final.u) < bound
