"""Aim 3's range as one sweep: every builtin and the exp problem u'' +
exp(u) = s (``conftest.exp_problem``), grid sizes 16-256, truncation orders
up to 100, and hbar from -1.6 to -0.1 in steps of 0.1.

The cells are fixed here, before any run, and none is dropped after one.
In each cell the series either has finite orders or fails with a typed
HamError, with every warning an error, and the divergence flag of the
cell's ``run_many`` column is the flag ``run`` gives at that hbar. The
flag's own accuracy (ROADMAP item 5) and an error estimate (item 13) are
later rows of this sweep; they are not checked here.

The tracer's range is a second sweep: every builtin at n = 64-256 in steps
of 32, at the tracer's hbar with 16 initial steps. Each trace reaches
eps = 1 converged or aborts with a partial path rising from eps = 0, and
the traces that abort are the ones docs/calibration.md records
("Continuation"), so a tracer that stops at the roundoff floor (ROADMAP
item 3) shows as a change of this set.
"""

import functools

import numpy as np
import pytest

from hamsolve import HamConfig, HamError, Workspace, case_ids, get_case

from conftest import exp_problem, run_in_child

PROBLEMS = {**{case_id: get_case(case_id).spec for case_id in case_ids()}, "exp": exp_problem()}
NS = (16, 64, 256)
ORDERS = (10, 40, 100)
HBARS = tuple(-k / 10 for k in range(16, 0, -1))
CELLS = [(problem, n, order, hbar) for problem in PROBLEMS for n in NS for order in ORDERS for hbar in HBARS]


@functools.lru_cache(maxsize=1)
def _group(problem: str, n: int, order: int):
    """The workspace of one (problem, n, M) and its ``run_many`` over HBARS,
    or the HamError that building either raised. The cells of a group are
    consecutive, so one group is held at a time."""
    try:
        ws = Workspace(PROBLEMS[problem].with_grid_n(n), HamConfig(order=order))
    except HamError as exc:
        return exc, None
    try:
        return ws, ws.run_many(HBARS)
    except HamError as exc:
        return ws, exc


def test_the_sweep_has_its_720_cells():
    assert len(CELLS) == len(set(CELLS)) == 5 * 3 * 16 * 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("problem, n, order, hbar", CELLS)
def test_cell_is_finite_or_a_typed_error_and_the_flags_agree(problem, n, order, hbar):
    ws, batch = _group(problem, n, order)
    if isinstance(ws, HamError):
        return  # the problem fails at set-up, with a typed error
    try:
        series = ws.run(hbar)
    except HamError:
        assert isinstance(batch, HamError), "run failed where run_many did not"
        return
    assert not isinstance(batch, HamError), f"run_many failed where run did not: {batch}"
    assert len(series.orders) == order + 1
    assert all(np.isfinite(u).all() for u in series.orders)
    assert bool(batch.diverged[HBARS.index(hbar)]) == series.diverged


TRACE_NS = tuple(range(64, 257, 32))
TRACE_ABORTS = {("linear-poisson", 224), ("linear-poisson", 256), ("manufactured-quad", 256)}


def test_traces_reach_eps_one_or_abort_where_recorded():
    # in a child on one BLAS thread, as recorded: outcomes decided at the
    # roundoff floor move with the thread count
    words = run_in_child(f"""
        import warnings
        warnings.simplefilter("error")
        from hamsolve import HamConfig, PathAbortError, Workspace, case_ids, get_case
        from hamsolve.continuation import TRACE_HBAR, trace_workspace
        for problem in case_ids():
            for n in {TRACE_NS!r}:
                ws = Workspace(get_case(problem).spec.with_grid_n(n), HamConfig(hbar=TRACE_HBAR))
                try:
                    path = trace_workspace(ws, initial_steps=16)
                except PathAbortError as exc:
                    eps = [step.eps for step in exc.path.steps]
                    rises = eps[0] == 0.0 and all(a < b for a, b in zip(eps, eps[1:]))
                    print(problem, n, "aborted" if rises else "aborted-not-rising")
                else:
                    reached = path.final.eps == 1.0 and path.final.converged
                    print(problem, n, "reached" if reached else "not-reached")
    """)
    outcomes = {(problem, int(n)): outcome for problem, n, outcome in zip(words[::3], words[1::3], words[2::3])}
    expected = {
        (problem, n): "aborted" if (problem, n) in TRACE_ABORTS else "reached"
        for problem in case_ids()
        for n in TRACE_NS
    }
    assert outcomes == expected
