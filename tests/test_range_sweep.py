"""Aim 3's range as one sweep: every builtin, grid sizes 16-256, truncation
orders up to 100, and hbar from -1.6 to -0.1 in steps of 0.1.

The cells are fixed here, before any run, and none is dropped after one.
In each cell the series either has finite orders or fails with a typed
HamError, with every warning an error, and the divergence flag of the
cell's ``run_many`` column is the flag ``run`` gives at that hbar. The
flag's own accuracy (ROADMAP item 5) and an error estimate (item 13) are
later rows of this sweep; they are not checked here.
"""

import functools

import numpy as np
import pytest

from hamsolve import HamConfig, HamError, Workspace, case_ids, get_case

NS = (16, 64, 256)
ORDERS = (10, 40, 100)
HBARS = tuple(-k / 10 for k in range(16, 0, -1))
CELLS = [(case_id, n, order, hbar) for case_id in case_ids() for n in NS for order in ORDERS for hbar in HBARS]


@functools.lru_cache(maxsize=1)
def _group(case_id: str, n: int, order: int):
    """The workspace of one (builtin, n, M) and its ``run_many`` over HBARS,
    or the HamError that building either raised. The cells of a group are
    consecutive, so one group is held at a time."""
    try:
        ws = Workspace(get_case(case_id).spec.with_grid_n(n), HamConfig(order=order))
    except HamError as exc:
        return exc, None
    try:
        return ws, ws.run_many(HBARS)
    except HamError as exc:
        return ws, exc


def test_the_sweep_has_its_576_cells():
    assert len(CELLS) == len(set(CELLS)) == 4 * 3 * 16 * 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case_id, n, order, hbar", CELLS)
def test_cell_is_finite_or_a_typed_error_and_the_flags_agree(case_id, n, order, hbar):
    ws, batch = _group(case_id, n, order)
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
