"""docs/calibration.md names every numeric constant that decides a result.

The calibration rule (measure, record, then freeze) covers the library's
constants as it covers the tests' bounds: each numeric module constant of
the path tracer (``continuation``), the hbar search (``hbar``), the
divergence flag (``problem``) and the linear-system gate (``grids``)
appears in the log as ``module.NAME``, a reference that
tests/test_doc_names.py resolves. Definitions are not calibrations, so
they are exempt: machine epsilon and a cache size.
"""

import ast
import inspect
import numbers
from pathlib import Path

import pytest

import hamsolve.continuation as continuation
import hamsolve.grids as grids
import hamsolve.hbar as hbar
import hamsolve.problem as problem

CALIBRATION = Path(__file__).resolve().parents[1] / "docs" / "calibration.md"

CALIBRATED = {
    continuation: {"NEWTON_TOL", "NEWTON_MAX_ITERS", "MAX_HALVINGS", "MIN_STEP", "CHORD_THETA", "CHORD_COND_LIMIT"},
    hbar: {"PASS_POINTS", "BRACKET_TOL"},
    problem: {"DIVERGENCE_STREAK", "GROWTH_MARGIN"},
    grids: {"COND_LIMIT"},
}
EXEMPT = {hbar: {"EPS"}, grids: {"LOBATTO_CACHE_SIZE"}}


def numeric_constants(module) -> list:
    """The upper-case numeric names the module assigns itself; imported
    ones belong to the module that defines them."""
    assigned = {
        target.id
        for node in ast.parse(inspect.getsource(module)).body
        if isinstance(node, ast.Assign)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    return sorted(
        name
        for name, value in vars(module).items()
        if name in assigned and name.isupper() and isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


@pytest.mark.parametrize("module", list(CALIBRATED), ids=lambda module: module.__name__)
def test_calibration_names_every_numeric_constant(module):
    names = set(numeric_constants(module))
    exempt = EXEMPT.get(module, set())
    assert CALIBRATED[module] | exempt <= names
    prefix = module.__name__.rpartition(".")[2]
    text = CALIBRATION.read_text(encoding="utf-8")
    missing = [name for name in sorted(names - exempt) if f"`{prefix}.{name}`" not in text]
    assert not missing, f"docs/calibration.md does not name {missing} of {prefix}"
