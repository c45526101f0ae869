"""docs/calibration.md names every numeric constant of the path tracer.

The calibration rule (measure, record, then freeze) covers the tracer's
constants as it covers the tests' bounds: each numeric module constant
of ``continuation`` appears in the log as ``continuation.NAME``, a
reference that tests/test_doc_names.py resolves.
"""

import numbers
from pathlib import Path

import hamsolve.continuation as continuation

CALIBRATION = Path(__file__).resolve().parents[1] / "docs" / "calibration.md"


def numeric_constants(module) -> list:
    return sorted(
        name
        for name, value in vars(module).items()
        if name.isupper() and isinstance(value, numbers.Real) and not isinstance(value, bool)
    )


def test_calibration_names_every_numeric_constant_of_the_tracer():
    names = numeric_constants(continuation)
    expected = {"NEWTON_TOL", "NEWTON_MAX_ITERS", "MAX_HALVINGS", "MIN_STEP", "CHORD_THETA", "CHORD_COND_LIMIT"}
    assert expected <= set(names)
    text = CALIBRATION.read_text(encoding="utf-8")
    missing = [name for name in names if f"`continuation.{name}`" not in text]
    assert not missing, f"docs/calibration.md does not name {missing}"
