"""The benchmark's hbar-search operations pass the benchmark's own checks.

Each operation of the hbar-search workload in perfbench/workloads.py runs
once and goes through its check: the search's residual* must reproduce
and stay within the recorded bound. A search change that moves residual*
past that bound then fails here, before a benchmark run. The module is
loaded from its file, and the warning filter it sets on import is undone
when the import returns. Nothing under perfbench/ is written.
"""

import importlib.util
import sys
import warnings
from pathlib import Path

NAME = "perfbench_workloads"
WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def load_workloads():
    """A fresh copy of the workloads module; it is registered only while
    it imports, since dataclasses look their module up there."""
    spec = importlib.util.spec_from_file_location(NAME, WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[NAME] = module
    try:
        with warnings.catch_warnings():
            spec.loader.exec_module(module)
    finally:
        del sys.modules[NAME]
    return module


def test_hbar_search_ops_pass_their_checks():
    ops = load_workloads().hbar_search_ops()
    assert len(ops) == 5
    failures = []
    for op in ops:
        outcome = op.check(op.run())
        if not outcome.ok:
            failures.append(f"{op.label}: {outcome.detail}")
    assert not failures, failures


def test_import_leaves_the_warning_filters_alone():
    before = list(warnings.filters)
    load_workloads()
    assert warnings.filters == before
