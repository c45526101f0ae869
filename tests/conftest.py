"""Shared fixtures."""

import importlib
import os
import pathlib
import subprocess
import sys
import textwrap

import pytest

import hamsolve
from hamsolve import BoundaryCondition, LinearOperator, ProblemSpec, parse_expr


def run_in_child(script: str, timeout: float = 120) -> list:
    """Run ``script`` (dedented) in a child Python on one BLAS thread and
    return its standard output split into words. Thread checks run this
    way, so a crash fails the test instead of ending the test run."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    src = str(pathlib.Path(hamsolve.__file__).parents[1])
    env["PYTHONPATH"] = src + (":" + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)], capture_output=True, text=True, env=env, timeout=timeout
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.split()


def exp_problem():
    """u'' + exp(u) = s with exact sin(pi r): a transcendental nonlinearity,
    and one whose frechet-at-u0 core differs from L (dN/du(u_0) = exp(0))."""
    return ProblemSpec(
        a=0.0,
        b=1.0,
        L=LinearOperator.from_strings(("0", "0", "1")),
        N=parse_expr("exp(u)"),
        s=parse_expr("-pi^2*sin(pi*r) + exp(sin(pi*r))"),
        bcs=(
            BoundaryCondition("left", 0, 0.0),
            BoundaryCondition("right", 0, 0.0),
        ),
        exact_solution=parse_expr("sin(pi*r)"),
    )


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps a hamsolve function in every
    ``hamsolve`` module namespace that binds it (``from ... import`` makes
    copies of the name) and returns a list that grows by one per call.
    A dotted name such as ``"Workspace.__init__"`` wraps that method on
    its class instead."""

    def install(module: str, name: str) -> list:
        home = importlib.import_module(module)
        cls_name, _, attr = name.rpartition(".")
        holder = getattr(home, cls_name) if cls_name else home
        original = getattr(holder, attr)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        if cls_name:
            monkeypatch.setattr(holder, attr, counting)
            return calls
        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "hamsolve" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
