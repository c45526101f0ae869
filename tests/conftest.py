"""Shared fixtures."""

import importlib
import sys

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(module, name) wraps a hamsolve function in every
    ``hamsolve`` module namespace that binds it (``from ... import`` makes
    copies of the name) and returns a list that grows by one per call."""

    def install(module: str, name: str) -> list:
        original = getattr(importlib.import_module(module), name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.split(".")[0] == "hamsolve" and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counting)
        return calls

    return install
