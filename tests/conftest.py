"""Shared fixtures."""

import importlib
import sys

import pytest


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
