"""Every hamsolve name the docs mention still exists.

README.md and docs/*.md name code as backticked ``module.name`` (a hamsolve
module), ``hamsolve.name`` or ``Class.attr`` (a class defined in a hamsolve
module), optionally with a trailing ``()``. A name deleted or renamed in the
library would otherwise leave the docs describing code that is gone. An
instance attribute counts when its class assigns ``self.<attr>``. Backticked
text that does not start with a hamsolve module or class (``np.cumsum``,
``path.csv``) is not a reference and is skipped.
"""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import hamsolve

ROOT = Path(__file__).resolve().parents[1]
DOCS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]
REFERENCE = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(\))?`")

MODULES = {
    info.name: importlib.import_module(f"hamsolve.{info.name}")
    for info in pkgutil.iter_modules(hamsolve.__path__)
}
CLASSES = {
    name: obj
    for module in MODULES.values()
    for name, obj in vars(module).items()
    if inspect.isclass(obj) and obj.__module__.startswith("hamsolve")
}


def _has(holder, attr: str) -> bool:
    if hasattr(holder, attr):
        return True
    if inspect.isclass(holder):
        return any(
            re.search(rf"\bself\.{attr}\b\s*(?:,[^=\n]*)?=(?!=)", inspect.getsource(cls))
            for cls in holder.__mro__
            if cls.__module__.startswith("hamsolve")
        )
    return False


def resolves(reference: str):
    """True or False for a hamsolve reference, None for any other text."""
    head, *rest = reference.split(".")
    if head == "hamsolve":
        holder = hamsolve
    elif head in MODULES:
        holder = MODULES[head]
    elif head in CLASSES:
        holder = CLASSES[head]
    else:
        return None
    for attr in rest:
        if not _has(holder, attr):
            return False
        holder = getattr(holder, attr, None)
    return True


def doc_references():
    for path in DOCS:
        for lineno, line in enumerate(path.read_text().splitlines(), 1):
            for reference in REFERENCE.findall(line):
                if resolves(reference) is not None:
                    yield f"{path.relative_to(ROOT)}:{lineno}", reference


def test_doc_names_exist():
    references = list(doc_references())
    assert len(references) >= 30  # the scan sees the docs' references
    missing = [f"{where} `{name}`" for where, name in references if not resolves(name)]
    assert not missing, f"docs name code that does not exist: {missing}"


@pytest.mark.parametrize(
    "reference, expected",
    [
        ("engine.mean_square", True),
        ("BcSystem.condition", True),  # assigned in __init__, not a class attribute
        ("Workspace.run_many", True),
        ("hamsolve.engine", True),
        ("engine.no_such_name", False),
        ("Workspace.no_such_method", False),
        ("np.cumsum", None),
        ("path.csv", None),
    ],
)
def test_resolver(reference, expected):
    assert resolves(reference) is expected
