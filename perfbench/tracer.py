"""Outside-in span tracing of hamsolve, installed from the benchmark's side.

Each traced callable is replaced, for the length of a traced pass, by a thin
wrapper that records a span: name, start, end, parent span and operation id.
The wrapper is put wherever callers look the callable up at call time: its
home module or class, and every ``hamsolve.*`` module namespace that bound
the same object by ``from ... import``. Nothing under ``src/`` changes.
Private helpers (``_PathOps``, ``_evaluate``, the jet recurrences) are not
wrapped, so their time lands in the nearest wrapped parent's self time.

A target that no longer exists (a later refactor removed or renamed it) is
skipped and reported as absent; its metrics read 0.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter_ns

import numpy as np

# (metric name, module, attribute path).  linalg.* are the numpy/scipy
# kernels hamsolve calls; the rest are hamsolve's own layers by module.
TARGETS = (
    ("grids.build_grid", "hamsolve.grids", "build_grid"),
    ("grids.assemble_linear", "hamsolve.grids", "assemble_linear"),
    ("grids.BcSystem.init", "hamsolve.grids", "BcSystem.__init__"),
    ("grids.BcSystem.solve", "hamsolve.grids", "BcSystem.solve"),
    ("linalg.cond", "numpy.linalg", "cond"),
    ("linalg.lu_factor", "scipy.linalg", "lu_factor"),
    ("linalg.lu_solve", "scipy.linalg", "lu_solve"),
    ("jets.jet_expand", "hamsolve.jets", "jet_expand"),
    ("jets.jet_mul", "hamsolve.jets", "jet_mul"),
    ("jets.series_jets", "hamsolve.jets", "series_jets"),
    ("jets.frechet_at_reference", "hamsolve.jets", "frechet_at_reference"),
    ("engine.run_ham", "hamsolve.engine", "run_ham"),
    ("engine.Workspace.init", "hamsolve.engine", "Workspace.__init__"),
    ("engine.Workspace.run", "hamsolve.engine", "Workspace.run"),
    ("engine.Workspace.mth_order_rhs", "hamsolve.engine", "Workspace.mth_order_rhs"),
    ("engine.Workspace.operator_values", "hamsolve.engine", "Workspace.operator_values"),
    ("engine.Workspace.squared_residual", "hamsolve.engine", "Workspace.squared_residual"),
    ("hbar.optimal_hbar", "hamsolve.hbar", "optimal_hbar"),
    ("hbar.scan_hbar", "hamsolve.hbar", "scan_hbar"),
    ("continuation.trace_path", "hamsolve.continuation", "trace_path"),
    ("hpm.hpm_recursion", "hamsolve.hpm", "hpm_recursion"),
    ("hpm.check_equivalence", "hamsolve.hpm", "check_equivalence"),
    ("problemfile.parse_problem_text", "hamsolve.problemfile", "parse_problem_text"),
)
NAMES = tuple(t[0] for t in TARGETS)


class Recorder:
    """Spans of one traced pass, held in memory as parallel lists.

    Span indices are local to the pass; ``take`` turns the pass into int64
    columns and starts a fresh one.
    """

    def __init__(self):
        self.op_id = -1
        self._reset()

    def _reset(self):
        self.name, self.parent, self.op = [], [], []
        self.start, self.end = [], []
        self.stack = [-1]

    def take(self) -> dict:
        cols = {
            "name": np.array(self.name, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "op": np.array(self.op, dtype=np.int64),
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
        }
        self._reset()
        return cols


def _wrap(fn, name_id: int, rec: Recorder):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = len(rec.start)
        rec.name.append(name_id)
        rec.parent.append(rec.stack[-1])
        rec.op.append(rec.op_id)
        rec.end.append(0)
        rec.stack.append(i)
        rec.start.append(perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end[i] = perf_counter_ns()
            rec.stack.pop()

    return traced


def _resolve(module: str, path: str):
    """(owner, attribute, current value) or None when the target is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


class Tracer:
    """Installs and removes the wrappers; one instance per benchmark run."""

    def __init__(self, targets=TARGETS):
        self.rec = Recorder()
        self.absent = []
        self._patches = []  # (owner, attribute, original, wrapper)
        for name_id, (name, module, path) in enumerate(targets):
            found = _resolve(module, path)
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, fn = found
            wrapper = _wrap(fn, name_id, self.rec)
            self._patches.append((owner, attr, fn, wrapper))
            if not isinstance(owner, type):
                # every hamsolve namespace that bound the same object
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or mod is None:
                        continue
                    if mod_name == "hamsolve" or mod_name.startswith("hamsolve."):
                        for key, value in list(vars(mod).items()):
                            if value is fn:
                                self._patches.append((mod, key, fn, wrapper))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def remove(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


def self_times(cols: dict) -> np.ndarray:
    """Each span's duration minus the time its direct children cover (ns)."""
    dur = cols["end"] - cols["start"]
    child = np.zeros(len(dur), dtype=np.int64)
    has_parent = cols["parent"] >= 0
    np.add.at(child, cols["parent"][has_parent], dur[has_parent])
    return dur - child


def under(cols: dict, ancestor_id: int) -> np.ndarray:
    """Mask of spans that have a span named ``ancestor_id`` above them."""
    parent, name = cols["parent"], cols["name"]
    mask = np.zeros(len(parent), dtype=bool)
    # parents always precede children, so one forward sweep suffices
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0:
            mask[i] = mask[p] or name[p] == ancestor_id
    return mask
