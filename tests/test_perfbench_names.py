"""Every hamsolve name the benchmark calls still exists.

The benchmark under perfbench/ reaches the library through ``hs.<name>``
and ``_entry("<name>", ...)``. A public name deleted or renamed in the
library would otherwise surface only as failed benchmark operations. The
scan reads those files and changes nothing.
"""

import re
from pathlib import Path

import hamsolve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PATTERNS = (re.compile(r"\bhs\.(\w+)"), re.compile(r"""_entry\(\s*["'](\w+)["']"""))


def test_benchmark_names_exist():
    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        text = path.read_text()
        for pattern in PATTERNS:
            names.update(pattern.findall(text))
    assert {"run_ham", "optimal_hbar", "trace_path"} <= names  # the scan sees the calls
    missing = sorted(n for n in names if not hasattr(hamsolve, n))
    assert not missing, f"perfbench calls names hamsolve lacks: {missing}"
