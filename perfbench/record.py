#!/usr/bin/env python3
"""Re-record the reference values the benchmark's checks compare against.

    python3 perfbench/record.py

Writes ``perfbench/expected.json`` from the library in ``src/``.  Record
only from a commit whose results have been reviewed: the checks accept a
result within each entry's margin of these values (docs/calibration.md's
rule: measure, record, then freeze).
"""

import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import BLAS_ENV, SRC  # noqa: E402  (run.py imports nothing heavy)

os.environ.update(BLAS_ENV)  # before numpy is imported
sys.path.insert(0, str(SRC))
EXPECTED = HERE / "expected.json"

import hamsolve as hs  # noqa: E402
import workloads  # noqa: E402

SERIES_MARGIN = 0.25
RESIDUAL_MARGIN = 0.25
SCAN_RTOL = 1e-6


def main():
    out = {"series-deep": {}, "hbar-search": {}}
    for op in workloads.series_deep_ops():
        series = op.run()
        err = workloads.sup_error(op.problem, hs.partial_sum(series, series.truncation_order))
        out["series-deep"][op.label] = {"error": err, "margin": SERIES_MARGIN}
    for op in workloads.hbar_search_ops():
        result = op.run()
        if op.label.startswith("scan_hbar"):
            best = result.best()
            out["hbar-search"][op.label] = {"best_hbar": best.hbar, "best_residual": best.residual,
                                            "rtol": SCAN_RTOL}
        else:
            out["hbar-search"][op.label] = {"residual_star": result.residual_star,
                                            "margin": RESIDUAL_MARGIN}
    EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(json.dumps(out, indent=1, sort_keys=True))


if __name__ == "__main__":
    main()
