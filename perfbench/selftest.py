#!/usr/bin/env python3
"""Self-test of the benchmark's own checks and tracer.

    python3 perfbench/selftest.py

For each workload, runs one real operation, confirms its check accepts the
true result, then perturbs the result and confirms the check rejects it.
Also confirms that the tracer is transparent (bitwise-equal results with
and without wrappers) and that a wrap target that no longer exists is
reported as absent instead of failing.  Exits 0 only if every case holds.
"""

import dataclasses
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import BLAS_ENV, SRC  # noqa: E402  (run.py imports nothing heavy)

os.environ.update(BLAS_ENV)  # before numpy is imported
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import hamsolve as hs  # noqa: E402
import tracer  # noqa: E402
import workloads as w  # noqa: E402

FAILURES = []


def expect(label, outcome_ok, want):
    status = "ok" if outcome_ok == want else "FAILED"
    if outcome_ok != want:
        FAILURES.append(label)
    print(f"{status:6s} {label}: check {'accepts' if outcome_ok else 'rejects'}")


def first(ops, prefix):
    return next(op for op in ops if op.label.startswith(prefix))


def series_cases():
    op = first(w.series_deep_ops(), "exp n=64 M=40")
    series = op.run()
    expect("series-deep true result", op.check(series).ok, True)
    orders = list(series.orders)
    orders[-1] = orders[-1] + 1e-6
    expect("series-deep last order shifted by 1e-6", op.check(dataclasses.replace(series, orders=orders)).ok, False)
    history = series.residual_history[:-1] + (float("nan"),)
    expect("series-deep NaN residual", op.check(dataclasses.replace(series, residual_history=history)).ok, False)


def hbar_cases():
    ops = w.hbar_search_ops()
    op = first(ops, "optimal_hbar riccati-tanh-short")
    result = op.run()
    expect("hbar-search true optimum", op.check(result).ok, True)
    expect("hbar-search residual* off by 1e-6 relative",
           op.check(result._replace(residual_star=result.residual_star * (1 + 1e-6))).ok, False)
    expect("hbar-search hbar* outside the bracket", op.check(result._replace(hbar_star=-0.4)).ok, False)
    worse = op.check(result._replace(hbar_star=-1.0, residual_star=hs.run_ham(
        hs.get_case("riccati-tanh-short").spec, hs.HamConfig(hbar=-1.0, order=10)).residual_history[-1]))
    expect("hbar-search a reproducible but worse point (hbar = -1)", worse.ok, False)
    scan = first(ops, "scan_hbar")
    curve = scan.run()
    expect("hbar-search true scan", scan.check(curve).ok, True)
    entries = list(curve.entries)
    i = int(np.argmin(curve.residuals()))
    entries[i] = entries[i]._replace(residual=entries[i].residual * 0.5)
    expect("hbar-search scan with a halved best residual",
           scan.check(dataclasses.replace(curve, entries=tuple(entries))).ok, False)


def trace_cases():
    op = first(w.trace_fine_ops(), "manufactured-quad n=64")
    path = op.run()
    expect("trace-fine true path", op.check(path).ok, True)
    final = path.steps[-1]
    bumped = dataclasses.replace(final, u=final.u + 1e-7 * np.sin(np.arange(final.u.size)))
    expect("trace-fine final point perturbed by 1e-7",
           op.check(dataclasses.replace(path, steps=path.steps[:-1] + (bumped,))).ok, False)
    early = dataclasses.replace(path, steps=path.steps[:-1])
    expect("trace-fine path stopped short of eps = 1", op.check(early).ok, False)


def cold_cases():
    op = w.passes("cold-solves", 0)()[0]
    problem, series, report = op.run()
    expect("cold-solves true result", op.check((problem, series, report)).ok, True)
    mutated = hs.check_equivalence(problem, order=w.CHECK_ORDER, tolerance=w.EQUIVALENCE_TOL, hbar=-0.9)
    expect("cold-solves engine at hbar = -0.9 against the oracle", op.check((problem, series, mutated)).ok, False)


def tracer_cases():
    op = first(w.series_deep_ops(), "riccati-tanh-long n=64 M=20")
    plain = op.digest(op.run())
    t = tracer.Tracer()
    t.install()
    try:
        traced = op.digest(op.run())
    finally:
        t.remove()
    spans = t.rec.take()
    ok = plain == traced and len(spans["name"]) > 0
    print(f"{'ok' if ok else 'FAILED':6s} tracer transparent: {len(spans['name'])} spans, bitwise-equal result")
    if not ok:
        FAILURES.append("tracer transparency")
    gone = tracer.Tracer(tracer.TARGETS + (("engine.gone", "hamsolve.engine", "no_such_callable"),))
    ok = gone.absent == ["engine.gone"]
    print(f"{'ok' if ok else 'FAILED':6s} missing wrap target reported absent: {gone.absent}")
    if not ok:
        FAILURES.append("absent target")


def main() -> int:
    for case in (series_cases, hbar_cases, trace_cases, cold_cases, tracer_cases):
        case()
    print(f"{len(FAILURES)} self-test failures" + (": " + ", ".join(FAILURES) if FAILURES else ""))
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
