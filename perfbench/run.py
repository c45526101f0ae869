#!/usr/bin/env python3
"""hamsolve benchmark: one closed-loop client, BLAS pinned to one thread.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: series-deep, hbar-search, trace-fine, cold-solves
(``perfbench/workloads.py`` says what each exercises and why).

``--trace 0`` times whole passes over the workload's operations for about S
seconds and prints the end-to-end metrics, the latencies scaled to a
reference host speed (see ``REFERENCE_MS``).  ``--trace 1`` alternates
untraced and traced passes over one fixed pass and prints the per-layer
metrics; it also checks that the wrappers are transparent (bitwise-equal
results) and that every count repeats exactly from pass to pass.  Spans are
written to ``.perfbench-out/`` when the run ends.

Every operation's result is checked outside the timed region.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Must be in the environment before numpy is first imported.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# the keys of workloads.WORKLOADS, listed here so that checking the argument
# does not import hamsolve before set-up starts being timed
WORKLOADS = ("series-deep", "hbar-search", "trace-fine", "cold-solves")
SETUP_REPEATS = 3  # this process plus two fresh child processes
TAIL_BEYOND = 10
# Latency metrics are given at a fixed host speed.  On a shared host the same
# code runs up to twice as fast or slow for seconds to minutes at a time, in
# CPU time as much as in wall time.  reference_ns() times a fixed piece of
# work before and after every operation; an operation's wall time is scaled
# by REFERENCE_MS over the mean of those two reference times.  REFERENCE_MS is
# that work's usual time on the 2-vCPU Xeon (2.1 GHz) host the benchmark was
# tuned on, so there the figures read as ordinary milliseconds.
REFERENCE_MS = 1.9
COST_RUN_HAM = tuple((n, m) for n in (64, 128) for m in (20, 40, 80))
COST_TRACE = (64, 128, 192, 256)

END_TO_END = (
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("accuracy_digits", "digits"),
    ("peak_rss_mb", "MB"),
)


def per_layer_metrics():
    """(name, unit) of every metric a traced run prints, in print order."""
    from tracer import NAMES

    out = []
    for name in NAMES:
        out += [(f"{name}.calls", "count"), (f"{name}.self_ms", "ms")]
    out += [
        ("hbar.runs_per_search", "count"),
        ("continuation.steps_accepted", "count"),
        ("continuation.newton_iters", "count"),
        ("continuation.newton_useful_ratio", "ratio"),
    ]
    out += [(f"engine.run_ham.n{n}_M{m}_ms", "ms") for n, m in COST_RUN_HAM]
    out += [(f"continuation.trace_path.n{n}_ms", "ms") for n in COST_TRACE]
    out += [("trace.unwrapped_ms", "ms"), ("trace.overhead_frac", "ratio")]
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only set up, then print the set-up time as JSON")
    return p.parse_args(argv)


def set_up(workload_name: str, seed: int):
    """Import, generate inputs and warm up.

    Returns the function that returns each next pass, and the seconds this
    took.
    """
    t0 = time.perf_counter()
    import hamsolve  # timed: set-up starts before this import
    import workloads

    if Path(hamsolve.__file__).resolve().parent != SRC / "hamsolve":
        raise SystemExit(f"error: imported hamsolve from {hamsolve.__file__}, not {SRC}")
    next_pass = workloads.passes(workload_name, seed)
    for op in next_pass():  # lets lazy set-up and any program caches fill
        try:
            op.run()
        except hamsolve.HamError:
            pass
    return next_pass, time.perf_counter() - t0


def reference_ns() -> int:
    """Wall time of a fixed piece of work made of what hamsolve operations
    spend their time on: interpreter loops around short numpy calls,
    whole-array arithmetic, sums of products over slices of a jet-sized
    array, and LU factorisations.  The faster of two tries."""
    import numpy as np
    from scipy.linalg import lu_factor

    v = np.linspace(0.1, 1.0, 48)
    x = np.linspace(0.0, 1.0, 20000)
    y = x[::-1].copy()
    jets = np.outer(np.linspace(-1.0, 1.0, 81), np.linspace(0.5, 1.5, 128))
    a = np.sin(np.arange(160.0 * 160.0)).reshape(160, 160) + 160.0 * np.eye(160)
    best = None
    for _ in range(2):
        t0 = time.perf_counter_ns()
        s, acc = v, 0.0
        for i in range(60):
            s = np.convolve(s, v)[:48] * 0.01 + v
            acc += float(s[i % 48]) * 0.5
            for k in range(60):
                acc += k * 0.25
        z = x
        for _ in range(10):
            z = z * 0.5 + y
        total = np.zeros(128)
        for m in range(40):
            total += (jets[:m + 1] * jets[m::-1]).sum(axis=0)
        for _ in range(2):
            lu_factor(a)
        dt = time.perf_counter_ns() - t0
        best = dt if best is None else min(best, dt)
    return best


def at_reference_speed_ms(ns, ref_ns):
    """Each wall time ns[i] in ms at the reference host speed, given the
    reference times ref_ns[i] just before it and ref_ns[i + 1] just after."""
    return [t / ((ref_ns[i] + ref_ns[i + 1]) / 2) * REFERENCE_MS for i, t in enumerate(ns)]


def run_op(op, tracer=None):
    """Time one operation, then check it.  Returns a record dict.

    A raised HamError is kept only as its message and, for a path abort, the
    partial path: the exception's traceback would keep the failed call's
    frames (and their matrices) alive until the next cyclic collection.
    """
    import hamsolve
    import workloads

    if tracer is not None:
        tracer.install()
    result = raised = None
    t0 = time.perf_counter_ns()
    try:
        result = op.run()
    except hamsolve.HamError as exc:
        raised = f"{type(exc).__name__}: {exc}"
        result = getattr(exc, "path", None)
    t1 = time.perf_counter_ns()
    if tracer is not None:
        tracer.remove()
    if raised is None:
        outcome = op.check(result)
        detail = outcome.detail
    else:
        outcome = workloads.Outcome(False, None)
        detail = raised
    return {
        "label": op.label, "ns": t1 - t0, "ok": outcome.ok,
        "wrong": raised is None and not outcome.ok, "detail": detail,
        "digits": workloads.digits(outcome.error if outcome.ok else None),
        "digest": op.digest(result) if result is not None else raised,
        "result": result,
    }


def blas_info() -> str:
    import ctypes
    import glob

    import numpy

    cfg = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    parts = [f"{cfg.get('name')} {cfg.get('version')}"]
    site = Path(numpy.__file__).resolve().parent.parent
    for pkg in ("numpy", "scipy"):
        for lib in sorted(glob.glob(str(site / f"{pkg}.libs" / "*openblas*"))):
            handle = ctypes.CDLL(lib)
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    parts.append(f"{pkg} threads={fn()}")
                    break
    return ", ".join(parts)


def print_environment(args):
    import platform

    import numpy
    import scipy

    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# python {platform.python_version()}, numpy {numpy.__version__}, "
          f"scipy {scipy.__version__}, nproc {os.cpu_count()}")
    print(f"# blas: {blas_info()}; env " + " ".join(f"{k}={os.environ.get(k)}" for k in BLAS_ENV))


def child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, env=os.environ.copy(), capture_output=True,
                          text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def pass_median(passes, latencies_ms) -> float:
    """Median over passes of each pass's median latency.

    A pass holds each configuration once, and the configurations' latencies
    leave gaps between them: a median over all operations at once falls in
    the gap beside the middle and is set by the extremes of its two
    neighbours, while each pass's median is the middle configuration's
    latency (or the mean of the two middle ones) in that pass.
    """
    out, i = [], 0
    for p in passes:
        out.append(statistics.median(latencies_ms[i:i + len(p)]))
        i += len(p)
    return statistics.median(out)


def tail(latencies_ms):
    """Latency at the highest percentile with ten samples beyond it, and
    that percentile."""
    ranked = sorted(latencies_ms)
    k = max(len(ranked) - 1 - TAIL_BEYOND, 0)
    return ranked[k], 100.0 * k / len(ranked)


def summarize_failures(records):
    counts = {}
    for r in records:
        if not r["ok"]:
            key = (r["label"], "WRONG " + r["detail"] if r["wrong"] else r["detail"].split(":")[0])
            counts[key] = counts.get(key, 0) + 1
    for (label, why), k in sorted(counts.items()):
        print(f"#   failed {k}x  {label}: {why}")


def timed_run(args, next_pass, setup_main):
    passes, ref_ns = [], []
    deadline = time.perf_counter() + args.seconds
    while not passes or time.perf_counter() < deadline:
        records = []
        for op in next_pass():
            ref_ns.append(reference_ns())
            records.append(run_op(op))
            records[-1]["result"] = None  # keep memory flat
        passes.append(records)
    ref_ns.append(reference_ns())
    setups = [setup_main] + [child_setup_seconds(args) for _ in range(SETUP_REPEATS - 1)]

    records = [r for p in passes for r in p]
    wall = [r["ns"] / 1e6 for r in records]
    lat = at_reference_speed_ms([r["ns"] for r in records], ref_ns)
    failed = sum(1 for r in records if not r["ok"])
    wrong = [r for r in records if r["wrong"]]
    tail_ms, tail_pct = tail(lat)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": pass_median(passes, lat),
        "op_tail_ms": tail_ms,
        "ops_per_s": len(records) / (sum(lat) / 1e3),
        "ok_frac": (len(records) - failed) / len(records),
        "accuracy_digits": statistics.median(r["digits"] for r in records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = dict(END_TO_END)
    print(f"# {len(passes)} passes, {len(records)} operations, one client, closed loop")
    for name, value in metrics.items():
        note = ""
        if name == "setup_s":
            note = "  (median of " + ", ".join(f"{s:.3f}" for s in setups) + ")"
        elif name == "op_tail_ms":
            note = f"  (p{tail_pct:.2f}: {TAIL_BEYOND} of {len(lat)} samples beyond)"
        print(f"{name:18s} {value:.6g} {units[name]}{note}")
    wall_tail, _ = tail(wall)
    print(f"# as measured, before scaling to the reference speed: "
          f"op_p50_ms {pass_median(passes, wall):.6g} ms, "
          f"op_tail_ms {wall_tail:.6g} ms, ops_per_s {len(wall) / (sum(wall) / 1e3):.6g} 1/s; "
          f"reference work median {statistics.median(ref_ns) / 1e6:.4g} ms (REFERENCE_MS {REFERENCE_MS:g})")
    print(f"{'fail_frac':18s} {failed / len(records):.6g} ratio  ({failed} failed of {len(records)} attempted)")
    summarize_failures(records)
    by_label = {}
    for r, ms in zip(records, lat):
        by_label.setdefault(r["label"], []).append(ms)
    if len(by_label) < len(records):  # a cycle of configurations
        medians = sorted((statistics.median(v), k) for k, v in by_label.items())
        print("# median latency per configuration: " + ", ".join(f"{k} {v:.2f} ms" for v, k in medians))
    return not wrong, len(records), failed, metrics


def aggregate_pass(cols, ops, records, ids):
    """Per-layer figures of one traced pass (times in ms, counts exact)."""
    import numpy as np
    from tracer import NAMES, self_times, under

    k = len(NAMES)
    dur = cols["end"] - cols["start"]
    selfs = self_times(cols)
    calls = np.bincount(cols["name"], minlength=k)
    self_ns = np.bincount(cols["name"], weights=selfs, minlength=k)
    roots = cols["parent"] < 0
    covered = np.bincount(cols["op"][roots], weights=dur[roots], minlength=len(ops))
    op_ns = np.array([r["ns"] for r in records], dtype=float)
    unwrapped = op_ns - covered
    # spans lie inside their operation's timed interval, and self times
    # partition the covered part, so this holds unless spans are mis-nested
    balanced = bool(np.all(unwrapped >= 0)) and int(self_ns.sum() + unwrapped.sum()) == int(op_ns.sum())
    out = {"balanced": balanced}
    for i, name in enumerate(NAMES):
        out[f"{name}.calls"] = int(calls[i])
        out[f"{name}.self_ms"] = self_ns[i] / 1e6
    searches = calls[ids["hbar.optimal_hbar"]]
    runs_in_search = np.sum((cols["name"] == ids["engine.Workspace.run"]) & under(cols, ids["hbar.optimal_hbar"]))
    out["hbar.runs_per_search"] = float(runs_in_search / searches) if searches else 0.0
    steps = iters = 0
    for r in records:
        path = r["result"]
        if hasattr(path, "steps"):
            steps += len(path.steps) - 1
            iters += sum(s.newton_iters for s in path.steps[1:])
    out["continuation.steps_accepted"] = steps
    out["continuation.newton_iters"] = iters
    lu_in_trace = np.sum((cols["name"] == ids["linalg.lu_factor"]) & under(cols, ids["continuation.trace_path"]))
    out["continuation.newton_useful_ratio"] = float(iters / lu_in_trace) if lu_in_trace else 0.0
    root_ms = {}
    for i in np.nonzero(roots)[0]:
        tags = ops[cols["op"][i]].tags
        if cols["name"][i] == ids["engine.run_ham"] and "M" in tags:
            key = f"engine.run_ham.n{tags['n']}_M{tags['M']}_ms"
        elif cols["name"][i] == ids["continuation.trace_path"]:
            key = f"continuation.trace_path.n{tags['n']}_ms"
        else:
            continue
        root_ms.setdefault(key, []).append(dur[i] / 1e6)
    for n, m in COST_RUN_HAM:
        key = f"engine.run_ham.n{n}_M{m}_ms"
        out[key] = statistics.median(root_ms.get(key, [0.0]))
    for n in COST_TRACE:
        key = f"continuation.trace_path.n{n}_ms"
        out[key] = statistics.median(root_ms.get(key, [0.0]))
    out["trace.unwrapped_ms"] = float(unwrapped.sum()) / 1e6
    return out


def traced_run(args, next_pass):
    import numpy as np
    from tracer import NAMES, Tracer

    tracer = Tracer()
    ids = {name: i for i, name in enumerate(NAMES)}
    ops = next_pass()
    problems = []
    figures, spans, records_all = [], [], []
    wall = {"plain": 0, "traced": 0}
    reference = None
    deadline = time.perf_counter() + args.seconds
    rnd = 0
    while rnd < 2 or time.perf_counter() < deadline:
        # alternate which side goes first so drift on the host cancels
        for side in (("plain", "traced") if rnd % 2 == 0 else ("traced", "plain")):
            if side == "plain":
                records = [run_op(op) for op in ops]
            else:
                records = []
                for i, op in enumerate(ops):
                    tracer.rec.op_id = i
                    records.append(run_op(op, tracer))
                cols = tracer.rec.take()
                figures.append(aggregate_pass(cols, ops, records, ids))
                if not figures[-1]["balanced"]:
                    problems.append(f"traced pass {rnd}: self times plus the unwrapped rest "
                                    "do not add up to the operations' wall time")
                spans.append(cols)
            wall[side] += sum(r["ns"] for r in records)
            digests = [r["digest"] for r in records]
            if reference is None:
                reference = digests
            elif digests != reference:
                problems.append(f"{side} pass {rnd} results differ bitwise from the first pass")
            for r in records:
                r["result"] = None
            records_all += records
        rnd += 1

    units = dict(per_layer_metrics())
    metrics = {}
    for name in units:
        if name == "trace.overhead_frac":
            metrics[name] = wall["traced"] / wall["plain"] - 1.0
            continue
        values = [f[name] for f in figures]
        if units[name] == "count" or name == "continuation.newton_useful_ratio":  # exact
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)

    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
    columns = {c: np.concatenate([s[c] for s in spans]) for c in spans[0]}
    columns["pass"] = np.concatenate([np.full(len(s["name"]), i) for i, s in enumerate(spans)])
    np.savez_compressed(path, names=np.array(NAMES), ops=np.array([op.label for op in ops]), **columns)

    failed = sum(1 for r in records_all if not r["ok"])
    wrong = [r for r in records_all if r["wrong"]]
    print(f"# {rnd} rounds of one untraced and one traced pass over {len(ops)} operations; "
          f"spans in {path.relative_to(ROOT)}")
    if tracer.absent:
        print("# absent wrap targets (reported as 0): " + ", ".join(tracer.absent))
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {units[name]}")
    layers = {}
    for name in NAMES:
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + metrics[f"{name}.self_ms"]
    ranked = sorted(layers.items(), key=lambda kv: -kv[1])
    print("# self time by layer per pass: " + ", ".join(f"{k} {v:.1f} ms" for k, v in ranked))
    top = sorted(NAMES, key=lambda n: -metrics[f"{n}.self_ms"])[:5]
    print("# top callables by self time: " + ", ".join(f"{n} {metrics[n + '.self_ms']:.1f} ms" for n in top))
    print(f"# {failed} failed of {len(records_all)} attempted")
    summarize_failures(records_all)
    for p in problems:
        print(f"# PROBLEM: {p}")
    return not wrong and not problems, len(records_all), failed, metrics, units


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)
    if not (SRC / "hamsolve" / "__init__.py").is_file():
        print(f"error: no hamsolve sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    next_pass, setup_s = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print_environment(args)
    if args.trace:
        correct, attempted, failed, metrics, units = traced_run(args, next_pass)
    else:
        correct, attempted, failed, metrics = timed_run(args, next_pass, setup_s)
        units = dict(END_TO_END)
    print(json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
