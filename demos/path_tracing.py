"""Marching the embedding from the easy problem to the real one.

The family G(eps, u) interpolates between the solved linear core at
eps = 0 and the target equation at eps = 1. With the embedding scaled by
hbar = +1 the combined linear part never degenerates and the march is
uneventful. With hbar = -1 the convex combination of the two operators
passes through an exactly singular matrix at eps = 1/2; on the
manufactured benchmark the embedded equation loses real solutions even
earlier, so the trace aborts and hands back the partial path.
"""

import numpy as np

from hamsolve import (
    HamConfig,
    PathAbortError,
    Workspace,
    error_vs_exact,
    get_case,
    trace_path,
    trace_workspace,
)

CASE = get_case("manufactured-quad")


def show_path(path) -> None:
    print("  eps      iters   jac condition   max|u|")
    for step in path.steps:
        print(
            f"  {step.eps:7.4f}  {step.newton_iters:3d}"
            f"   {step.jac_condition:12.4e}"
            f"   {float(np.max(np.abs(step.u))):10.4e}"
        )


def main() -> None:
    print("healthy direction, hbar = +1")
    ws = Workspace(CASE.spec, HamConfig(hbar=1.0))
    path = trace_workspace(ws, initial_steps=8)
    show_path(path)
    err = error_vs_exact(CASE, path.final.u, ws.grid)
    print(f"  endpoint error vs exact solution: {err:.3e}")
    print()

    print("pathological direction, hbar = -1")
    try:
        trace_path(CASE.spec, HamConfig(hbar=-1.0), initial_steps=8)
    except PathAbortError as exc:
        partial = exc.path
        show_path(partial)
        print(f"  aborted: {exc}")
        print(
            f"  made it to eps = {partial.final.eps:.4f} "
            f"in {len(partial.steps) - 1} accepted steps"
        )
    else:
        print("  unexpectedly reached eps = 1")


if __name__ == "__main__":
    main()
