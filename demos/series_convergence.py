"""Watch the series converge, then watch it stop.

The short-domain Riccati problem u' + u^2 = 1, u(0) = 0 has the exact
solution tanh(r). At the fixed parameter -1 the recursion reproduces the
Taylor series of tanh: fine on [0, 1], hopeless on [0, 3] because the
Taylor radius is pi/2. The second half of the demo shows the divergence
flag tripping and a tuned parameter bringing the same problem back.
"""

from hamsolve import (
    HamConfig,
    Workspace,
    error_vs_exact,
    get_case,
    optimal_hbar,
    partial_sum,
)


def show_run(case_id: str, hbar: float, order: int) -> None:
    case = get_case(case_id)
    ws = Workspace(case.spec, HamConfig(order=order))
    series = ws.run(hbar=hbar)
    print(f"--- {case_id}, hbar = {hbar:g}, {order + 1} orders ---")
    print("order     |u_m|_inf      residual(U_m)    sup error")
    for m in range(order + 1):
        err = error_vs_exact(case, partial_sum(series, m), ws.grid)
        print(
            f"{m:5d}   {series.per_order_norms[m]:12.5e}"
            f"   {series.residual_history[m]:13.6e}   {err:10.4e}"
        )
    print(f"diverged flag: {series.diverged}")
    print()


def main() -> None:
    show_run("riccati-tanh-short", hbar=-1.0, order=10)

    print("Same equation on [0, 3]: the fixed parameter cannot hold it.")
    print()
    show_run("riccati-tanh-long", hbar=-1.0, order=12)

    long_case = get_case("riccati-tanh-long")
    config = HamConfig(order=15)
    tuned = optimal_hbar(long_case.spec, config, (-2.0, -0.01))
    ws = Workspace(long_case.spec, config)
    series = ws.run(hbar=tuned.hbar_star)
    err = error_vs_exact(long_case, partial_sum(series, 15), ws.grid)
    print("The tunable parameter is the whole point:")
    print(
        f"  best hbar in (-2, -0.01) at order 15: {tuned.hbar_star:.4f}"
        f" with residual {tuned.residual_star:.4e}"
    )
    print(f"  diverged flag there: {series.diverged}, sup error {err:.4e}")
    print("  (compare the runaway norms just above)")


if __name__ == "__main__":
    main()
