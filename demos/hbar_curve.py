"""The residual-vs-hbar valley, drawn in ASCII.

Sweeps the convergence-control parameter on the short Riccati problem
and bar-plots log10 of the mean squared residual of the order-10 sum.
The valley floor is visibly away from the fixed choice -1; the zoom
search (batched 17-point passes, each narrowed to the two intervals around
the last best point) then pins it down to three decimals.
"""

import math

from hamsolve import HamConfig, get_case, optimal_hbar, scan_hbar

BAR = "#"


def main() -> None:
    case = get_case("riccati-tanh-short")
    config = HamConfig(order=10)
    hbars = [round(-1.6 + 0.1 * k, 10) for k in range(13)]  # -1.6 .. -0.4
    curve = scan_hbar(case.spec, config, hbars)

    print("hbar      residual       log10")
    for entry in curve.entries:
        log = math.log10(entry.residual)
        # bars grow as the residual shrinks; the floor is around 1e-7
        width = max(0, int(round(2.0 * (1.0 - log))))
        marker = " <- fixed-parameter choice" if entry.hbar == -1.0 else ""
        print(
            f"{entry.hbar:6.2f}  {entry.residual:12.5e}  {log:6.2f}  "
            f"{BAR * width}{marker}"
        )

    best = curve.best()
    print()
    print(f"coarse sweep minimum: hbar = {best.hbar:.2f}")

    opt = optimal_hbar(case.spec, config, (-1.5, -0.5))
    print(
        f"refined:              hbar = {opt.hbar_star:.4f}, "
        f"residual {opt.residual_star:.4e}"
    )
    fixed = [e for e in curve.entries if e.hbar == -1.0][0]
    print(
        f"improvement over hbar = -1: factor "
        f"{fixed.residual / opt.residual_star:.0f}"
    )


if __name__ == "__main__":
    main()
