#!/usr/bin/env python3
"""Step-size study for the two discrete action residuals.

Halves dt a few times and prints the scaled Euler-Lagrange pairing and
the de Donder-Weyl sup residual at each level, together with the
observed order log2(r(dt) / r(dt/2)).  Both integrator families are
second order, so the orders should settle near 2 until the residual
hits the rounding floor of the cancellation.

The configurations are the action-residual ones of the acceptance
suite, and the residuals are the harness's own: the physical windows
are fixed (the EL window is steps * dt; the dDW window is capped
because the sup over slices just repeats the same pointwise
truncation), so each halving doubles the step count.
"""

import argparse
import math
import sys

from covlab.harness import DDW_WINDOW_STEPS, ddw_residual, el_residual, suite_configs


def sweep(cfg, levels: int) -> None:
    dts = [cfg.dt / 2**j for j in range(levels)]
    el = [el_residual(cfg, dt) for dt in dts]
    ddw = [ddw_residual(cfg, dt) for dt in dts]
    print(f"theory {cfg.theory}: n={cfg.n} L={cfg.length:g} "
          f"T_el={cfg.steps * cfg.dt:g} T_ddw={DDW_WINDOW_STEPS * cfg.dt:g}")
    print(f"{'dt':>10}  {'el-pairing-scaled':>18}  {'order':>6}  "
          f"{'ddw-residual':>13}  {'order':>6}")
    for j, dt in enumerate(dts):
        el_order = f"{math.log2(el[j - 1] / el[j]):6.2f}" if j and el[j] > 0 else "     -"
        ddw_order = f"{math.log2(ddw[j - 1] / ddw[j]):6.2f}" if j and ddw[j] > 0 else "     -"
        print(f"{dt:10.2e}  {el[j]:18.3e}  {el_order}  {ddw[j]:13.3e}  {ddw_order}")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--theory", choices=("kg", "schrodinger", "both"), default="both")
    ap.add_argument("--levels", type=int, default=3, help="number of halvings (default 3)")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)

    theories = ("kg", "schrodinger") if args.theory == "both" else (args.theory,)
    for cfg in suite_configs(seed=args.seed):
        if cfg.experiment == "action-residual" and cfg.theory in theories:
            sweep(cfg, args.levels)
    return 0


if __name__ == "__main__":
    sys.exit(main())
