#!/usr/bin/env python3
"""Print the W oracle's closedness sweep residual per darboux-check seed.

``darboux-check`` builds its oracle with the Philox key seed + 4, whose
construction sweep measures the scaled closedness residual of the
difference form Theta - canonical at 4 random points and refuses to
build above ``CLOSEDNESS_TOL``.  For each theory this prints that
residual at every seed of a range, at the given dim and n, then the
seeds at which the oracle refuses.

    PYTHONPATH=src python scripts/closedness_seeds.py --dim 3 --n 16 --seeds 0-59
"""

import argparse
import sys

from covlab import darboux as dx
from covlab.harness import ExperimentConfig

POINTS = 4


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def report(theory: str, dim: int, n: int, seeds: range) -> None:
    refusing = []
    print(f"theory {theory}: dim={dim} n={n}, key seed + 4, {POINTS} points, "
          f"tolerance {dx.CLOSEDNESS_TOL:g}")
    print(f"{'seed':>6}  {'residual':>22}")
    for seed in seeds:
        cfg = ExperimentConfig(theory=theory, experiment="darboux-check", dim=dim, n=n, seed=seed)
        th = dx.Theory.of(theory, cfg.lattice, cfg.mass)
        worst = dx.WOracle(th, check_points=0)._closedness_sweep(seed + 4, POINTS)
        if not worst <= dx.CLOSEDNESS_TOL:
            refusing.append(seed)
        print(f"{seed:6d}  {worst!r:>22}")
    print(f"refusing seeds: {' '.join(map(str, refusing)) or '-'} "
          f"({len(refusing)} of {len(seeds)})")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--n", type=int, default=16)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("0-59"),
                    help="first-last, inclusive (default 0-59)")
    ap.add_argument("--theory", choices=("kg", "schrodinger"), help="one theory; both by default")
    args = ap.parse_args(argv)
    for theory in [args.theory] if args.theory else ("kg", "schrodinger"):
        report(theory, args.dim, args.n, args.seeds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
