#!/usr/bin/env python3
"""Tabulate the printed W formulas against the line-integral oracle.

The oracle integrates the difference form Theta - canonical along a
path from the zero section, so it is independent of any formula for W.
For seeded band-limited mode states this prints, per state, the derived
W that both theories share, (w/2)(<a0, a1> - <A0, A1>) with the pairing
weight w and the chart coordinates (A0, A1), the printed formula, the
oracle value, and the gaps of both to the oracle.

For Klein-Gordon the table also shows that the printed formula's signed
gap, printed - oracle, equals the extra momentum cross term

    L^d * sum_k Re(pHat_k conj(phiHat_k)) sin(omega_k s)^2

exactly: the printed density double-counts that term, so the gap
vanishes only at states where the term does, and no additive constant
can absorb it.  The Schrodinger printed formula has no such single-term
diagnosis; its gap is reported as measured.
"""

import argparse
import sys

import numpy as np

from covlab import darboux as dx
from covlab.lattice import Lattice, ModeVector


def seeded(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=seed))


def mode_point(lat, seed, s):
    rng = seeded(seed)
    band = lat.n // 4
    a = ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band))
    b = ModeVector(lat, dx.random_hermitian_modes(lat, rng, band=band))
    return dx.ModeState(a, b, time=s)


def kg_cross_term(m, th) -> float:
    phi, p = m.arrays
    cross = np.real(p * np.conj(phi))
    _, _, omega = th.flow().on()
    return m.lattice.volume * float(np.sum(cross * np.sin(omega * m.time) ** 2))


def report(theory: str, lat: Lattice, mass: float, seed: int, count: int) -> None:
    th = dx.Theory.of(theory, lat, mass)
    oracle = dx.WOracle(th)
    print(f"theory {theory}: n={lat.n} L={lat.length:g}"
          + (f" m={mass:g}" if theory == "kg" else ""))
    header = f"{'s':>6}  {'derived':>12}  {'printed':>12}  {'oracle':>12}  " \
             f"{'|printed-oracle|':>16}  {'|derived-oracle|':>16}"
    if theory == "kg":
        header += f"  {'cross term':>12}  {'|(p-o)-cross|':>14}"
    print(header)
    worst_derived = 0.0
    for k in range(count):
        s = 0.4 * k - 1.6
        m = mode_point(lat, seed + 50 + k, s)
        derived, printed = th.w(m), th.w(m, printed=True)
        value = oracle.value(m)
        gap_p = abs(printed - value)
        gap_d = abs(derived - value)
        worst_derived = max(worst_derived, gap_d)
        line = f"{s:6.1f}  {derived:12.4e}  {printed:12.4e}  {value:12.4e}  " \
               f"{gap_p:16.3e}  {gap_d:16.3e}"
        if theory == "kg":
            cross = kg_cross_term(m, th)
            line += f"  {cross:12.4e}  {abs((printed - value) - cross):14.3e}"
        print(line)
    print(f"worst |derived - oracle| over {count} states: {worst_derived:.3e}")
    print()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--length", type=float, default=2 * np.pi)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--count", type=int, default=8, help="states per theory")
    args = ap.parse_args(argv)

    lat = Lattice(dim=1, n=args.n, length=args.length)
    for theory in ("kg", "schrodinger"):
        report(theory, lat, args.mass, args.seed, args.count)
    return 0


if __name__ == "__main__":
    sys.exit(main())
