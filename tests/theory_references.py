"""Each theory's mode flow and pairing weight stated by hand, the
references its Lagrangian table's reading is tested against.

A generator here is a function k^2 -> (kappa, lam) of the flow
d(a0, a1)/ds = (kappa a1, -lam a0)."""

import numpy as np

WEIGHTS = {"kg": 1.0, "schrodinger": 2.0}


def kg_generator(mass: float, ledger: str):
    """(1, omega^2), omega = sqrt(k^2 + mass^2), squared so that the
    flow's nu is omega to the bit; (1, omega^2 - 2 mass^2) under the
    printed mass sign."""
    shift = 2.0 * mass**2 if ledger == "paper-printed" else 0.0
    return lambda ksq: (1.0, np.sqrt(ksq + mass**2) ** 2 - shift)


def schr_generator(ledger: str):
    """(k^2/2, k^2/2), the rotation by k^2 s / 2; (-k^2/2, -k^2/2), the
    time-reversed flow, under the printed Hamiltonian sign."""
    half = -0.5 if ledger == "paper-printed" else 0.5
    return lambda ksq: (half * ksq,) * 2


def generator(theory: str, mass: float, ledger: str):
    return kg_generator(mass, ledger) if theory == "kg" else schr_generator(ledger)
