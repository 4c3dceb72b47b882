"""Free Schrodinger theory on the lattice slice, rest frame only.

The wavefunction is carried as its real and imaginary parts (phiR, phiI)
together with the spatial momenta (betaR, betaI), constrained by
beta_a = -grad(phi^a), which SchrState declares; the bodies of
lattice.py (_Slice, _Section) enforce and measure the constraints,
evolve a state and build a section from those declarations and the
table here.  The covariant temporal momenta are not stored: the
sub-bundle constraints fix them as P0_R = phi^I, P0_I = -phi^R and they
are computed on demand where the action needs them.  The flow is
linear, so a slice variation is a SchrState, and a section variation
that SchrState under the time bump of lattice._el_densities.

The covariant Lagrangian, the bilinear table _schr_lagrangian, is the
theory's one statement: the kernels of lattice.py read the EL pairing,
the de Donder-Weyl equations, the pairing weight 2 and the mode flow off
it.  Each Fourier mode rotates by the angle k^2 s / 2, equivalently
psi-hat -> exp(-i k^2 s / 2) psi-hat for psi = phiR + i phiI.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (
    Lattice,
    ScalarField,
    VectorField,
    _el_integrals,
    _first_order_residual,
    _Section,
    _Slice,
    inner,
)

__all__ = [
    "SchrState",
    "SchrSpacetimeSection",
    "schr_evolve_spectral",
    "schr_evolve_stepped",
    "schr_solution_section",
    "schr_dedonder_weyl_residual",
    "schr_el_pairing",
    "schr_el_cancellation_scale",
    "to_wavefunction",
    "schr_norm_squared",
]


@dataclass(frozen=True)
class SchrState(_Slice):
    """Cauchy data (phiR, phiI, betaR, betaI) on the slice at time s,
    constrained by beta_a = -grad(phi^a) (see lattice._Slice)."""

    SCALARS = ("phiR", "phiI")
    CONSTRAINTS = (("betaR", "phiR", -1), ("betaI", "phiI", -1))

    phiR: ScalarField
    phiI: ScalarField
    betaR: VectorField
    betaI: VectorField
    time: float = 0.0


@dataclass(frozen=True)
class SchrSpacetimeSection(_Section):
    """The rest-frame Schrodinger section (see lattice._Section): phiR and
    phiI of shape (T, *lattice.shape), betaR and betaI of shape
    (T, dim, *lattice.shape)."""

    STATE = SchrState

    phiR: np.ndarray
    phiI: np.ndarray
    betaR: np.ndarray
    betaI: np.ndarray
    dt: float
    lattice: Lattice
    t0: float = 0.0
    lagrangian = property(lambda self: _schr_lagrangian("resolved"))


def _schr_rotate(a, b, c, sg, steps: int = 1):
    """Mode data of (phiR, phiI) rotated `steps` times by the per-mode
    angle whose cosine and sine are c and sg; a leading time axis on them
    gives one array per time."""
    for _ in range(steps):
        a, b = a * c + b * sg, b * c - a * sg
    return a, b


def schr_evolve_spectral(state: SchrState, s: float, ledger: str = "resolved") -> SchrState:
    """Exact free propagator: per-mode rotation by angle k^2 s / 2.

    ``ledger`` "paper-printed" integrates the flow of the printed
    (negative) Hamiltonian instead, which is the time-reversed
    propagator; it exists for the documented negative controls only.
    """
    return state._evolved(s, _schr_lagrangian(ledger))


def schr_evolve_stepped(state: SchrState, dt: float, steps: int) -> SchrState:
    """Implicit-midpoint stepper, applied per mode.

    On a single mode the implicit midpoint rule for the rotation
    generator is the Cayley transform, an exact rotation by the angle
    2*atan(k^2 dt / 4) per step.  The steps are taken one at a time, so
    the norm drift shows their accumulated rounding.
    """
    angle = 2.0 * np.arctan(0.25 * state.lattice.half_ksq() * dt)
    c, sg = np.cos(angle), np.sin(angle)
    return state._stepped(dt, steps, lambda a, b: _schr_rotate(a, b, c, sg, steps))


def schr_solution_section(
    state: SchrState, dt: float, steps: int, first: int = 0
) -> SchrSpacetimeSection:
    """Sample the exact flow on `steps` intervals of the uniform time grid
    of spacing dt from state.time, from its node `first` on
    (lattice._Section._solution)."""
    return SchrSpacetimeSection._solution(state, dt, steps, _schr_lagrangian("resolved"), first)


def schr_dedonder_weyl_residual(section: SchrSpacetimeSection) -> float:
    """Sup residual of the covariant first-order equations on the section,
    the Euler-Lagrange equations of _schr_lagrangian, on the interior
    time nodes (lattice._first_order_residual):

    2 d phiR/dt = div(P_I)     grad phiR = -P_R
    2 d phiI/dt = -div(P_R)    grad phiI = -P_I

    The factor 2 is the table's: phiI d_t phiR - phiR d_t phiI varies
    to 2 d_t.
    """
    return _first_order_residual(section.lagrangian, section)


def _schr_lagrangian(ledger: str) -> tuple:
    """phiI d_t phiR - phiR d_t phiI + P^j_a d_j phi^a - H with covariant
    H = -1/2 (|P_R|^2 + |P_I|^2), as bilinear terms (coeff, a, op, b) for
    the kernels of lattice.py; the printed ledger, the time-reversed flow,
    flips all but the d/dt terms: the one place that knows the ledger."""
    if ledger not in ("resolved", "paper-printed"):
        raise ValueError(f"unknown ledger {ledger!r}")
    sign = -1.0 if ledger == "paper-printed" else 1.0
    return (
        (1.0, "phiI", "dt", "phiR"),
        (-1.0, "phiR", "dt", "phiI"),
        (sign, "betaR", "grad", "phiR"),
        (sign, "betaI", "grad", "phiI"),
        (sign * 0.5, "betaR", "id", "betaR"),
        (sign * 0.5, "betaI", "id", "betaI"),
    )


def schr_el_pairing(section: SchrSpacetimeSection, variation: SchrState) -> float:
    """Exact directional derivative of the (quadratic) discrete action
    along the slice state `variation` under a time bump over the section,
    zero on its first and last slices (lattice._el_densities)."""
    return _el_integrals(section.lagrangian, section, variation)[0]


def schr_el_cancellation_scale(section: SchrSpacetimeSection, variation: SchrState) -> float:
    """Normalization for the EL residual: L1 mass of the first-order terms
    of the directional derivative (see kg_el_cancellation_scale)."""
    return _el_integrals(section.lagrangian, section, variation)[1]


def to_wavefunction(state: SchrState) -> np.ndarray:
    """psi = phiR + i phiI as a complex sample array."""
    return state.phiR.values + 1j * state.phiI.values


def schr_norm_squared(state: SchrState) -> float:
    """integral (phiR^2 + phiI^2); the conserved wavefunction norm."""
    return inner(state.phiR, state.phiR) + inner(state.phiI, state.phiI)
