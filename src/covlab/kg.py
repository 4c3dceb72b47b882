"""Free Klein-Gordon theory on a periodic lattice slice.

Cauchy data lives on the slice as (phi, p, beta) with the constraint
beta = grad(phi), which KGState declares; the bodies of lattice.py
(_Slice, _Section) enforce and measure it, evolve a state and build a
section from those declarations and the table here.  The functions
here read the lattice off the state and take the mass as a float; the
theory's one record, its lattice and mass, is darboux.Theory.  The flow
is linear, so a variation of a solution is a solution: a slice variation
is a KGState, and a section variation that KGState under the time bump
of lattice._el_densities.  The dynamical conventions follow the
resolved sign ledger (see README):

* the covariant temporal momentum is P^0 = -p (index lowering with
  eta = diag(-1, +1, ...)), which makes the action integrand P^mu d_mu
  phi - H stationary exactly on solution sections.  That integrand, the
  bilinear table _kg_lagrangian, is the theory's one statement: the
  kernels of lattice.py read the EL pairing, the de Donder-Weyl
  equations, the pairing weight 1 and the mode flow off it;
* dphi/ds = p, dp/ds = laplacian(phi) - mass^2 phi, so each Fourier mode
  is a harmonic oscillator with omega_k = sqrt(k^2 + mass^2);
* the slice Hamiltonian is the conserved positive energy
  (1/2) integral (p^2 + |grad phi|^2 + mass^2 phi^2); the printed
  table, with the opposite mass-term sign, is available behind
  ``kg_evolve_spectral``'s ``ledger`` for the negative controls.

The massless zero mode (omega = 0) is a free particle and is evolved by
its exact drift rather than the degenerate rotation formulas.
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
    spectral_gradient,
)

__all__ = [
    "KGState",
    "KGSpacetimeSection",
    "kg_hamiltonian",
    "kg_evolve_spectral",
    "kg_evolve_leapfrog",
    "kg_solution_section",
    "kg_dedonder_weyl_residual",
    "kg_el_pairing",
    "kg_el_cancellation_scale",
]


@dataclass(frozen=True)
class KGState(_Slice):
    """Cauchy data (phi, p, beta) on the slice at time s, constrained by
    beta = grad(phi) (see lattice._Slice)."""

    SCALARS, CONSTRAINTS = ("phi", "p"), (("beta", "phi", +1),)

    phi: ScalarField
    p: ScalarField
    beta: VectorField
    time: float = 0.0


@dataclass(frozen=True)
class KGSpacetimeSection(_Section):
    """The Klein-Gordon section (see lattice._Section): phi and p of shape
    (T, *lattice.shape), beta of shape (T, dim, *lattice.shape), of the
    theory of the given mass."""

    STATE = KGState

    phi: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    dt: float
    lattice: Lattice
    mass: float
    t0: float = 0.0
    lagrangian = property(lambda self: _kg_lagrangian(self.mass, "resolved"))


def kg_hamiltonian(state: KGState, mass: float) -> float:
    """Slice energy (1/2) integral (p^2 + |grad phi|^2 + mass^2 phi^2)."""
    grad = spectral_gradient(state.phi)
    total = inner(state.p, state.p)
    for comp in grad.components:
        total += inner(comp, comp)
    total += mass**2 * inner(state.phi, state.phi)
    return 0.5 * total


def kg_evolve_spectral(
    state: KGState, s: float, mass: float, ledger: str = "resolved"
) -> KGState:
    """Exact per-mode rotation by time s; constraints re-enforced.

    ``ledger`` selects the Hamiltonian whose flow is integrated:
    "resolved" uses omega_k^2 = k^2 + m^2; "paper-printed" uses the
    printed mass sign, k^2 - m^2, whose low modes grow hyperbolically.
    The flag exists for the documented negative controls only.
    """
    return state._evolved(s, _kg_lagrangian(mass, ledger))


def kg_evolve_leapfrog(state: KGState, dt: float, steps: int, mass: float) -> KGState:
    """Kick-drift-kick stepper for the same linear flow.

    The force is diagonal in mode space (-omega_k^2 phi-hat), so the
    stepper is applied there; this is algebraically the standard
    position-space leapfrog with spectral Laplacian force, without the
    per-step transform round trips.
    """
    om2 = state.lattice.half_ksq() + mass**2

    def kick_drift_kick(phihat, phat):
        phihat, phat = phihat.copy(), phat.copy()
        for _ in range(steps):
            phat -= 0.5 * dt * om2 * phihat
            phihat += dt * phat
            phat -= 0.5 * dt * om2 * phihat
        return phihat, phat

    return state._stepped(dt, steps, kick_drift_kick)


def kg_solution_section(
    state: KGState, dt: float, steps: int, mass: float, first: int = 0
) -> KGSpacetimeSection:
    """Sample the exact flow on `steps` intervals of the uniform time grid
    of spacing dt from state.time, from its node `first` on
    (lattice._Section._solution)."""
    return KGSpacetimeSection._solution(
        state, dt, steps, _kg_lagrangian(mass, "resolved"), first, mass=mass
    )


def kg_dedonder_weyl_residual(section: KGSpacetimeSection) -> float:
    """Sup residual of the covariant first-order equations on the section,
    the Euler-Lagrange equations of _kg_lagrangian: with P^0 = -p,
    dphi/dt = p, beta = grad phi and dp/dt = div beta - mass^2 phi, on the
    interior time nodes (lattice._first_order_residual)."""
    return _first_order_residual(section.lagrangian, section)


def _kg_lagrangian(mass: float, ledger: str) -> tuple:
    """P^mu d_mu phi - H with P^0 = -p and covariant H = (1/2)(eta_mn P^m P^n
    - mass^2 phi^2) = (1/2)(-p^2 + |beta|^2 - mass^2 phi^2), as bilinear
    terms (coeff, a, op, b) for the kernels of lattice.py; the printed
    ledger flips the mass term, the one place that knows the KG ledger."""
    if ledger not in ("resolved", "paper-printed"):
        raise ValueError(f"unknown ledger {ledger!r}")
    sign = -1.0 if ledger == "paper-printed" else 1.0
    return (
        (-1.0, "p", "dt", "phi"),
        (1.0, "beta", "grad", "phi"),
        (0.5, "p", "id", "p"),
        (-0.5, "beta", "id", "beta"),
        (sign * 0.5 * mass**2, "phi", "id", "phi"),
    )


def kg_el_pairing(section: KGSpacetimeSection, variation: KGState) -> float:
    """Directional derivative of the action along the slice state
    `variation` under a time bump over the section, zero on its first and
    last slices (lattice._el_densities)."""
    return _el_integrals(section.lagrangian, section, variation)[0]


def kg_el_cancellation_scale(section: KGSpacetimeSection, variation: KGState) -> float:
    """Normalization for the EL residual: the L1 mass of the terms of the
    pairing (p against d_t dphi, dp against d_t phi, beta against grad
    dphi, ...), which cancel on solution sections."""
    return _el_integrals(section.lagrangian, section, variation)[1]

