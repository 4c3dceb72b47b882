"""Free Schrodinger theory on the lattice slice, rest frame only.

The wavefunction is carried as its real and imaginary parts (phiR, phiI)
together with the spatial momenta (betaR, betaI), constrained by
beta_a = -grad(phi^a).  The covariant temporal momenta are not stored:
the sub-bundle constraints fix them as P0_R = phi^I, P0_I = -phi^R and
they are computed on demand where the action needs them.  The flow is
linear, so a slice variation is a SchrState and a section variation a
SchrSpacetimeSection.

Mode dynamics: each Fourier mode rotates by the angle k^2 s / 2,
equivalently psi-hat -> exp(-i k^2 s / 2) psi-hat for psi = phiR + i phiI.
The covariant Lagrangian is stated once, as the bilinear table
_SCHR_LAGRANGIAN; the action, the EL pairing and the de Donder-Weyl
equations are all read off it by the kernels of lattice.py.

The slice Hamiltonian keeps its printed sign, -1/2 integral |grad psi|^2,
which is nonpositive; it is conserved by the flow either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .lattice import (
    Lattice,
    ModeVector,
    ScalarField,
    VectorField,
    _bump_stack,
    _by_distinct,
    _first_order_residual,
    _lagrangian_form,
    _Section,
    _seed_derived,
    dft,
    idft,
    inner,
    nan_max,
    spectral_gradient,
    stack_gradient,
    stack_idft,
    sup_norm,
)

__all__ = [
    "SchrState",
    "SchrSpacetimeSection",
    "schr_hamiltonian",
    "schr_constraint_residual",
    "schr_enforce_constraints",
    "schr_evolve_spectral",
    "schr_evolve_stepped",
    "schr_solution_section",
    "schr_dedonder_weyl_residual",
    "schr_action",
    "schr_el_pairing",
    "schr_el_cancellation_scale",
    "schr_random_variation_profile",
    "to_wavefunction",
    "schr_norm_squared",
]


@dataclass(frozen=True)
class SchrState:
    phiR: ScalarField
    phiI: ScalarField
    betaR: VectorField
    betaI: VectorField
    time: float = 0.0

    def __post_init__(self):
        lat = self.phiR.lattice
        for f in (self.phiI, self.betaR, self.betaI):
            if f.lattice != lat:
                raise ValueError("state fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.phiR.lattice


@dataclass(frozen=True)
class SchrSpacetimeSection(_Section):
    """The rest-frame Schrodinger section (see lattice._Section): phiR and
    phiI of shape (T, *lattice.shape), betaR and betaI of shape
    (T, dim, *lattice.shape)."""

    SCALARS, VECTORS, STATE = ("phiR", "phiI"), ("betaR", "betaI"), SchrState

    phiR: np.ndarray
    phiI: np.ndarray
    betaR: np.ndarray
    betaI: np.ndarray
    dt: float
    lattice: Lattice
    t0: float = 0.0
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    @classmethod
    def from_states(cls, states, dt: float) -> SchrSpacetimeSection:
        """Stack slice states that share one lattice and sit at uniform
        steps of dt."""
        states = tuple(states)
        lat = states[0].lattice if states else None
        return cls._stacked(states, dt, lat, lattice=lat)


def schr_hamiltonian(state: SchrState) -> float:
    """-1/2 integral (|grad phiR|^2 + |grad phiI|^2); printed sign, <= 0."""
    total = 0.0
    for phi in (state.phiR, state.phiI):
        grad = spectral_gradient(phi)
        for comp in grad.components:
            total += inner(comp, comp)
    return -0.5 * total


def schr_constraint_residual(state: SchrState) -> float:
    """Sup-norm of beta_a + grad(phi^a) over both parts and all axes; a
    NaN anywhere gives NaN."""
    return nan_max(
        sup_norm(b.values + g.values)
        for phi, beta in ((state.phiR, state.betaR), (state.phiI, state.betaI))
        for b, g in zip(beta.components, spectral_gradient(phi).components)
    )


def schr_enforce_constraints(
    phiR: ScalarField, phiI: ScalarField, time: float = 0.0
) -> SchrState:
    """Build a state with beta_a := -grad(phi^a)."""
    lat = phiR.lattice

    def neg_grad(phi):
        g = spectral_gradient(phi)
        return VectorField(lat, tuple(ScalarField(lat, -c.values) for c in g.components))

    return SchrState(
        phiR=phiR,
        phiI=phiI,
        betaR=neg_grad(phiR),
        betaI=neg_grad(phiI),
        time=time,
    )


def _schr_rotate(a, b, c, sg, steps: int = 1):
    """Mode data of (phiR, phiI) rotated `steps` times by the per-mode
    angle whose cosine and sine are c and sg; a leading time axis on them
    gives one array per time."""
    for _ in range(steps):
        a, b = a * c + b * sg, b * c - a * sg
    return a, b


def schr_evolve_spectral(
    state: SchrState, s: float, hamiltonian_sign: str = "resolved"
) -> SchrState:
    """Exact free propagator: per-mode rotation by angle k^2 s / 2.

    ``hamiltonian_sign`` "paper-printed" integrates the flow of the
    printed (negative) Hamiltonian instead, which is the time-reversed
    propagator; it exists for the documented negative controls only.
    """
    if hamiltonian_sign not in ("resolved", "paper-printed"):
        raise ValueError(f"unknown hamiltonian_sign {hamiltonian_sign!r}")
    lat = state.lattice
    theta = 0.5 * lat.ksq() * s
    if hamiltonian_sign == "paper-printed":
        theta = -theta
    a_s, b_s = _schr_rotate(
        dft(state.phiR).coefficients, dft(state.phiI).coefficients, np.cos(theta), np.sin(theta)
    )
    return schr_enforce_constraints(
        idft(ModeVector(lat, a_s)), idft(ModeVector(lat, b_s)), time=state.time + s
    )


def schr_evolve_stepped(state: SchrState, dt: float, steps: int) -> SchrState:
    """Implicit-midpoint stepper, applied per mode.

    On a single mode the implicit midpoint rule for the rotation
    generator is the Cayley transform, an exact rotation by the angle
    2*atan(k^2 dt / 4) per step.  The steps are taken one at a time, so
    the norm drift shows their accumulated rounding.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return state
    lat = state.lattice
    step_angle = 2.0 * np.arctan(0.25 * lat.ksq() * dt)
    a_s, b_s = _schr_rotate(
        dft(state.phiR).coefficients,
        dft(state.phiI).coefficients,
        np.cos(step_angle),
        np.sin(step_angle),
        steps,
    )
    return schr_enforce_constraints(
        idft(ModeVector(lat, a_s)),
        idft(ModeVector(lat, b_s)),
        time=state.time + dt * steps,
    )


def _half_angle_trig(ksq, s):
    """cos and sin of the rotation angle k^2 s / 2."""
    theta = 0.5 * ksq * s
    return np.cos(theta), np.sin(theta)


def schr_solution_section(state: SchrState, dt: float, steps: int) -> SchrSpacetimeSection:
    """Sample the exact flow on a uniform time grid of `steps` intervals:
    the rotation broadcast over the grid, its cosine and sine evaluated
    once per distinct k^2, one batched inverse transform per field and
    one batched gradient per beta; the gradients are also the section's
    derived gradients of phiR and phiI."""
    if steps < 1:
        raise ValueError("need at least one time interval")
    lat = state.lattice
    s = (np.arange(steps + 1) * dt).reshape((-1,) + (1,) * lat.dim)
    a, b = _schr_rotate(
        dft(state.phiR).coefficients,
        dft(state.phiI).coefficients,
        *_by_distinct(lat.ksq(), s, _half_angle_trig),
    )
    phiR = stack_idft(lat, a)
    phiI = stack_idft(lat, b)
    gradR, gradI = stack_gradient(lat, phiR), stack_gradient(lat, phiI)
    section = SchrSpacetimeSection(
        phiR=phiR, phiI=phiI, betaR=-gradR, betaI=-gradI, dt=dt, lattice=lat, t0=state.time
    )
    _seed_derived(section, "grad", "phiR", gradR)
    _seed_derived(section, "grad", "phiI", gradI)
    return section


def schr_dedonder_weyl_residual(section: SchrSpacetimeSection) -> float:
    """Sup residual of the covariant first-order equations on the section,
    the Euler-Lagrange equations of _SCHR_LAGRANGIAN, on the interior
    time nodes (lattice._first_order_residual):

    2 d phiR/dt = div(P_I)     grad phiR = -P_R
    2 d phiI/dt = -div(P_R)    grad phiI = -P_I

    The factor 2 is the table's: phiI d_t phiR - phiR d_t phiI varies
    to 2 d_t.
    """
    return _first_order_residual(_SCHR_LAGRANGIAN, section)


# phiI d_t phiR - phiR d_t phiI + P^j_a d_j phi^a - H with covariant
# H = -1/2 (|P_R|^2 + |P_I|^2), as bilinear terms (coeff, a, op, b) for
# lattice._lagrangian_form and lattice._first_order_residual
_SCHR_LAGRANGIAN = (
    (1.0, "phiI", "dt", "phiR"),
    (-1.0, "phiR", "dt", "phiI"),
    (1.0, "betaR", "grad", "phiR"),
    (1.0, "betaI", "grad", "phiI"),
    (0.5, "betaR", "id", "betaR"),
    (0.5, "betaI", "id", "betaI"),
)


def schr_action(section: SchrSpacetimeSection) -> float:
    return _lagrangian_form(_SCHR_LAGRANGIAN, section)


def schr_el_pairing(
    section: SchrSpacetimeSection, variation: SchrSpacetimeSection
) -> float:
    """Exact directional derivative of the (quadratic) discrete action
    along a variation that vanishes on the first and last slices."""
    return _lagrangian_form(_SCHR_LAGRANGIAN, section, variation)


def schr_el_cancellation_scale(
    section: SchrSpacetimeSection, variation: SchrSpacetimeSection
) -> float:
    """Normalization for the EL residual: L1 mass of the first-order terms
    of the directional derivative (see kg_el_cancellation_scale)."""
    return _lagrangian_form(_SCHR_LAGRANGIAN, section, variation, magnitude=True)


def schr_random_variation_profile(
    section: SchrSpacetimeSection, dphiR0: ScalarField, dphiI0: ScalarField
) -> SchrSpacetimeSection:
    """Admissible variation: fixed slice shapes under a sin^2 time bump
    vanishing at both endpoints; dbeta_a = -grad dphi^a follows the
    constraint, and the bumped grad dphi^a is seeded as the variation's
    derived gradient (the bump commutes with the gradient up to
    rounding)."""
    lat = section.lattice
    count, dt = len(section.phiR), section.dt
    gradR, gradI = (
        _bump_stack(count, dt, stack_gradient(lat, f.values[np.newaxis])[0])
        for f in (dphiR0, dphiI0)
    )
    variation = replace(
        section,
        phiR=_bump_stack(count, dt, dphiR0.values),
        phiI=_bump_stack(count, dt, dphiI0.values),
        betaR=-gradR,
        betaI=-gradI,
    )
    _seed_derived(variation, "grad", "phiR", gradR)
    _seed_derived(variation, "grad", "phiI", gradI)
    return variation


def to_wavefunction(state: SchrState) -> np.ndarray:
    """psi = phiR + i phiI as a complex sample array."""
    return state.phiR.values + 1j * state.phiI.values


def schr_norm_squared(state: SchrState) -> float:
    """integral (phiR^2 + phiI^2); the conserved wavefunction norm."""
    return inner(state.phiR, state.phiR) + inner(state.phiI, state.phiI)
