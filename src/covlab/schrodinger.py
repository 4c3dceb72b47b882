"""Free Schrodinger theory on the lattice slice, rest frame only.

The wavefunction is carried as its real and imaginary parts (phiR, phiI)
together with the spatial momenta (betaR, betaI), constrained by
beta_a = -grad(phi^a).  The covariant temporal momenta are not stored:
the sub-bundle constraints fix them as P0_R = phi^I, P0_I = -phi^R and
they are computed on demand where the action needs them.

Mode dynamics: each Fourier mode rotates by the angle k^2 s / 2,
equivalently psi-hat -> exp(-i k^2 s / 2) psi-hat for psi = phiR + i phiI.
The covariant Lagrangian is stated once, as the bilinear table
_SCHR_LAGRANGIAN that lattice._lagrangian_form evaluates.

The slice Hamiltonian keeps its printed sign, -1/2 integral |grad psi|^2,
which is nonpositive; it is conserved by the flow either way.  FrameSpec
records the frame data (velocity v) so that frame dependence is at least
representable, but every dynamical operation rejects v != 0.
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
    _lagrangian_form,
    _section_origin,
    _section_stacks,
    _seed_derived,
    dft,
    idft,
    inner,
    spectral_gradient,
    stack_divergence,
    stack_gradient,
    stack_idft,
    sup_norm,
)

__all__ = [
    "FrameSpec",
    "SchrState",
    "SchrSpacetimeSection",
    "SchrVariation",
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
    "from_wavefunction",
    "schr_norm_squared",
]


@dataclass(frozen=True)
class FrameSpec:
    """Galilean frame data Gamma = d/dt + v^j d/dx^j.

    Only the rest frame v = 0 is dynamical; nonzero v is storable for
    documentation of the frame tensor but rejected by evolution.
    """

    v: tuple[float, ...] = ()

    def require_rest_frame(self):
        if any(abs(vj) > 0.0 for vj in self.v):
            raise ValueError(
                "only the rest frame (v = 0) is supported by the dynamics"
            )


REST_FRAME = FrameSpec()


@dataclass(frozen=True)
class SchrState:
    phiR: ScalarField
    phiI: ScalarField
    betaR: VectorField
    betaI: VectorField
    time: float = 0.0
    frame: FrameSpec = field(default=REST_FRAME)

    def __post_init__(self):
        lat = self.phiR.lattice
        for f in (self.phiI, self.betaR, self.betaI):
            if f.lattice != lat:
                raise ValueError("state fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.phiR.lattice

    def temporal_momenta(self) -> tuple[ScalarField, ScalarField]:
        """(P0_R, P0_I) from the sub-bundle constraints."""
        return self.phiI, ScalarField(self.lattice, -self.phiR.values)


@dataclass(frozen=True)
class SchrVariation:
    dphiR: ScalarField
    dphiI: ScalarField
    dbetaR: VectorField
    dbetaI: VectorField

    def __post_init__(self):
        lat = self.dphiR.lattice
        for f in (self.dphiI, self.dbetaR, self.dbetaI):
            if f.lattice != lat:
                raise ValueError("variation fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.dphiR.lattice


@dataclass(frozen=True)
class SchrSpacetimeSection:
    """The discrete section chi on the uniform time grid t0 + i dt, rest
    frame.

    Stored as read-only stacks: phiR and phiI of shape
    (T, *lattice.shape), betaR and betaI of shape (T, dim, *lattice.shape).
    A variation of a section has the same layout and is stored in the
    same class.

    The stacks a Lagrangian table derives, d/dt and the spatial gradient
    of a named stack, are built at most once per instance and kept
    read-only in a private memo.  dataclasses.replace gives the new
    section an empty memo of its own.
    """

    phiR: np.ndarray
    phiI: np.ndarray
    betaR: np.ndarray
    betaI: np.ndarray
    dt: float
    lattice: Lattice
    t0: float = 0.0
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        stacks = _section_stacks(
            self.lattice, (self.phiR, self.phiI), (self.betaR, self.betaI)
        )
        for name, arr in zip(("phiR", "phiI", "betaR", "betaI"), stacks):
            object.__setattr__(self, name, arr)

    @classmethod
    def from_states(cls, states, dt: float) -> SchrSpacetimeSection:
        """Stack rest-frame slice states that share one lattice and sit at
        uniform steps of dt."""
        states = tuple(states)
        lat = states[0].lattice if states else None
        t0 = _section_origin(states, dt, lat)
        for st in states:
            st.frame.require_rest_frame()
        return cls(
            phiR=np.stack([st.phiR.values for st in states]),
            phiI=np.stack([st.phiI.values for st in states]),
            betaR=np.array([[c.values for c in st.betaR.components] for st in states]),
            betaI=np.array([[c.values for c in st.betaI.components] for st in states]),
            dt=dt,
            lattice=lat,
            t0=t0,
        )

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.phiR))

    @property
    def states(self) -> tuple[SchrState, ...]:
        """Per-slice view of the stacks, built on each access."""
        lat = self.lattice

        def vec(stack):
            return VectorField(lat, tuple(ScalarField(lat, c) for c in stack))

        return tuple(
            SchrState(
                phiR=ScalarField(lat, aR),
                phiI=ScalarField(lat, aI),
                betaR=vec(bR),
                betaI=vec(bI),
                time=float(t),
            )
            for aR, aI, bR, bI, t in zip(
                self.phiR, self.phiI, self.betaR, self.betaI, self.times()
            )
        )


def schr_hamiltonian(state: SchrState) -> float:
    """-1/2 integral (|grad phiR|^2 + |grad phiI|^2); printed sign, <= 0."""
    state.frame.require_rest_frame()
    total = 0.0
    for phi in (state.phiR, state.phiI):
        grad = spectral_gradient(phi)
        for comp in grad.components:
            total += inner(comp, comp)
    return -0.5 * total


def schr_constraint_residual(state: SchrState) -> float:
    """Sup-norm of beta_a + grad(phi^a) over both parts and all axes."""
    worst = 0.0
    for phi, beta in ((state.phiR, state.betaR), (state.phiI, state.betaI)):
        grad = spectral_gradient(phi)
        for a in range(state.lattice.dim):
            worst = max(
                worst,
                sup_norm(beta.components[a].values + grad.components[a].values),
            )
    return worst


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
    state.frame.require_rest_frame()
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
    state.frame.require_rest_frame()
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
    state.frame.require_rest_frame()
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
    """Sup residual of the four covariant first-order equations.

    (i)  d phiI/dt = -1/2 div(P_R)     (ii) grad phiI = -P_I
    (iii) d phiR/dt = +1/2 div(P_I)    (iv) grad phiR = -P_R
    Central time differences on interior nodes, spectral space derivatives.
    A NaN anywhere makes the residual NaN.
    """
    if len(section.phiR) < 3:
        raise ValueError("need at least three time slices for central differences")
    dt = section.dt
    lat = section.lattice
    aR, aI = section.phiR, section.phiI
    mid = slice(1, -1)
    bR, bI = section.betaR[mid], section.betaI[mid]
    dR_dt = (aR[2:] - aR[:-2]) / (2 * dt)
    dI_dt = (aI[2:] - aI[:-2]) / (2 * dt)
    residuals = (
        dI_dt + 0.5 * stack_divergence(lat, bR),
        stack_gradient(lat, aI[mid]) + bI,
        dR_dt - 0.5 * stack_divergence(lat, bI),
        stack_gradient(lat, aR[mid]) + bR,
    )
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


# phiI d_t phiR - phiR d_t phiI + P^j_a d_j phi^a - H with covariant
# H = -1/2 (|P_R|^2 + |P_I|^2), as bilinear terms (coeff, a, op, b) for
# lattice._lagrangian_form
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


def from_wavefunction(lat: Lattice, psi: np.ndarray, time: float = 0.0) -> SchrState:
    psi = np.asarray(psi, dtype=complex)
    return schr_enforce_constraints(
        ScalarField(lat, psi.real), ScalarField(lat, psi.imag), time=time
    )


def schr_norm_squared(state: SchrState) -> float:
    """integral (phiR^2 + phiI^2); the conserved wavefunction norm."""
    return inner(state.phiR, state.phiR) + inner(state.phiI, state.phiI)
