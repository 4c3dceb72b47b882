"""Free Klein-Gordon theory on a periodic lattice slice.

Cauchy data lives on the slice as (phi, p, beta) with the constraint
beta = grad(phi).  The dynamical conventions follow the resolved sign
ledger (see README):

* dphi/ds = p, dp/ds = laplacian(phi) - mass^2 phi, so each Fourier mode
  is a harmonic oscillator with omega_k = sqrt(k^2 + mass^2);
* the slice Hamiltonian is the conserved positive energy
  (1/2) integral (p^2 + |grad phi|^2 + mass^2 phi^2); the printed variant
  with the opposite mass-term sign is available behind ``mass_sign`` for
  comparison runs and is flagged in harness reports;
* the covariant temporal momentum is P^0 = -p (index lowering with
  eta = diag(-1, +1, ...)), which is what makes the action integrand
  P^mu d_mu phi - H stationary exactly on solution sections; that
  integrand is stated once, as the bilinear table _kg_lagrangian.

The massless zero mode (omega = 0) is a free particle and is evolved by
its exact drift rather than the degenerate rotation formulas.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

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
    "KGConfig",
    "KGState",
    "KGSpacetimeSection",
    "KGVariation",
    "kg_hamiltonian",
    "kg_constraint_residual",
    "kg_enforce_constraints",
    "kg_evolve_spectral",
    "kg_evolve_leapfrog",
    "kg_solution_section",
    "kg_dedonder_weyl_residual",
    "kg_action",
    "kg_el_pairing",
    "kg_el_cancellation_scale",
    "kg_random_variation_profile",
]


@dataclass(frozen=True)
class KGConfig:
    mass: float
    lattice: Lattice

    def __post_init__(self):
        if self.mass < 0:
            raise ValueError(f"mass must be nonnegative, got {self.mass}")

    def omega(self) -> np.ndarray:
        """Per-mode oscillator frequency sqrt(k^2 + mass^2), FFT layout;
        read-only and cached per (lattice, mass)."""
        return _omega(self.lattice, self.mass)


@lru_cache(maxsize=32)
def _omega(lattice: Lattice, mass: float) -> np.ndarray:
    out = np.sqrt(lattice.ksq() + mass**2)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class KGState:
    """Cauchy data (phi, p, beta) on the slice at time s."""

    phi: ScalarField
    p: ScalarField
    beta: VectorField
    time: float = 0.0

    def __post_init__(self):
        if self.p.lattice != self.phi.lattice or self.beta.lattice != self.phi.lattice:
            raise ValueError("state fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.phi.lattice


@dataclass(frozen=True)
class KGVariation:
    """Tangent data (dphi, dp, dbeta) attached to a slice."""

    dphi: ScalarField
    dp: ScalarField
    dbeta: VectorField

    def __post_init__(self):
        if (
            self.dp.lattice != self.dphi.lattice
            or self.dbeta.lattice != self.dphi.lattice
        ):
            raise ValueError("variation fields live on different lattices")

    @property
    def lattice(self) -> Lattice:
        return self.dphi.lattice


@dataclass(frozen=True)
class KGSpacetimeSection:
    """The discrete section chi on the uniform time grid t0 + i dt.

    Stored as read-only stacks: phi and p of shape (T, *lattice.shape),
    beta of shape (T, dim, *lattice.shape).  A variation of a section, a
    tangent vector to the space of sections, has the same layout and is
    stored in the same class.

    The stacks a Lagrangian table derives, d/dt and the spatial gradient
    of a named stack, are built at most once per instance and kept
    read-only in a private memo.  dataclasses.replace gives the new
    section an empty memo of its own.
    """

    phi: np.ndarray
    p: np.ndarray
    beta: np.ndarray
    dt: float
    cfg: KGConfig
    t0: float = 0.0
    _derived: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        phi, p, beta = _section_stacks(self.cfg.lattice, (self.phi, self.p), (self.beta,))
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "beta", beta)

    @classmethod
    def from_states(cls, states, dt: float, cfg: KGConfig) -> KGSpacetimeSection:
        """Stack slice states that sit on cfg's lattice at uniform steps of dt."""
        states = tuple(states)
        t0 = _section_origin(states, dt, cfg.lattice)
        return cls(
            phi=np.stack([st.phi.values for st in states]),
            p=np.stack([st.p.values for st in states]),
            beta=np.array([[c.values for c in st.beta.components] for st in states]),
            dt=dt,
            cfg=cfg,
            t0=t0,
        )

    @property
    def lattice(self) -> Lattice:
        return self.cfg.lattice

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(len(self.phi))

    @property
    def states(self) -> tuple[KGState, ...]:
        """Per-slice view of the stacks, built on each access."""
        lat = self.lattice
        return tuple(
            KGState(
                phi=ScalarField(lat, phi),
                p=ScalarField(lat, p),
                beta=VectorField(lat, tuple(ScalarField(lat, c) for c in beta)),
                time=float(t),
            )
            for phi, p, beta, t in zip(self.phi, self.p, self.beta, self.times())
        )


def kg_hamiltonian(state: KGState, cfg: KGConfig, mass_sign: str = "resolved") -> float:
    """Slice energy (1/2) integral (p^2 + |grad phi|^2 +- mass^2 phi^2).

    mass_sign "resolved" gives the conserved positive energy; the
    "paper-printed" variant flips the mass term and is kept only so the
    harness can demonstrate that its flow is tachyonic.
    """
    if mass_sign not in ("resolved", "paper-printed"):
        raise ValueError(f"unknown mass_sign {mass_sign!r}")
    grad = spectral_gradient(state.phi)
    total = inner(state.p, state.p)
    for comp in grad.components:
        total += inner(comp, comp)
    msq = cfg.mass**2 if mass_sign == "resolved" else -cfg.mass**2
    total += msq * inner(state.phi, state.phi)
    return 0.5 * total


def kg_constraint_residual(state: KGState) -> float:
    """Sup-norm of beta - grad(phi)."""
    grad = spectral_gradient(state.phi)
    return max(
        sup_norm(state.beta.components[a].values - grad.components[a].values)
        for a in range(state.lattice.dim)
    )


def kg_enforce_constraints(phi: ScalarField, p: ScalarField, time: float = 0.0) -> KGState:
    """Build a state with beta := grad(phi)."""
    return KGState(phi=phi, p=p, beta=spectral_gradient(phi), time=time)


def _general_rotation(om2: np.ndarray, s):
    """Propagator entries for d2x/ds2 = -om2 x, valid for any sign of om2.
    ``s`` is a time, or an array of times shaped (T, 1, ..., 1) to lead
    om2's axes, giving one pair of entries per time.

    Returns (C, S) with x(s) = C x + S v, v(s) = C v - om2 S x:
    trigonometric for om2 > 0, polynomial drift at om2 = 0, hyperbolic
    for om2 < 0 (the tachyonic branch reachable through the printed
    mass-sign ledger flag).  Each branch is evaluated only on its own
    entries, once per distinct om2.
    """

    def entries(om2, s):
        C = np.ones(np.broadcast_shapes(om2.shape, s.shape))
        S = np.empty_like(C)
        pos, neg = om2 > 0, om2 < 0
        om, mu = np.sqrt(om2[pos]), np.sqrt(-om2[neg])
        x, y = om * s, mu * s
        C[..., pos], S[..., pos] = np.cos(x), np.sin(x) / om
        C[..., neg], S[..., neg] = np.cosh(y), np.sinh(y) / mu
        S[..., ~(pos | neg)] = s
        return C, S

    return _by_distinct(np.asarray(om2, dtype=float), s, entries)


def _kg_om2(cfg: KGConfig, mass_sign: str = "resolved") -> np.ndarray:
    if mass_sign == "resolved":
        return cfg.lattice.ksq() + cfg.mass**2
    if mass_sign == "paper-printed":
        return cfg.lattice.ksq() - cfg.mass**2
    raise ValueError(f"unknown mass_sign {mass_sign!r}")


def _kg_propagate(phihat, phat, om2, s):
    """Mode data rotated by time s; s may be an array of times shaped to
    broadcast against the modes, giving one rotated array per time."""
    C, S = _general_rotation(om2, s)
    return phihat * C + phat * S, phat * C - phihat * om2 * S


def kg_evolve_spectral(
    state: KGState, s: float, cfg: KGConfig, mass_sign: str = "resolved"
) -> KGState:
    """Exact per-mode rotation by time s; constraints re-enforced.

    ``mass_sign`` selects the Hamiltonian whose flow is integrated:
    "resolved" uses omega_k^2 = k^2 + m^2; "paper-printed" uses the
    printed mass sign, k^2 - m^2, whose low modes grow hyperbolically.
    The flag exists for the documented negative controls only.
    """
    om2 = _kg_om2(cfg, mass_sign)
    phihat_s, phat_s = _kg_propagate(
        dft(state.phi).coefficients, dft(state.p).coefficients, om2, s
    )
    lat = state.lattice
    phi_s = idft(ModeVector(lat, phihat_s))
    p_s = idft(ModeVector(lat, phat_s))
    return kg_enforce_constraints(phi_s, p_s, time=state.time + s)


def kg_evolve_leapfrog(state: KGState, dt: float, steps: int, cfg: KGConfig) -> KGState:
    """Kick-drift-kick stepper for the same linear flow.

    The force is diagonal in mode space (-omega_k^2 phi-hat), so the
    stepper is applied there; this is algebraically the standard
    position-space leapfrog with spectral Laplacian force, without the
    per-step transform round trips.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if steps < 0:
        raise ValueError(f"steps must be nonnegative, got {steps}")
    if steps == 0:
        return state
    lat = state.lattice
    om2 = lat.ksq() + cfg.mass**2
    phihat = dft(state.phi).coefficients.copy()
    phat = dft(state.p).coefficients.copy()
    for _ in range(steps):
        phat -= 0.5 * dt * om2 * phihat
        phihat += dt * phat
        phat -= 0.5 * dt * om2 * phihat
    phi_s = idft(ModeVector(lat, phihat))
    p_s = idft(ModeVector(lat, phat))
    return kg_enforce_constraints(phi_s, p_s, time=state.time + dt * steps)


def kg_solution_section(
    state: KGState, dt: float, steps: int, cfg: KGConfig
) -> KGSpacetimeSection:
    """Sample the exact flow on a uniform time grid of `steps` intervals:
    the propagator broadcast over the grid, one batched inverse transform
    per field and one batched gradient for beta, which is also the
    section's derived gradient of phi."""
    if steps < 1:
        raise ValueError("need at least one time interval")
    lat = cfg.lattice
    if state.lattice != lat:
        raise ValueError("section slice lattice mismatch")
    s = (np.arange(steps + 1) * dt).reshape((-1,) + (1,) * lat.dim)
    phihat, phat = _kg_propagate(
        dft(state.phi).coefficients, dft(state.p).coefficients, _kg_om2(cfg), s
    )
    phi = stack_idft(lat, phihat)
    p = stack_idft(lat, phat)
    section = KGSpacetimeSection(
        phi=phi, p=p, beta=stack_gradient(lat, phi), dt=dt, cfg=cfg, t0=state.time
    )
    _seed_derived(section, "grad", "phi", section.beta)
    return section


def kg_dedonder_weyl_residual(section: KGSpacetimeSection) -> float:
    """Sup residual of the covariant first-order equations on the section.

    With P^0 = -p the three blocks are d phi/dt - p, grad phi - beta, and
    -dp/dt + div beta - mass^2 phi, checked on interior time nodes with
    central differences.  A NaN anywhere makes the residual NaN.
    """
    if len(section.phi) < 3:
        raise ValueError("need at least three time slices for central differences")
    dt = section.dt
    lat = section.lattice
    msq = section.cfg.mass**2
    phis, ps, betas = section.phi, section.p, section.beta
    dphi_dt = (phis[2:] - phis[:-2]) / (2 * dt)
    dp_dt = (ps[2:] - ps[:-2]) / (2 * dt)
    mid = slice(1, -1)
    residuals = (
        dphi_dt - ps[mid],
        betas[mid] - stack_gradient(lat, phis[mid]),
        -dp_dt + stack_divergence(lat, betas[mid]) - msq * phis[mid],
    )
    return float(np.max([np.max(np.abs(r)) for r in residuals]))


def _kg_lagrangian(mass: float) -> tuple:
    """P^mu d_mu phi - H with P^0 = -p and covariant H = (1/2)(eta_mn P^m P^n
    - mass^2 phi^2) = (1/2)(-p^2 + |beta|^2 - mass^2 phi^2), as bilinear
    terms (coeff, a, op, b) for lattice._lagrangian_form."""
    return (
        (-1.0, "p", "dt", "phi"),
        (1.0, "beta", "grad", "phi"),
        (0.5, "p", "id", "p"),
        (-0.5, "beta", "id", "beta"),
        (0.5 * mass**2, "phi", "id", "phi"),
    )


def kg_action(section: KGSpacetimeSection) -> float:
    """Discrete covariant action: trapezoidal in time, exact in space."""
    return _lagrangian_form(_kg_lagrangian(section.cfg.mass), section)


def kg_el_pairing(
    section: KGSpacetimeSection, variation: KGSpacetimeSection
) -> float:
    """Directional derivative of the action along a variation of the
    section, which must vanish on the first and last slices."""
    return _lagrangian_form(_kg_lagrangian(section.cfg.mass), section, variation)


def kg_el_cancellation_scale(
    section: KGSpacetimeSection, variation: KGSpacetimeSection
) -> float:
    """Normalization for the EL residual: the L1 mass of the terms of the
    pairing (p against d_t dphi, dp against d_t phi, beta against grad
    dphi, ...), which cancel on solution sections."""
    return _lagrangian_form(_kg_lagrangian(section.cfg.mass), section, variation, magnitude=True)


def kg_random_variation_profile(
    section: KGSpacetimeSection, dphi0: ScalarField, dp0: ScalarField
) -> KGSpacetimeSection:
    """Admissible variation: fixed slice shapes modulated by a smooth time
    bump vanishing at both endpoints; dbeta follows the constraint and is
    also the variation's derived gradient of dphi (the bump commutes with
    the gradient up to rounding)."""
    count, dt = len(section.phi), section.dt
    dbeta0 = stack_gradient(section.lattice, dphi0.values[np.newaxis])[0]
    variation = replace(
        section,
        phi=_bump_stack(count, dt, dphi0.values),
        p=_bump_stack(count, dt, dp0.values),
        beta=_bump_stack(count, dt, dbeta0),
    )
    _seed_derived(variation, "grad", "phi", variation.beta)
    return variation
